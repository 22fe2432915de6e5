package geosir

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/sched"
	"repro/internal/synth"
)

// liveIn counts the live shapes of a view's parts, and their tombstoned
// ones.
func liveIn(parts []part) (live, dead int) {
	for i := range parts {
		live, dead = live+parts[i].liveShapes(), dead+len(parts[i].dead)
	}
	return live, dead
}

// TestSeededSearchIsOneScan pins what an exact search's stats say, on a
// 200-image base (the benchmark's size) over 40 queries: one iteration at
// width 0, Converged; VerticesCounted every stored copy, each floored once;
// BlockReads what the fixed-cutoff scan with no cutoff charges — every copy
// once — plus the re-reads of the k matches; and Candidates every copy that
// reached the exact evaluator, as the query's own counter sees it in a bare
// run of the two passes. The matches are the k nearest of that scan.
func TestSeededSearchIsOneScan(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 200-image base")
	}
	ctx := context.Background()
	images := synth.GenerateBase(synth.PaperSpec(0.02, 1))
	eng := buildSingle(t, images)
	base, parts := eng.Base(), eng.searchView().parts
	const k = 5
	for qi, q := range synth.Queries(rand.New(rand.NewSource(131)), images, 40, 0.01) {
		pq, err := core.PrepareQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		var evaluated atomic.Int64
		pq.AttachEvalCounter(&evaluated)
		if _, _, err := exactSearch(ctx, parts, pq, k, 1); err != nil {
			t.Fatal(err)
		}
		passes := int(evaluated.Load())
		var scan []core.Match
		_, blocks, err := base.Within(ctx, pq, nil, math.Inf(1), func(m core.Match) { scan = append(scan, m) })
		if err != nil {
			t.Fatal(err)
		}
		sort.Slice(scan, func(i, j int) bool {
			if scan[i].DistVertex != scan[j].DistVertex {
				return scan[i].DistVertex < scan[j].DistVertex
			}
			return scan[i].ShapeID < scan[j].ShapeID
		})
		want := make([]Match, k)
		for i, m := range scan[:k] {
			d, cost := base.Continuous(m.EntryID, pq, new([]geom.Point))
			blocks += cost
			want[i] = Match{ShapeID: m.ShapeID, ImageID: base.Shape(m.ShapeID).Image, Distance: m.DistVertex, ContinuousDistance: d}
		}
		resp, err := eng.Search(ctx, SearchRequest{Query: q, K: k, Mode: ModeExact})
		if err != nil {
			t.Fatal(err)
		}
		assertMatchesEqual(t, fmt.Sprintf("q%d", qi), want, resp.Matches)
		gs := resp.Stats
		if gs.Iterations != 1 || gs.FinalEpsilon != 0 || !gs.Converged || gs.VerticesCounted != base.NumEntries() ||
			gs.BlockReads != blocks || gs.Candidates != passes || gs.Candidates < k {
			t.Fatalf("q%d: Search reports %+v; want 1 iteration at 0, converged, %d copies floored, the scan's and re-reads' %d blocks and the bare passes' %d candidates",
				qi, gs, base.NumEntries(), blocks, passes)
		}
	}
}

// TestBoundFirstFitRule pins when the exact answer is proven: exactly when
// k fits the live shapes pass 1 lists, tombstoned ones not counted. On a
// live view with an image deleted from a frozen shard and one in the
// delta, k = live is Converged and returns every live shape; k = live + 1
// returns the same list unconverged, in ModeExact and in ModeAuto alike,
// and the hash table does not answer.
func TestBoundFirstFitRule(t *testing.T) {
	images, queries, _ := equivBase(t)
	ctx := context.Background()
	se := buildShardedFrom(t, images, 2)
	enableIngest(t, se, t.TempDir(), IngestConfig{})
	if err := se.DeleteImage(ctx, images[0].ID); err != nil {
		t.Fatal(err)
	}
	if err := se.InsertImage(ctx, 9003, []Shape{queries[0].Clone()}); err != nil {
		t.Fatal(err)
	}
	live := se.searchView().parts
	n, _ := liveIn(live)
	if n != se.NumShapes() {
		t.Fatalf("%d live shapes in the parts, the engine reports %d", n, se.NumShapes())
	}
	q := queries[0]
	fit := mustSearch(t, se, SearchRequest{Query: q, K: n, Mode: ModeExact})
	over := mustSearch(t, se, SearchRequest{Query: q, K: n + 1, Mode: ModeExact})
	if len(fit.Matches) != n || !fit.Stats.Converged {
		t.Fatalf("k = %d live shapes: %d matches, converged=%v; want all, proven", n, len(fit.Matches), fit.Stats.Converged)
	}
	assertMatchesEqual(t, "k past the live shapes", fit.Matches, over.Matches)
	if over.Stats.Converged {
		t.Fatalf("k = %d of %d live shapes: converged", n+1, n)
	}
	auto := mustSearch(t, se, SearchRequest{Query: q, K: n + 1})
	assertMatchesEqual(t, "k past the live shapes, ModeAuto", over.Matches, auto.Matches)
	if auto.Stats.Converged || auto.Stats.UsedHashing {
		t.Fatalf("k past the live shapes: ModeAuto converged=%v, used hashing=%v; want ModeExact's unconverged list", auto.Stats.Converged, auto.Stats.UsedHashing)
	}
}

// TestSearchViewIsASnapshot pins the contract of a request's view: a
// search answers from the view as of the moment it took it, whatever the
// writers do after — for the live delta as for the frozen shards. A view
// is captured on a live engine holding a tombstoned frozen image, a
// deleted delta image and, in the delta, a copy of the query (the best
// match there is); then the writers insert images, delete that copy and a
// frozen image, compact, and insert more. At 1 and 7 shards, searches over
// the captured view — while the writers run and after — answer in every
// mode as an engine rebuilt over the images as of capture, its shape ids
// mapped to the ones the reservation rule gives (reserved), and the
// engine's own searches move on.
func TestSearchViewIsASnapshot(t *testing.T) {
	images, queries, sketch := equivBase(t)
	ctx := context.Background()
	q := queries[0]
	const k = 3
	asOfCapture := append(images[1:len(images):len(images)],
		synth.Image{ID: 9003, Shapes: []Shape{q.Clone()}},
		synth.Image{ID: 9004, Shapes: []Shape{queries[1].Clone(), synth.Distort(rand.New(rand.NewSource(7)), q, 0.002)}})
	inserted := append([]synth.Image{{ID: 9002, Shapes: []Shape{q.Clone()}}}, asOfCapture[len(asOfCapture)-2:]...)
	ids := reserved(slices.Concat(images, inserted), asOfCapture)
	rebuilt := buildSingle(t, asOfCapture)
	reqs := []SearchRequest{{Query: q, K: k, Mode: ModeExact}, {Query: q, K: k, Mode: ModeAuto},
		{Query: queries[1], K: k, Mode: ModeApproximate},
		{Sketch: sketch, K: k, Mode: ModeSketch}}
	want := make([]*SearchResponse, len(reqs))
	for i, req := range reqs {
		want[i] = mustSearch(t, rebuilt, req)
		for j, m := range want[i].Matches {
			want[i].Matches[j].ShapeID = ids[m.ShapeID]
		}
	}
	for _, shards := range []int{1, 7} {
		se := buildShardedFrom(t, images, shards)
		enableIngest(t, se, t.TempDir(), IngestConfig{})
		if err := se.DeleteImage(ctx, images[0].ID); err != nil {
			t.Fatal(err)
		}
		for _, im := range inserted {
			if err := se.InsertImage(ctx, im.ID, im.Shapes); err != nil {
				t.Fatal(err)
			}
		}
		if err := se.DeleteImage(ctx, 9002); err != nil {
			t.Fatal(err)
		}
		captured := se.searchView()
		check := func(label string) {
			var pl sched.Planner
			for i, req := range reqs {
				got, err := search(ctx, &pl, true, func() searchView { return captured }, req)
				if err != nil {
					t.Errorf("shards=%d %s %v: %v", shards, label, req.Mode, err)
					return
				}
				if !reflect.DeepEqual(got.Matches, want[i].Matches) || !reflect.DeepEqual(got.SketchMatches, want[i].SketchMatches) {
					t.Errorf("shards=%d %s request %d (%v): the captured view answers\n%+v %+v\nthe images as of capture\n%+v %+v",
						shards, label, i, req.Mode, got.Matches, got.SketchMatches, want[i].Matches, want[i].SketchMatches)
					return
				}
			}
		}
		stop, finished := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(finished)
			for !t.Failed() {
				check("while the writers run")
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
		writes := []func() error{
			func() error { return se.InsertImage(ctx, 9005, []Shape{q.Clone()}) },
			func() error { return se.DeleteImage(ctx, 9003) },
			func() error { return se.DeleteImage(ctx, images[1].ID) },
			se.Compact,
			func() error { return se.InsertImage(ctx, 9006, []Shape{queries[1].Clone()}) },
			func() error { return se.DeleteImage(ctx, 9004) },
		}
		var werr error
		for i, w := range writes {
			if werr = w(); werr != nil {
				werr = fmt.Errorf("write %d: %w", i, werr)
				break
			}
		}
		close(stop)
		<-finished
		if werr != nil {
			t.Fatalf("shards=%d: %v", shards, werr)
		}
		check("after the writes")
		if got := mustSearch(t, se, reqs[0]).Matches; reflect.DeepEqual(got, want[0].Matches) || got[0].ImageID != 9005 {
			t.Fatalf("shards=%d: the engine's own search did not move on: %+v", shards, got)
		}
	}
}

// TestFloorOrderIsOptimal pins the stop rule of the exact search's refine
// pass (DESIGN.md §4.9, "The exact search is two passes"): the shapes it
// scores (rank, watched through its scorer after the exact search's own
// listing) are exactly those whose floor is at most the final k-th best. No
// shape with a floor strictly above it reaches scoreBounded — the k best
// have floors no higher, so by the time such a shape tops the heap they
// have all been scored and the running k-th is down to the final one — and
// none at or below it is skipped. On a single Engine, on 8 shards, and on a
// live view: tombstones, a compaction, and a delta holding some of the best
// matches; k ∈ {1, 5, 17}.
func TestFloorOrderIsOptimal(t *testing.T) {
	images, queries, _ := equivBase(t)
	ctx := context.Background()
	single := buildSingle(t, images)
	sharded := buildShardedFrom(t, images, 8)
	live := buildShardedFrom(t, images, 8)
	enableIngest(t, live, t.TempDir(), IngestConfig{})
	for _, im := range images[:len(images)/4] {
		if err := live.DeleteImage(ctx, im.ID); err != nil {
			t.Fatal(err)
		}
	}
	if err := live.InsertImage(ctx, 9100, []Shape{queries[0].Clone()}); err != nil {
		t.Fatal(err)
	}
	if err := live.Compact(); err != nil {
		t.Fatal(err)
	}
	for qi, q := range queries {
		if err := live.InsertImage(ctx, 9200+qi, []Shape{synth.Distort(rand.New(rand.NewSource(int64(qi))), q, 0.002)}); err != nil {
			t.Fatal(err)
		}
	}
	views := []struct {
		name string
		view func() searchView
	}{{"engine", single.searchView}, {"8 shards", sharded.searchView}, {"live", live.searchView}}
	inserted, deltas, listed, refined := 0, 0, 0, 0
	for _, v := range views {
		for qi, q := range queries {
			for _, k := range []int{1, 5, 17} {
				label := fmt.Sprintf("%s q%d k=%d", v.name, qi, k)
				floors, scored := map[partShape]float64{}, map[partShape]bool{}
				parts := v.view().parts
				for _, p := range parts {
					if p.ann == nil {
						deltas++
					}
				}
				pq, err := core.PrepareQuery(q)
				if err != nil {
					t.Fatal(err)
				}
				ms, _, err := exactSearch(ctx, parts, pq, k, 1)
				if err != nil {
					t.Fatal(err)
				}
				if len(ms) != k {
					t.Fatalf("%s: %d matches", label, len(ms))
				}
				// The same two passes, watched: what pass 1 lists, and what
				// pass 2 scores.
				h, _, err := listAll(ctx, parts, 1, func(i int, dst []bucketShape) ([]bucketShape, Stats, error) {
					return parts[i].floors(ctx, pq, int32(i), dst)
				}, nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range h {
					floors[partShape{c.part, c.id}] = c.floor
				}
				hits, err := rank(ctx, h, k, func(c bucketShape, cut float64) (Match, int, bool) {
					scored[partShape{c.part, c.id}] = true
					return parts[c.part].scoreBounded(int(c.id), pq, cut)
				})
				if err != nil {
					t.Fatal(err)
				}
				for i, hit := range hits {
					if hit.m.ShapeID != ms[i].ShapeID || hit.m.Distance != ms[i].Distance {
						t.Fatalf("%s: the watched passes rank %+v at %d, the exact search %+v", label, hit.m, i, ms[i])
					}
				}
				kth := ms[k-1].Distance
				listed += len(floors)
				refined += len(scored)
				for c, f := range floors {
					if scored[c] != (f <= kth) {
						t.Fatalf("%s: shape %d of part %d, floor %g, scored=%v; the final k-th is %g", label, c.id, c.part, f, scored[c], kth)
					}
				}
				for _, m := range ms {
					if m.ImageID >= 9100 {
						inserted++
					}
				}
			}
		}
	}
	if inserted == 0 || deltas == 0 || 2*refined > listed {
		t.Fatalf("%d matches of inserted images, %d searches over a delta, %d of %d listed shapes refined; the test wants both, and the stop to matter",
			inserted, deltas, refined, listed)
	}
}

// partShape names a shape of a view: its part's index and its id there.
type partShape struct{ part, id int32 }
