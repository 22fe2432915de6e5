package geosir

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/synth"
)

// The floor-order property (DESIGN.md §4.9, "The exact search is two
// passes"): the order the exact search scores shapes in — one heap of
// floors across the whole view — and where it stops change how much work a
// request does, never its matches. Every Search below — on an Engine and on
// ShardedEngines — is compared byte for byte with the exact answer worked
// out the long way over the same parts (exactUnseeded) and, in ModeAuto,
// with the fallback decision that follows from it. The Engine, whose Search
// is the one-part case of the same code, is anchored on a reference that
// shares none of it (engineUnseeded).

// engineUnseeded answers (q, k, mode) from nothing Search runs: the
// unseeded climb of Base().Match for the exact phase, and for the hashing
// stage an exhaustive, unbounded ranking of the hash table's bucket.
func engineUnseeded(t *testing.T, label string, e *Engine, q Shape, k int, mode Mode) []Match {
	t.Helper()
	base := e.Base()
	ms, st, err := base.Match(q, k)
	if err != nil {
		t.Fatalf("%s: unseeded: %v", label, err)
	}
	exact := make([]Match, len(ms))
	for i, m := range ms {
		exact[i] = Match{ShapeID: m.ShapeID, ImageID: base.Shape(m.ShapeID).Image, Distance: m.DistVertex, ContinuousDistance: m.DistContinuous}
	}
	if mode == ModeExact || (st.Converged && len(exact) > 0 && exact[0].Distance <= e.DB().Tau()) {
		return exact
	}
	pq, err := core.PrepareQuery(q)
	if err != nil {
		t.Fatalf("%s: hashing: %v", label, err)
	}
	quad := e.family.Characteristic(pq.Entry().Poly.Pts)
	ids := e.HashTable().Lookup(quad, 0)
	if len(ids) == 0 {
		ids = e.HashTable().Lookup(quad, 1)
	}
	var approx []Match
	for _, sid := range ids {
		d, err := base.ShapeDistancePrepared(sid, pq)
		if err != nil {
			t.Fatalf("%s: hashing: %v", label, err)
		}
		approx = append(approx, Match{ShapeID: sid, ImageID: base.Shape(sid).Image, Distance: d, Approximate: true})
	}
	if len(approx) == 0 {
		return exact
	}
	sortMatches(approx)
	return approx[:min(k, len(approx))]
}

// assertBoundFirst sweeps modes × exec policies of one (engine, q, k) and
// compares each Search with the reference over the engine's view.
func assertBoundFirst(t *testing.T, label string, s Searcher, v searchView, q Shape, k int) {
	t.Helper()
	ctx := context.Background()
	want, wst := exactUnseeded(t, label, v.parts, q, k, math.Inf(1))
	wantAuto := autoFrom(t, label, v, q, k, want, wst)
	for _, mode := range []Mode{ModeExact, ModeAuto} {
		for _, exec := range []ExecPolicy{ExecSequential, ExecFanout} {
			got, err := s.Search(ctx, SearchRequest{Query: q, K: k, Mode: mode, Exec: exec})
			if err != nil {
				t.Fatalf("%s %v %v: %v", label, mode, exec, err)
			}
			w := want
			if mode == ModeAuto {
				w = wantAuto
			}
			assertMatchesEqual(t, fmt.Sprintf("%s %v %v", label, mode, exec), w, got.Matches)
		}
	}
}

// liveIn counts the live shapes of a view's parts, and the tombstoned
// shapes of its frozen parts.
func liveIn(parts []part) (live, dead int) {
	for _, p := range parts {
		switch p := p.(type) {
		case *frozenPart:
			live, dead = live+p.liveShapes(), dead+len(p.dead)
		case *deltaPart:
			live += p.d.NumShapes()
		}
	}
	return live, dead
}

// assertTwoPasses runs the exact search of (q, k) over the parts at
// GOMAXPROCS 1 and 2, on one worker and on one per part: the matches and
// Converged are the reference's, pass 1 lists every live shape once — no
// tombstoned one — and the work is the same at every width (VerticesCounted,
// BlockReads, and the copies the query's counter sees reach the exact
// evaluator): pass 2 runs on the request's goroutine over a total order.
// It reports how many tombstoned shapes the frozen parts hold.
func assertTwoPasses(t *testing.T, label string, parts []part, q Shape, k int) int {
	t.Helper()
	ctx := context.Background()
	want, wst := exactUnseeded(t, label, parts, q, k, math.Inf(1))
	live, dead := liveIn(parts)
	var first Stats
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, width := range []int{1, len(parts)} {
			l := fmt.Sprintf("%s procs=%d width=%d", label, procs, width)
			pq, err := core.PrepareQuery(q)
			if err != nil {
				t.Fatalf("%s: %v", l, err)
			}
			var evaluated atomic.Int64
			pq.AttachEvalCounter(&evaluated)
			got, st, err := exactSearch(ctx, parts, pq, k, width)
			if err != nil {
				t.Fatalf("%s: %v", l, err)
			}
			assertMatchesEqual(t, l, want, got)
			if st.Converged != wst.Converged || st.Converged != (k <= live) {
				t.Fatalf("%s: Converged %v, reference %v, %d live shapes", l, st.Converged, wst.Converged, live)
			}
			st.Candidates = int(evaluated.Load())
			if first.Iterations == 0 {
				first = st
			} else if st != first {
				t.Fatalf("%s: stats %+v, at width 1 on one core %+v", l, st, first)
			}
		}
	}
	return dead
}

// annApproxUnshared is the ann:approx answer worked out the long way:
// every shape the parts list — a frozen part's probed candidates, a
// delta's every shape — scored under +Inf, ranked, cut to k.
func annApproxUnshared(t *testing.T, label string, parts []part, q Shape, k int) []Match {
	t.Helper()
	pq, err := core.PrepareQuery(q)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	var ms []Match
	for i, p := range parts {
		listed, _, err := p.annFloors(context.Background(), pq, k, int32(i))
		if err != nil {
			t.Fatalf("%s: part %d: %v", label, i, err)
		}
		for _, c := range listed {
			if m, _, ok := p.scoreBounded(int(c.id), pq, math.Inf(1)); ok {
				ms = append(ms, m)
			}
		}
	}
	sortMatches(ms)
	return ms[:min(k, len(ms))]
}

// assertDeltaParts is assertBoundFirst plus the ann:approx path, whose
// deltas join the same heap: the matches must be the ones scoring every
// listed shape puts first. It returns how many of the exact matches are
// shapes inserted live (image ids above 9001).
func assertDeltaParts(t *testing.T, label string, se *ShardedEngine, q Shape, k int) int {
	t.Helper()
	ctx := context.Background()
	v := se.searchView()
	assertBoundFirst(t, label, se, v, q, k)
	want := annApproxUnshared(t, label, v.parts, q, k)
	for _, mode := range []Mode{ModeApproximate, ModeAuto} {
		for _, exec := range []ExecPolicy{ExecSequential, ExecFanout} {
			got, err := se.Search(ctx, SearchRequest{Query: q, K: k, Mode: mode, Ann: AnnApprox, Exec: exec})
			if err != nil {
				t.Fatalf("%s ann:approx %v %v: %v", label, mode, exec, err)
			}
			assertMatchesEqual(t, fmt.Sprintf("%s ann:approx %v %v", label, mode, exec), want, got.Matches)
		}
	}
	got, err := se.Search(ctx, SearchRequest{Query: q, K: k, Mode: ModeExact})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	inserted := 0
	for _, m := range got.Matches {
		if m.ImageID > 9001 {
			inserted++
		}
	}
	return inserted
}

func TestBoundFirstEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("property soak")
	}
	ctx := context.Background()
	images := synth.GenerateBase(synth.PaperSpec(0.003, 83))
	// A shape stored twice, in two images: every query ties the pair, and
	// a query copied from it ties them at the k-th slot for k = 1.
	twin := synth.Image{ID: 9001, Shapes: []Shape{images[0].Shapes[0].Clone()}}
	images = append(images, twin)
	rng := rand.New(rand.NewSource(89))
	queries := synth.Queries(rng, images[:len(images)-1], 4, 0.01)
	queries = append(queries, synth.Distort(rng, twin.Shapes[0], 0.005), twin.Shapes[0])
	many := 0
	for _, im := range images {
		many += len(im.Shapes)
	}
	ks := []int{1, 5, many + 3}

	// The Engine is one more row of the table: the same sweep over its
	// one-part view, and on top of it the reference that shares no code
	// with Search.
	single := buildSingle(t, images)
	for qi, q := range queries {
		for _, k := range ks {
			assertBoundFirst(t, fmt.Sprintf("engine q%d k=%d", qi, k), single, single.searchView(), q, k)
			assertTwoPasses(t, fmt.Sprintf("engine q%d k=%d", qi, k), single.searchView().parts, q, k)
			for _, mode := range []Mode{ModeExact, ModeAuto} {
				label := fmt.Sprintf("engine q%d k=%d %v", qi, k, mode)
				got, err := single.Search(ctx, SearchRequest{Query: q, K: k, Mode: mode})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				assertMatchesEqual(t, label, engineUnseeded(t, label, single, q, k, mode), got.Matches)
				if got.Stats.Iterations != 1 || got.Stats.FinalEpsilon != 0 {
					t.Errorf("%s: %d iterations at width %g, want the exact search's 1 at 0", label, got.Stats.Iterations, got.Stats.FinalEpsilon)
				}
			}
		}
	}

	// The distance field in front of every bounded evaluation must say
	// nothing where it knows nothing: at α = 0.6 stored copies are
	// normalized about pairs as short as 0.4 of the diameter and leave the
	// lune — the sliver's far corner lands at x ≈ 2, outside the field's
	// box — and the sliver's twin ties it at the k-th slot for k = 1.
	wideOpts := DefaultOptions()
	wideOpts.Alpha = 0.6
	wide := New(wideOpts)
	sliver := geom.NewPolygon(geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(5, 1))
	wideImages := append(synth.GenerateBase(synth.PaperSpec(0.0004, 97)),
		synth.Image{ID: 9001, Shapes: []Shape{sliver}}, synth.Image{ID: 9002, Shapes: []Shape{sliver.Clone()}})
	for _, im := range wideImages {
		if err := wide.AddImage(im.ID, im.Shapes); err != nil {
			t.Fatalf("wide AddImage(%d): %v", im.ID, err)
		}
	}
	if err := wide.Freeze(); err != nil {
		t.Fatal(err)
	}
	wrng := rand.New(rand.NewSource(101))
	for qi, q := range append(synth.Queries(wrng, wideImages[:len(wideImages)-2], 2, 0.01), sliver, synth.Distort(wrng, sliver, 0.01)) {
		for _, k := range []int{1, 4} {
			assertBoundFirst(t, fmt.Sprintf("wide-alpha engine q%d k=%d", qi, k), wide, wide.searchView(), q, k)
			for _, mode := range []Mode{ModeExact, ModeAuto} {
				label := fmt.Sprintf("wide-alpha engine q%d k=%d %v", qi, k, mode)
				got, err := wide.Search(ctx, SearchRequest{Query: q, K: k, Mode: mode})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				assertMatchesEqual(t, label, engineUnseeded(t, label, wide, q, k, mode), got.Matches)
			}
		}
	}

	for _, shards := range []int{1, 2, 7, 8} {
		se := buildShardedFrom(t, images, shards)
		for qi, q := range queries {
			for _, k := range ks {
				label := fmt.Sprintf("shards=%d q%d k=%d", shards, qi, k)
				v := se.searchView()
				assertTwoPasses(t, label, v.parts, q, k)
				assertBoundFirst(t, label, se, v, q, k)
			}
		}

		// Live: the nearest stored shapes of the first query tombstoned (pass
		// 1 must not list them), and a copy of the second query's source
		// inserted, so the delta holds its best match.
		var midCompaction func()
		enableIngest(t, se, t.TempDir(), IngestConfig{CrashStage: func(stage string) error {
			if stage == "built" && midCompaction != nil {
				midCompaction()
			}
			return nil
		}})
		near, err := single.Search(ctx, SearchRequest{Query: queries[0], K: 3, Mode: ModeExact})
		if err != nil {
			t.Fatal(err)
		}
		gone := map[int]bool{}
		for _, m := range near.Matches {
			if !gone[m.ImageID] {
				gone[m.ImageID] = true
				if err := se.DeleteImage(ctx, m.ImageID); err != nil {
					t.Fatalf("shards=%d: DeleteImage(%d): %v", shards, m.ImageID, err)
				}
			}
		}
		if err := se.InsertImage(ctx, 9002, []Shape{queries[1].Clone()}); err != nil {
			t.Fatalf("shards=%d: InsertImage: %v", shards, err)
		}
		for qi, q := range queries[:2] {
			for _, k := range ks {
				label := fmt.Sprintf("shards=%d live q%d k=%d", shards, qi, k)
				assertBoundFirst(t, label, se, se.searchView(), q, k)
				if dead := assertTwoPasses(t, label, se.searchView().parts, q, k); dead == 0 {
					t.Fatalf("%s: no tombstoned shape in the view", label)
				}
			}
		}
		got, err := se.Search(ctx, SearchRequest{Query: queries[1], K: 1, Mode: ModeExact})
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Matches) != 1 || got.Matches[0].ImageID != 9002 || got.Stats.Iterations > 1 {
			t.Fatalf("shards=%d: the delta's copy of the query is not the best match: %+v, %d iterations",
				shards, got.Matches, got.Stats.Iterations)
		}
		got, err = se.Search(ctx, SearchRequest{Query: queries[0], K: 5, Mode: ModeExact})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range got.Matches {
			if gone[m.ImageID] {
				t.Fatalf("shards=%d: tombstoned image %d surfaced", shards, m.ImageID)
			}
		}

		// The delta as a part like any other (DESIGN.md §4.12): its shapes
		// join the one heap of the exact search and of the ann:approx
		// stage, while it holds none, some or all of the top-k, a twin of a
		// frozen shape (a tie at distance 0 across parts), and —
		// mid-compaction — as two deltas, sealed and active, at once.
		var frozenTwin Shape
		for _, im := range images[1 : len(images)-1] {
			if !gone[im.ID] {
				frozenTwin = im.Shapes[0]
				break
			}
		}
		crowd := make([]Shape, 6)
		for i := range crowd {
			crowd[i] = synth.Distort(rng, queries[2], 0.001)
		}
		if err := se.InsertImage(ctx, 9003, []Shape{frozenTwin.Clone()}); err != nil {
			t.Fatalf("shards=%d: InsertImage: %v", shards, err)
		}
		if err := se.InsertImage(ctx, 9004, crowd); err != nil {
			t.Fatalf("shards=%d: InsertImage: %v", shards, err)
		}
		held := map[string]bool{}
		sweep := func(stage string) {
			for qi, q := range append(queries[:4:4], frozenTwin) {
				for _, k := range []int{1, 5} {
					n := assertDeltaParts(t, fmt.Sprintf("shards=%d %s q%d k=%d", shards, stage, qi, k), se, q, k)
					switch {
					case k == 1:
					case n == 0:
						held["none"] = true
					case n == k:
						held["all"] = true
					default:
						held["some"] = true
					}
				}
			}
			assertDeltaParts(t, fmt.Sprintf("shards=%d %s k=many", shards, stage), se, queries[1], many+12)
		}
		sweep("one delta")
		got, err = se.Search(ctx, SearchRequest{Query: frozenTwin, K: 1, Mode: ModeExact})
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Matches) != 1 || got.Matches[0].Distance != 0 || got.Matches[0].ImageID == 9003 {
			t.Fatalf("shards=%d: a frozen shape and its twin in the delta tie at 0; the frozen one has the lower id: %+v", shards, got.Matches)
		}
		if !held["none"] || !held["some"] || !held["all"] {
			t.Fatalf("shards=%d: the delta held %v of the top-k, want none, some and all", shards, held)
		}
		midCompaction = func() {
			midCompaction = nil
			if err := se.InsertImage(ctx, 9005, []Shape{queries[3].Clone(), synth.Distort(rng, queries[0], 0.002)}); err != nil {
				t.Errorf("shards=%d: InsertImage mid-compaction: %v", shards, err)
			}
			if st := se.IngestStats(); st.SealedShapes == 0 || st.DeltaShapes == 0 {
				t.Errorf("shards=%d: mid-compaction wants a sealed and an active delta: %+v", shards, st)
			}
			sweep("sealed+active")
		}
		if err := se.Compact(); err != nil {
			t.Fatalf("shards=%d: Compact: %v", shards, err)
		}
		if midCompaction != nil {
			t.Fatalf("shards=%d: the mid-compaction sweep never ran", shards)
		}
		sweep("compacted")
	}
}

// TestSeededSearchIsOneScan pins what an exact search's stats say, on a
// 200-image base (the benchmark's size) over 40 queries: one iteration at
// width 0, Converged; VerticesCounted every stored copy, each floored once;
// BlockReads what the unbounded bounded scan charges — every copy once,
// plus the re-reads of the k matches; and Candidates every copy that
// reached the exact evaluator, as the query's own counter sees it in a bare
// run of the two passes. The matches are the unbounded scan's.
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
		scan, sst, err := base.MatchPrepared(ctx, pq, k, core.MatchOpts{}, true)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]Match, len(scan))
		for i, m := range scan {
			want[i] = Match{ShapeID: m.ShapeID, ImageID: base.Shape(m.ShapeID).Image, Distance: m.DistVertex, ContinuousDistance: m.DistContinuous}
		}
		resp, err := eng.Search(ctx, SearchRequest{Query: q, K: k, Mode: ModeExact})
		if err != nil {
			t.Fatal(err)
		}
		assertMatchesEqual(t, fmt.Sprintf("q%d", qi), want, resp.Matches)
		gs := resp.Stats
		if gs.Iterations != 1 || gs.FinalEpsilon != 0 || !gs.Converged || gs.VerticesCounted != base.NumEntries() ||
			gs.BlockReads != sst.BlocksRead || gs.Candidates != passes || gs.Candidates < k {
			t.Fatalf("q%d: Search reports %+v; want 1 iteration at 0, converged, %d copies floored, the unbounded scan's %d blocks and the bare passes' %d candidates",
				qi, gs, base.NumEntries(), sst.BlocksRead, passes)
		}
	}
}

// TestBoundFirstFitRule pins when the exact answer is proven: exactly when
// k fits the live shapes pass 1 lists, tombstoned ones not counted. On a
// live view with an image deleted from a frozen shard and one in the
// delta, k = live is Converged and returns every live shape; k = live + 1
// returns the same list unconverged, and ModeAuto then falls back to
// hashing.
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
	if auto := mustSearch(t, se, SearchRequest{Query: q, K: n + 1}); !auto.Stats.UsedHashing {
		t.Fatalf("k past the live shapes: ModeAuto did not fall back: %+v", auto.Stats)
	}
}

// hookedPart runs its hooks after the listing of pass 1 and after each
// score of pass 2.
type hookedPart struct {
	part
	afterFloors func(shapes []bucketShape)
	afterScore  func(id int)
}

func (p hookedPart) floors(ctx context.Context, pq *core.PreparedQuery, pi int32) ([]bucketShape, Stats, error) {
	shapes, st, err := p.part.floors(ctx, pq, pi)
	if p.afterFloors != nil {
		p.afterFloors(shapes)
	}
	return shapes, st, err
}

func (p hookedPart) scoreBounded(id int, pq *core.PreparedQuery, cutoff float64) (Match, int, bool) {
	m, entry, ok := p.part.scoreBounded(id, pq, cutoff)
	if p.afterScore != nil {
		p.afterScore(id)
	}
	return m, entry, ok
}

// TestBoundFirstStaleSeed drives a delete into the active delta while an
// exact search is under way — between its two passes, and after the first
// score of its refine pass — for a shape pass 1 listed: a copy of the query
// itself, the best match there is. Either way the answer is a rebuilt
// engine's over the images before the delete or over those after it
// (compared on image, distance and continuous distance: global ids shift
// across a rebuild), and Converged.
func TestBoundFirstStaleSeed(t *testing.T) {
	images, queries, _ := equivBase(t)
	ctx := context.Background()
	q := queries[0]
	const k = 3
	before := mustSearch(t, buildSingle(t, append(images[:len(images):len(images)], synth.Image{ID: 9003, Shapes: []Shape{q.Clone()}})),
		SearchRequest{Query: q, K: k, Mode: ModeExact}).Matches
	after := mustSearch(t, buildSingle(t, images), SearchRequest{Query: q, K: k, Mode: ModeExact}).Matches
	same := func(got, want []Match) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i].ImageID != want[i].ImageID || got[i].Distance != want[i].Distance || got[i].ContinuousDistance != want[i].ContinuousDistance {
				return false
			}
		}
		return true
	}
	for _, shards := range []int{1, 7} {
		for _, when := range []string{"between the passes", "during the refine pass"} {
			label := fmt.Sprintf("shards=%d delete %s", shards, when)
			se := buildShardedFrom(t, images, shards)
			enableIngest(t, se, t.TempDir(), IngestConfig{})
			if err := se.InsertImage(ctx, 9003, []Shape{q.Clone()}); err != nil {
				t.Fatal(err)
			}
			deleted := false
			remove := func() {
				if !deleted {
					deleted = true
					if err := se.DeleteImage(ctx, 9003); err != nil {
						t.Errorf("%s: DeleteImage: %v", label, err)
					}
				}
			}
			parts := se.searchView().parts
			for i, p := range parts {
				if _, live := p.(*deltaPart); live {
					if when == "between the passes" {
						parts[i] = hookedPart{part: p, afterFloors: func([]bucketShape) { remove() }}
					} else {
						parts[i] = hookedPart{part: p, afterScore: func(int) { remove() }}
					}
				}
			}
			pq, err := core.PrepareQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			got, st, err := exactSearch(ctx, parts, pq, k, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !deleted || !st.Converged {
				t.Fatalf("%s: deleted=%v converged=%v", label, deleted, st.Converged)
			}
			if !same(got, before) && !same(got, after) {
				t.Fatalf("%s: %+v is neither the answer before the delete %+v nor after it %+v", label, got, before, after)
			}
		}
	}
}

// TestFloorOrderIsOptimal pins the stop rule of the exact search's refine
// pass (DESIGN.md §4.9, "The exact search is two passes"): the shapes it
// scores are exactly those whose floor is at most the final k-th best. No
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
				for i, p := range parts {
					if _, ok := p.(*deltaPart); ok {
						deltas++
					}
					parts[i] = hookedPart{part: p,
						afterFloors: func(shapes []bucketShape) {
							for _, c := range shapes {
								floors[partShape{c.part, c.id}] = c.floor
							}
						},
						afterScore: func(id int) { scored[partShape{int32(i), int32(id)}] = true },
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
