package geosir

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/sched"
	"repro/internal/synth"
)

// The floor-order property (DESIGN.md §4.9, "The exact search is two
// passes"): the order the exact search scores shapes in — one heap of
// floors across the whole view — and where it stops change how much work a
// request does, never its matches. Every Search below — on an Engine and on
// ShardedEngines, in ModeExact and in ModeAuto, which answers what
// ModeExact answers — is compared byte for byte with the exact answer
// worked out the long way over the same parts (exactUnseeded). The Engine,
// whose Search is the one-part case of the same code, is anchored on a
// reference that shares none of it (engineUnseeded), in ModeApproximate
// too.

// engineUnseeded answers (q, k, mode) from nothing Search runs: in
// ModeApproximate an exhaustive, unbounded ranking of the hash table's
// bucket, in every other mode the unseeded climb of Base().Match.
func engineUnseeded(t *testing.T, label string, e *Engine, q Shape, k int, mode Mode) []Match {
	t.Helper()
	base := e.Base()
	if mode != ModeApproximate {
		ms, _, err := base.Match(q, k)
		if err != nil {
			t.Fatalf("%s: unseeded: %v", label, err)
		}
		exact := make([]Match, len(ms))
		for i, m := range ms {
			exact[i] = Match{ShapeID: m.ShapeID, ImageID: base.Shape(m.ShapeID).Image, Distance: m.DistVertex, ContinuousDistance: m.DistContinuous}
		}
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
	sortMatches(approx)
	return approx[:min(k, len(approx))]
}

// assertBoundFirst sweeps modes × exec policies of one (engine, q, k) and
// compares each Search with the reference over the engine's view: ModeAuto
// as ModeExact.
func assertBoundFirst(t *testing.T, label string, s Searcher, v searchView, q Shape, k int) {
	t.Helper()
	ctx := context.Background()
	want, _ := exactUnseeded(t, label, v.parts, q, k, math.Inf(1))
	for _, mode := range []Mode{ModeExact, ModeAuto} {
		for _, exec := range []ExecPolicy{ExecSequential, ExecFanout} {
			got, err := s.Search(ctx, SearchRequest{Query: q, K: k, Mode: mode, Exec: exec})
			if err != nil {
				t.Fatalf("%s %v %v: %v", label, mode, exec, err)
			}
			assertMatchesEqual(t, fmt.Sprintf("%s %v %v", label, mode, exec), want, got.Matches)
		}
	}
}

// liveIn counts the live shapes of a view's parts, and their tombstoned
// ones.
func liveIn(parts []part) (live, dead int) {
	for i := range parts {
		live, dead = live+parts[i].liveShapes(), dead+len(parts[i].dead)
	}
	return live, dead
}

// assertTwoPasses runs the exact search of (q, k) over the parts at
// GOMAXPROCS 1 and 2, on one worker and on one per part: the matches and
// Converged are the reference's, pass 1 lists every live shape once — no
// tombstoned one — and the work is the same at every width (VerticesCounted,
// BlockReads, and the copies the query's counter sees reach the exact
// evaluator): pass 2 runs on the request's goroutine over a total order.
// It reports how many tombstoned shapes the parts hold.
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
// every shape the parts list — a frozen part's candidates, probed with a
// signature of its own, a delta's every shape — scored under +Inf,
// ranked, cut to k.
func annApproxUnshared(t *testing.T, label string, parts []part, q Shape, k int) []Match {
	t.Helper()
	pq, err := core.PrepareQuery(q)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	var ms []Match
	for i, p := range parts {
		var sig []uint64
		if p.ann != nil {
			sig = p.ann().Signature(pq.Entry().Poly)
		}
		listed, _, err := p.annFloors(context.Background(), pq, sig, k, int32(i), nil)
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
			for _, mode := range []Mode{ModeExact, ModeAuto, ModeApproximate} {
				label := fmt.Sprintf("engine q%d k=%d %v", qi, k, mode)
				got, err := single.Search(ctx, SearchRequest{Query: q, K: k, Mode: mode})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				assertMatchesEqual(t, label, engineUnseeded(t, label, single, q, k, mode), got.Matches)
				if mode != ModeApproximate && (got.Stats.Iterations != 1 || got.Stats.FinalEpsilon != 0) {
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
			for _, mode := range []Mode{ModeExact, ModeAuto, ModeApproximate} {
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
// mode as an engine rebuilt over the images as of capture, compared on
// image, distance and continuous distance (global ids shift across a
// rebuild), and the engine's own searches move on.
func TestSearchViewIsASnapshot(t *testing.T) {
	images, queries, sketch := equivBase(t)
	ctx := context.Background()
	q := queries[0]
	const k = 3
	asOfCapture := append(images[1:len(images):len(images)],
		synth.Image{ID: 9003, Shapes: []Shape{q.Clone()}},
		synth.Image{ID: 9004, Shapes: []Shape{queries[1].Clone(), synth.Distort(rand.New(rand.NewSource(7)), q, 0.002)}})
	rebuilt := buildSingle(t, asOfCapture)
	reqs := []SearchRequest{{Query: q, K: k, Mode: ModeExact}, {Query: q, K: k, Mode: ModeAuto},
		{Query: queries[1], K: k, Mode: ModeApproximate},
		{Sketch: sketch, K: k, Mode: ModeSketch}}
	want := make([]*SearchResponse, len(reqs))
	for i, req := range reqs {
		want[i] = mustSearch(t, rebuilt, req)
	}
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
		se := buildShardedFrom(t, images, shards)
		enableIngest(t, se, t.TempDir(), IngestConfig{})
		if err := se.DeleteImage(ctx, images[0].ID); err != nil {
			t.Fatal(err)
		}
		for _, im := range append([]synth.Image{{ID: 9002, Shapes: []Shape{q.Clone()}}}, asOfCapture[len(asOfCapture)-2:]...) {
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
				if !same(got.Matches, want[i].Matches) || !reflect.DeepEqual(got.SketchMatches, want[i].SketchMatches) {
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
		if got := mustSearch(t, se, reqs[0]).Matches; same(got, want[0].Matches) || got[0].ImageID != 9005 {
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
