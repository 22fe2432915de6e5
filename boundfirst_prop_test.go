package geosir

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/synth"
)

// The bound-first property (DESIGN.md §4.9): seeding the exact search's
// bound from the hash tier changes how much work a request does, never
// its matches. Every Search below — on an Engine and on ShardedEngines —
// is compared byte for byte with the exact scatter over the same parts
// called without a seed and, in ModeAuto, with the fallback decision that
// follows from that unseeded exact phase. The Engine, whose Search is the
// one-part case of the same code, is anchored on a reference that shares
// none of it (engineUnseeded).

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

// mustSeed is the seed pass of a request nobody cancels.
func mustSeed(t testing.TB, parts []part, pq *core.PreparedQuery, buckets [][]int, k int) *hashSeed {
	t.Helper()
	seed, err := scoreSeed(context.Background(), parts, pq, buckets, k)
	if err != nil {
		t.Fatal(err)
	}
	return seed
}

// seeded reports whether a Search of (q, k) over the parts runs under a
// hash-tier seed, so a scenario can assert it exercises the path it is
// there for.
func seeded(t *testing.T, parts []part, q Shape, k int) bool {
	t.Helper()
	pq, err := core.PrepareQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	return mustSeed(t, parts, pq, hashBuckets(parts, pq), k).bound() != nil
}

// assertBoundFirst sweeps modes × exec policies of one (engine, q, k) and
// compares each Search with the unseeded reference over the engine's view.
func assertBoundFirst(t *testing.T, label string, s Searcher, v searchView, q Shape, k int) {
	t.Helper()
	ctx := context.Background()
	want, wst := exactUnseeded(t, label, v.parts, q, k, 1, nil)
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

// assertHandOver runs the exact phase of (q, k) over the parts twice under
// one seed — the frozen parts taking what the seed pass proved about their
// bucket shapes, and every part scoring its bucket again — at GOMAXPROCS 1
// and 2, on one worker and on one per part (the hand-over reads a bound
// siblings publish concurrently): the two cannot be told apart in the
// matches or in Converged, and on the deterministic width-1 walk the
// hand-over never sends more copies to the exact evaluator. (Both modes
// run this phase alike.) It reports
// whether the request was seeded at all, and how many tombstoned shapes of
// frozen parts sit on the query's hash curves.
func assertHandOver(t *testing.T, label string, parts []part, q Shape, k int) (seeded bool, deadInBucket int) {
	t.Helper()
	ctx := context.Background()
	pq, err := core.PrepareQuery(q)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	buckets := hashBuckets(parts, pq)
	quad := parts[0].family().Characteristic(pq.Entry().Poly.Pts)
	for _, p := range parts {
		if fp, ok := p.(*frozenPart); ok {
			for _, id := range fp.e.table.Lookup(quad, 0) {
				if fp.dead[id] {
					deadInBucket++
				}
			}
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, width := range []int{1, len(parts)} {
			l := fmt.Sprintf("%s procs=%d width=%d", label, procs, width)
			on := mustSeed(t, parts, pq, buckets, k)
			seeded = on.bound() != nil
			got, gst, err := exactSeeded(ctx, parts, pq, k, width, on)
			if err != nil {
				t.Fatalf("%s: %v", l, err)
			}
			off := mustSeed(t, parts, pq, buckets, k)
			off.scored = nil
			want, wst, err := exactSeeded(ctx, parts, pq, k, width, off)
			if err != nil {
				t.Fatalf("%s: %v", l, err)
			}
			assertMatchesEqual(t, l+" hand-over", want, got)
			if gst.Converged != wst.Converged {
				t.Fatalf("%s: Converged %v with the hand-over, %v without", l, gst.Converged, wst.Converged)
			}
			if width == 1 && gst.Candidates > wst.Candidates {
				t.Fatalf("%s: %d candidates with the hand-over, %d without", l, gst.Candidates, wst.Candidates)
			}
		}
	}
	return seeded, deadInBucket
}

// annApproxUnshared is the ann:approx answer with no bound shared: every
// frozen part's probed candidates and every delta's shapes scored on
// their own, then merged.
func annApproxUnshared(t *testing.T, label string, parts []part, q Shape, k int) []Match {
	t.Helper()
	pq, err := core.PrepareQuery(q)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	lists := make([][]Match, len(parts))
	for i, p := range parts {
		if lists[i], _, err = p.annApprox(context.Background(), pq, k, nil); err != nil {
			t.Fatalf("%s: part %d: %v", label, i, err)
		}
	}
	return mergeTopK(lists, k)
}

// assertDeltaParts is assertBoundFirst plus the ann:approx path, whose
// deltas scan under the same shared bound: every part consuming and
// publishing it must leave the merged matches where the unshared runs put
// them. It returns how many of the exact matches are shapes inserted live
// (image ids above 9001).
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
			assertHandOver(t, fmt.Sprintf("engine q%d k=%d", qi, k), single.searchView().parts, q, k)
			for _, mode := range []Mode{ModeExact, ModeAuto} {
				label := fmt.Sprintf("engine q%d k=%d %v", qi, k, mode)
				got, err := single.Search(ctx, SearchRequest{Query: q, K: k, Mode: mode})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				assertMatchesEqual(t, label, engineUnseeded(t, label, single, q, k, mode), got.Matches)
				if k == 1 && got.Stats.Iterations != 1 {
					t.Errorf("%s: %d iterations under a k=1 seed, want 1", label, got.Stats.Iterations)
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
				// k = 1 always finds its seed (the source's bucket is not
				// empty); k beyond the base never does.
				// A bucket short of k live shapes hands nothing over either.
				if on, _ := assertHandOver(t, label, v.parts, q, k); (k == 1 && !on) || (k > many && on) {
					t.Fatalf("%s: seeded = %v", label, on)
				}
				assertBoundFirst(t, label, se, v, q, k)
			}
		}

		// Live: the nearest stored shapes of the first query tombstoned (the
		// seed must not count them), and a copy of the second query's source
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
				// The tombstoned shapes sit in a frozen part's bucket: neither
				// the seed pass nor the scan it hands over to may count them.
				if _, dead := assertHandOver(t, label, se.searchView().parts, q, k); qi == 0 && dead == 0 {
					t.Fatalf("%s: no tombstoned shape on the query's hash curves", label)
				}
			}
		}
		got, err := se.Search(ctx, SearchRequest{Query: queries[1], K: 1, Mode: ModeExact})
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Matches) != 1 || got.Matches[0].ImageID != 9002 || got.Stats.Iterations > 1 {
			t.Fatalf("shards=%d: the delta's copy of the query is not the seeded best match: %+v, %d iterations",
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

		// The delta as a part like any other (DESIGN.md §4.12): it scans
		// under the request's bound and publishes into it while holding
		// none, some or all of the merged top-k, a twin of a frozen shape (a
		// tie at distance 0 across parts), and — mid-compaction — as two
		// deltas, sealed and active, at once.
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

// TestSeededSearchIsOneScan pins what a seed makes of an exact search, on
// a 200-image base (the benchmark's size) over a list of queries the hash
// tier seeds: the kernel call Engine.Search makes issues
// no triangle query and is handed no vertex by a range search, reads every
// copy the seed pass has not scored already and none it has, and Search
// reports exactly that call's work.
func TestSeededSearchIsOneScan(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 200-image base")
	}
	ctx := context.Background()
	images := synth.GenerateBase(synth.PaperSpec(0.02, 1))
	eng := buildSingle(t, images)
	base, parts := eng.Base(), eng.searchView().parts
	const k = 5
	tested := 0
	for qi, q := range synth.Queries(rand.New(rand.NewSource(131)), images, 40, 0.01) {
		pq, err := core.PrepareQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		seed := mustSeed(t, parts, pq, hashBuckets(parts, pq), k)
		shared := seed.bound()
		if shared == nil {
			continue
		}
		tested++
		_, st, err := base.MatchPrepared(ctx, pq, k, core.MatchOpts{Shared: shared, Publish: true, Scored: seed.scored[0]}, true)
		if err != nil {
			t.Fatal(err)
		}
		if st.TrianglesQueried != 0 || st.VerticesReported != 0 || st.Iterations != 1 || !st.Converged {
			t.Fatalf("q%d: %d triangle queries, %d vertices reported, %d iterations, converged=%v under a seed",
				qi, st.TrianglesQueried, st.VerticesReported, st.Iterations, st.Converged)
		}
		unscored := base.NumEntries()
		for id := range seed.scored[0] {
			unscored -= len(base.EntriesOfShape(id))
		}
		if st.VerticesCounted != unscored {
			t.Fatalf("q%d: the scan read %d copies, want the %d the seed pass left unscored", qi, st.VerticesCounted, unscored)
		}
		resp, err := eng.Search(ctx, SearchRequest{Query: q, K: k, Mode: ModeExact})
		if err != nil {
			t.Fatal(err)
		}
		if gs := resp.Stats; gs.Iterations != 1 || !gs.Converged || gs.VerticesCounted != st.VerticesCounted || gs.Candidates != st.Candidates {
			t.Fatalf("q%d: Search reports %+v, its kernel call %+v", qi, gs, st)
		}
	}
	if tested < 30 {
		t.Fatalf("only %d of 40 queries were seeded", tested)
	}
}

// TestBoundFirstFitRule pins when a seed is used at all: exactly when the
// buckets held k live shapes — any k of them bound the merged k-th best.
// How wide the seed is plays no part: a seed far above the true k-th best,
// as a poor bucket gives, still makes every part one scan, which proves
// the top k, and one that would open an envelope wider than the climb's
// ε_max does too.
func TestBoundFirstFitRule(t *testing.T) {
	images, queries, _ := equivBase(t)
	se := buildShardedFrom(t, images, 2)
	ctx := context.Background()
	parts := se.searchView().parts
	q := queries[0]
	pq, err := core.PrepareQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	buckets := hashBuckets(parts, pq)
	seed := mustSeed(t, parts, pq, buckets, 1)
	sv := seed.kth.Kth()
	if sb := seed.bound(); math.IsInf(sv, 1) || sb == nil || sb.Load() != sv {
		t.Fatalf("no k=1 seed for a copy of a stored shape (k-th %g)", sv)
	}
	if short := mustSeed(t, parts, pq, buckets, se.NumShapes()+1); short.bound() != nil {
		t.Fatalf("a bucket short of k shapes must not seed")
	}

	want, wst := exactUnseeded(t, "unseeded", parts, q, 1, 1, nil)
	epsMax := math.Inf(1)
	for si := 0; si < se.NumShards(); si++ {
		epsMax = min(epsMax, se.Shard(si).Base().EpsilonMax(pq.Entry().Poly.Perimeter()))
	}
	for _, w := range []float64{sv, 10 * sv, epsMax} {
		wide := &hashSeed{kth: core.NewDistTopK(1)}
		wide.kth.Add(w)
		got, gst, err := exactSeeded(ctx, parts, pq, 1, 1, wide)
		if err != nil {
			t.Fatal(err)
		}
		assertMatchesEqual(t, fmt.Sprintf("seed %g", w), want, got)
		if gst.Iterations != 1 || !gst.Converged || gst.VerticesCounted > wst.VerticesCounted {
			t.Fatalf("seed %g: not one proven scan: %+v (unseeded %+v)", w, gst, wst)
		}
	}
}

// TestBoundFirstStaleSeed drives the one way a seed can go stale: a
// delete reaching the active delta between the seed pass and the delta's
// scan. The seed then undercuts the k-th best of what is left; the short
// answer gives it away and the search runs again unseeded.
func TestBoundFirstStaleSeed(t *testing.T) {
	images, queries, _ := equivBase(t)
	ctx := context.Background()
	for _, shards := range []int{1, 7} {
		se := buildShardedFrom(t, images, shards)
		enableIngest(t, se, t.TempDir(), IngestConfig{})
		q := queries[0]
		if err := se.InsertImage(ctx, 9003, []Shape{q.Clone()}); err != nil {
			t.Fatal(err)
		}
		parts := se.searchView().parts
		pq, err := core.PrepareQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		seed := mustSeed(t, parts, pq, hashBuckets(parts, pq), 1)
		if seed.kth.Kth() != 0 {
			t.Fatalf("shards=%d: seed %g, want the inserted copy at 0", shards, seed.kth.Kth())
		}
		if err := se.DeleteImage(ctx, 9003); err != nil {
			t.Fatal(err)
		}
		want, _ := exactUnseeded(t, "after delete", parts, q, 1, 1, nil)
		got, st, err := exactSeeded(ctx, parts, pq, 1, 1, seed)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != 1 || want[0].ImageID == 9003 {
			t.Fatalf("shards=%d: reference after the delete: %+v", shards, want)
		}
		assertMatchesEqual(t, fmt.Sprintf("shards=%d stale seed", shards), want, got)
		if !st.Converged {
			t.Fatalf("shards=%d: rerun did not converge: %+v", shards, st)
		}
	}
}
