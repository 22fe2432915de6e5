package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/envelope"
	"repro/internal/geom"
	"repro/internal/shapeindex"
	"repro/internal/synth"
)

// unitSquare is the shared oracle target of the measure edge-case tests:
// any valid shape works, the degenerate inputs are always on the
// measured side.
func unitSquare() geom.Poly {
	return geom.NewPolygon(geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1), geom.Pt(0, 1))
}

// TestBoundedMeasuresMatchUnbounded pins the contract the whole pruning
// kernel rests on: with cutoff +Inf the bounded evaluators return the
// exact unbounded value bit for bit, with the cutoff exactly at the
// value they still complete (ties survive the strict test), and with a
// cutoff strictly below they abort.
func TestBoundedMeasuresMatchUnbounded(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	square := unitSquare()
	oracle := NewBoundaryDist(square)
	for trial := 0; trial < 50; trial++ {
		pts := make([]geom.Point, 3+rng.Intn(8))
		for i := range pts {
			pts[i] = geom.Pt(rng.Float64()*6-3, rng.Float64()*6-3)
		}
		a := geom.Poly{Pts: pts, Closed: false}

		want := AvgMinDistVertices(a, oracle)
		got, ok := AvgMinDistVerticesBounded(a, oracle, math.Inf(1))
		if !ok || got != want {
			t.Fatalf("trial %d: unbounded cutoff: got (%v, %v), want (%v, true)", trial, got, ok, want)
		}
		if got, ok := AvgMinDistVerticesBounded(a, oracle, want); !ok || got != want {
			t.Fatalf("trial %d: cutoff==value must not abort: got (%v, %v)", trial, got, ok)
		}
		if want > 0 {
			if _, ok := AvgMinDistVerticesBounded(a, oracle, want*(1-1e-9)); ok {
				t.Fatalf("trial %d: cutoff below value %v did not abort", trial, want)
			}
		}
	}
}

// TestBoundedMeasureEdgeCases drives the evaluators through the
// degenerate inputs the validation layer normally filters out: empty
// vertex sets, single-vertex shapes and zero-length chains.
func TestBoundedMeasureEdgeCases(t *testing.T) {
	oracle := NewBoundaryDist(unitSquare())

	empty := geom.Poly{}
	if d, ok := AvgMinDistVerticesBounded(empty, oracle, 0.5); !ok || !math.IsInf(d, 1) {
		t.Fatalf("empty poly: got (%v, %v), want (+Inf, true)", d, ok)
	}
	if d := AvgMinDistVertices(empty, oracle); !math.IsInf(d, 1) {
		t.Fatalf("empty poly unbounded: got %v, want +Inf", d)
	}

	// A single-vertex "shape" averages to its vertex's distance.
	single := geom.Poly{Pts: []geom.Point{geom.Pt(3, 0.5)}}
	wantD := oracle.Dist(geom.Pt(3, 0.5))
	if d := AvgMinDistVertices(single, oracle); d != wantD {
		t.Fatalf("single vertex: got %v, want %v", d, wantD)
	}

	// A zero-length chain (two identical vertices) averages to that
	// point's distance.
	zero := geom.Poly{Pts: []geom.Point{geom.Pt(2, 2), geom.Pt(2, 2)}}
	wantZ := oracle.Dist(geom.Pt(2, 2))
	if d := AvgMinDistVertices(zero, oracle); d != wantZ {
		t.Fatalf("zero-length chain: got %v, want %v", d, wantZ)
	}
}

// TestNormalizedCopiesPinDiameter pins the premise of the envelope-free scans
// (DESIGN.md §4.9, the pinned-vertex observation): every stored copy, at
// any α, and every canonical query has a vertex on (0,0) and one on (1,0).
// So every entry has a vertex on the query's boundary — it is inside every
// ε-envelope, which is what lets every search mark the whole base
// without a range search — and any two normalized shapes'
// bounding boxes and enclosing balls intersect, which is why no geometric
// lower bound is consulted: it is identically 0.
func TestNormalizedCopiesPinDiameter(t *testing.T) {
	pinned := func(label string, e Entry) {
		t.Helper()
		for vi, want := range map[int]geom.Point{e.DiamI: geom.Pt(0, 0), e.DiamJ: geom.Pt(1, 0)} {
			if got := e.Poly.Pts[vi]; math.Hypot(got.X-want.X, got.Y-want.Y) > 1e-12 {
				t.Fatalf("%s: vertex %d at %v, want %v", label, vi, got, want)
			}
		}
	}
	rng := rand.New(rand.NewSource(23))
	shapes := []geom.Poly{geom.NewPolyline(geom.Pt(3, 4), geom.Pt(-2, 9)), unitSquare()}
	for i := 0; i < 60; i++ {
		p := synth.Prototype(rng, i, 4+rng.Intn(30), i%3 == 0)
		// Image coordinates: somewhere, at some scale, at some angle.
		shapes = append(shapes, p.Transform(geom.Transform{S: 1 + rng.Float64()*500, Theta: rng.Float64() * 6, T: geom.Pt(rng.Float64()*900, rng.Float64()*900)}))
	}
	copies := 0
	for si, p := range shapes {
		qe, err := NormalizeCanonical(p)
		if err != nil {
			t.Fatalf("shape %d: %v", si, err)
		}
		pinned(fmt.Sprintf("shape %d canonical", si), qe)
		for _, alpha := range []float64{0, 0.1, 0.3} {
			entries, err := Normalize(p, alpha)
			if err != nil {
				t.Fatalf("shape %d α=%v: %v", si, alpha, err)
			}
			for _, e := range entries {
				pinned(fmt.Sprintf("shape %d α=%v copy %d", si, alpha, e.Copy), e)
			}
			copies += len(entries)
		}
	}
	if copies < 6*len(shapes) {
		t.Fatalf("only %d copies of %d shapes checked", copies, len(shapes))
	}
}

// TestShapeDistancePreparedBounded checks the bounded shape-level
// evaluation against the exhaustive one: same value whenever the true
// distance is within the cutoff (including exactly at it), a definite
// rejection otherwise, and the same range-error contract.
func TestShapeDistancePreparedBounded(t *testing.T) {
	b := NewBase(DefaultOptions())
	images := synth.GenerateBase(synth.BaseSpec{
		Images: 12, MeanShapes: 2, MeanVertices: 12, Prototypes: 5,
		Distortion: 0.03, OpenFraction: 0.25, Seed: 3,
	})
	rng := rand.New(rand.NewSource(5))
	for _, img := range images {
		b = mustAppend(t, b, img.ID, img.Shapes...)
	}
	q := synth.Distort(rng, b.Shape(0).Poly, 0.02)
	pq, err := PrepareQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.ShapeDistancePreparedBounded(-1, pq, 1); err == nil {
		t.Fatal("negative shape id must error")
	}
	if _, _, err := b.ShapeDistancePreparedBounded(b.NumShapes(), pq, 1); err == nil {
		t.Fatal("out-of-range shape id must error")
	}
	for sid := 0; sid < b.NumShapes(); sid++ {
		want, err := b.ShapeDistancePrepared(sid, pq)
		if err != nil {
			t.Fatal(err)
		}
		got, ok, err := b.ShapeDistancePreparedBounded(sid, pq, math.Inf(1))
		if err != nil || !ok || got.DistVertex != want || got.ShapeID != sid || b.Entry(got.EntryID).ShapeID != sid {
			t.Fatalf("shape %d: unbounded: got (%v, %v, %v), want (%v, true, nil)", sid, got, ok, err, want)
		}
		if got, ok, _ := b.ShapeDistancePreparedBounded(sid, pq, want); !ok || got.DistVertex != want {
			t.Fatalf("shape %d: cutoff==value: got (%v, %v), want (%v, true)", sid, got, ok, want)
		}
		if want > 0 {
			if got, ok, _ := b.ShapeDistancePreparedBounded(sid, pq, want/2); ok || got.EntryID != -1 {
				t.Fatalf("shape %d: cutoff %v below value %v not rejected", sid, want/2, want)
			}
		}
	}
}

// TestPrunedTopKAgainstScan is the byte-identity property test of the
// prune-first kernel (DESIGN.md §4.9): over a seeded random base, every
// converged Match result — distances, shape ids, entry ids, continuous
// measures — must equal the exhaustive linear scan's exactly, not just
// within tolerance. The pruning is only admissible if no float in the
// output moves.
//
// The second base stretches what the distance field in front of the
// evaluator sees: at α = 0.6 copies are normalized about pairs as short as
// 0.4 of the diameter, so their other vertices leave the lune — the
// sliver's far corner lands at x ≈ 2, outside the field's box, where the
// field must say 0, not index out of its table — and a shape stored twice
// ties its twin at every rank, the k-th included.
func TestPrunedTopKAgainstScan(t *testing.T) {
	wide := DefaultOptions()
	wide.Alpha = 0.6
	sliver := geom.NewPolygon(geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(5, 1))
	for _, tc := range []struct {
		name   string
		opts   Options
		spec   synth.BaseSpec
		extra  []geom.Poly
		trials int
	}{
		{"default", DefaultOptions(), synth.BaseSpec{
			Images: 30, MeanShapes: 3, MeanVertices: 13, Prototypes: 8,
			Distortion: 0.02, OpenFraction: 0.3, Seed: 17}, nil, 30},
		{"wide alpha, sliver, twin", wide, synth.BaseSpec{
			Images: 8, MeanShapes: 2, MeanVertices: 9, Prototypes: 4,
			Distortion: 0.02, OpenFraction: 0.3, Seed: 19}, []geom.Poly{sliver, sliver.Clone()}, 16},
	} {
		b := NewBase(tc.opts)
		images := synth.GenerateBase(tc.spec)
		for i, p := range tc.extra {
			images = append(images, synth.Image{ID: 9001 + i, Shapes: []geom.Poly{p}})
		}
		for _, img := range images {
			b = mustAppend(t, b, img.ID, img.Shapes...)
		}
		if len(tc.extra) > 0 {
			outside := 0
			for _, v := range copyVerts(b) {
				if v.X > fieldX0+float64(fieldNX)/fieldRes {
					outside++
				}
			}
			if outside == 0 {
				t.Fatalf("%s: no stored vertex leaves the distance field's box", tc.name)
			}
		}
		scan := NewScanMatcher(b)
		rng := rand.New(rand.NewSource(29))
		converged := 0
		for trial := 0; trial < tc.trials; trial++ {
			q := synth.Distort(rng, b.Shape(rng.Intn(b.NumShapes())).Poly, 0.025)
			if trial < len(tc.extra) {
				q = tc.extra[trial] // the twins' own query: a tie at distance 0
			}
			if q.Validate() != nil {
				continue
			}
			k := 1 + rng.Intn(5)
			fast, st, err := b.Match(q, k)
			if err != nil {
				t.Fatal(err)
			}
			if !st.Converged {
				continue
			}
			converged++
			ref, err := scan.Match(q, k)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fast, ref) {
				t.Fatalf("%s trial %d (k=%d): pruned result diverges from scan:\nfast: %+v\nscan: %+v",
					tc.name, trial, k, fast, ref)
			}

			// The fixed-cutoff scan under the tightest cutoff that keeps the
			// top k, the true k-th best, returns exactly the scan's shapes
			// within it, whatever ties it has, headed by the climb's k.
			pq, err := PrepareQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			cut := ref[len(ref)-1].DistVertex
			within, _, _, err := withinSorted(b, pq, nil, cut)
			if err != nil {
				t.Fatal(err)
			}
			all, err := scan.Match(q, b.NumShapes())
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for n < len(all) && all[n].DistVertex <= cut {
				n++
			}
			if len(within) < len(fast) || !reflect.DeepEqual(within, all[:n]) || !reflect.DeepEqual(within[:len(fast)], fast) {
				t.Fatalf("%s trial %d (k=%d): scan under the true k-th best diverges:\ngot:  %+v\nscan: %+v",
					tc.name, trial, k, within, all[:n])
			}
		}
		if converged < 2*tc.trials/3 {
			t.Errorf("%s: only %d/%d queries converged", tc.name, converged, tc.trials)
		}
	}
}

// pruneTestBase builds the frozen seeded base the bound-first kernel tests
// search.
func pruneTestBase(t *testing.T, spec synth.BaseSpec) *Base {
	t.Helper()
	b := NewBase(DefaultOptions())
	for _, img := range synth.GenerateBase(spec) {
		b = mustAppend(t, b, img.ID, img.Shapes...)
	}
	return b
}

// TestWholeShapeRejectChargesEveryCopy pins the whole-shape reject of
// scanShape.nearest: under a cutoff of half a shape's floor — below every
// copy's own floor, so the field turns each copy away — the shape comes
// back proven outside with no copy reaching the exact evaluator, yet every
// copy is read: in index order through the access hook, its block cost
// charged by nearest, by ShapeDistancePreparedBounded to the query's block
// counter, and by the fixed-cutoff scan (Within) to its block count.
func TestWholeShapeRejectChargesEveryCopy(t *testing.T) {
	b := pruneTestBase(t, synth.BaseSpec{
		Images: 20, MeanShapes: 3, MeanVertices: 14, Prototypes: 6,
		Distortion: 0.05, OpenFraction: 0.3, Seed: 43,
	})
	q := synth.Distort(rand.New(rand.NewSource(53)), b.Shape(0).Poly, 0.03)
	pq, err := PrepareQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	var blocks, evaluated atomic.Int64
	pq.AttachBlockCounter(&blocks)
	pq.AttachEvalCounter(&evaluated)
	whole, lowest, total := 0, math.Inf(1), 0
	for sid := 0; sid < b.NumShapes(); sid++ {
		var order []int
		want := 0
		for _, ei := range b.EntriesOfShape(sid) {
			order = append(order, ei)
			want += b.blockCost(int32(ei))
		}
		total += want
		floor := b.ShapeFloor(sid, pq)
		if floor <= 0 {
			continue
		}
		lowest = min(lowest, floor)
		cut := floor / 2
		s := b.scanShape(sid)
		var accessed []int
		best, ei, scored, got := s.nearest(pq, cut, func(ei int) { accessed = append(accessed, ei) })
		if !math.IsInf(best, 1) || ei != -1 || scored != 0 || got != want || !reflect.DeepEqual(accessed, order) {
			t.Fatalf("shape %d under %v: (%v, entry %d, %d scored, %d blocks) reading %v; want (+Inf, -1, 0, %d) reading %v",
				sid, cut, best, ei, scored, got, accessed, want, order)
		}
		blocks.Store(0)
		evaluated.Store(0)
		if m, ok, err := b.ShapeDistancePreparedBounded(sid, pq, cut); err != nil || ok || m.EntryID != -1 ||
			blocks.Load() != int64(want) || evaluated.Load() != 0 {
			t.Fatalf("shape %d under %v: (%+v, %v, %v), %d blocks charged, %d copies evaluated; want %d and 0",
				sid, cut, m, ok, err, blocks.Load(), evaluated.Load(), want)
		}
		whole++
	}
	if whole < b.NumShapes()/2 {
		t.Fatalf("only %d of %d shapes have a positive floor", whole, b.NumShapes())
	}
	// A scan under a cutoff below every positive floor reads every copy.
	copies, scanned, err := b.Within(context.Background(), pq, nil, lowest/2, func(Match) {})
	if err != nil {
		t.Fatal(err)
	}
	if scanned != total || copies != b.NumEntries() {
		t.Fatalf("scan under %v: %d blocks over %d copies, want %d over %d", lowest/2, scanned, copies, total, b.NumEntries())
	}
}

// TestGrowthClamp pins the schedule of the unseeded search once its top-k
// is full: the next envelope is no wider than the proven k-th best needs
// (2·kth, nudged), so a converged search never overshoots it by the growth
// factor — and, the schedule being no part of the correctness argument,
// its matches still equal the exhaustive scan's byte for byte.
func TestGrowthClamp(t *testing.T) {
	b := pruneTestBase(t, synth.BaseSpec{
		Images: 30, MeanShapes: 3, MeanVertices: 13, Prototypes: 8,
		Distortion: 0.02, OpenFraction: 0.3, Seed: 17,
	})
	scan := NewScanMatcher(b)
	rng := rand.New(rand.NewSource(31))
	converged, clamped := 0, 0
	for trial := 0; trial < 30; trial++ {
		q := synth.Distort(rng, b.Shape(rng.Intn(b.NumShapes())).Poly, 0.025)
		if q.Validate() != nil {
			continue
		}
		k := 1 + rng.Intn(5)
		pq, err := PrepareQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		env, err := envelope.New(pq.entry.Poly)
		if err != nil {
			t.Fatal(err)
		}
		prevEps, prevKth := 0.0, math.Inf(1)
		got, st := b.climb(pq, env, k, nil, func(eps, kth float64) {
			if limit := 2 * prevKth * 1.0001; eps > limit {
				t.Errorf("trial %d (k=%d): envelope %g after a proven k-th best of %g (limit %g)",
					trial, k, eps, prevKth, limit)
			} else if eps == limit && eps < prevEps*b.opts.GrowthFactor {
				clamped++
			}
			prevEps, prevKth = eps, kth
		})
		if !st.Converged {
			continue
		}
		converged++
		ref, err := scan.Match(q, k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("trial %d (k=%d): clamped search diverges from scan:\ngot:  %+v\nscan: %+v", trial, k, got, ref)
		}
	}
	if converged < 20 || clamped < 5 {
		t.Errorf("%d/30 queries converged, %d clamped envelopes; want at least 20 and 5", converged, clamped)
	}
}

// BenchmarkBackPass times one full back pass — a 20-vertex query's
// vertices against a stored copy's boundary, no cutoff — over 32 copies of
// n vertices each, n = 8, 21, 64, 256: "edges" as distWithin runs it (the
// copy's edges set up, then every vertex against every edge, O(n) a term),
// "grid" through a segment grid built beforehand (the walk, O(1) expected
// a term, paid for by a build per copy and its bytes). ns/op is one pass.
func BenchmarkBackPass(b *testing.B) {
	rng := rand.New(rand.NewSource(29))
	q, err := NormalizeCanonical(synth.Prototype(rng, 1, 20, true))
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{8, 21, 64, 256} {
		var copies []geom.Poly
		for len(copies) < 32 {
			es, err := Normalize(synth.Distort(rng, synth.Prototype(rng, len(copies), n, true), 0.02), DefaultOptions().Alpha)
			if err != nil {
				continue
			}
			copies = append(copies, es[0].Poly)
		}
		grids := make([]*BoundaryDist, len(copies))
		for i, cp := range copies {
			grids[i] = NewBoundaryDist(cp)
		}
		var sink float64
		b.Run(fmt.Sprintf("n=%d/edges", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var buf [edgeStack]shapeindex.Seg
				back := shapeindex.AppendEdges(buf[:0], copies[i%len(copies)])
				d, _ := boundedOverPoints(q.Poly, back.Dist, 0, math.Inf(1))
				sink += d
			}
		})
		b.Run(fmt.Sprintf("n=%d/grid", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d, _ := boundedOverPoints(q.Poly, grids[i%len(grids)].Dist, 0, math.Inf(1))
				sink += d
			}
		})
		if math.IsNaN(sink) {
			b.Fatal("NaN distance")
		}
	}
}
