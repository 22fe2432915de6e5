package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/synth"
)

// fieldTestShapes are the query boundaries the distance-field properties
// are checked against: random polygons and open polylines, and the
// degenerate ends of the range — a 2-vertex segment and needle-thin
// slivers, where a cell centre's distance changes fastest.
func fieldTestShapes(rng *rand.Rand) []geom.Poly {
	shapes := []geom.Poly{
		geom.NewPolyline(geom.Pt(0, 0), geom.Pt(1, 0)),
		geom.NewPolygon(geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0.5, 1e-4)),
		geom.NewPolyline(geom.Pt(0, 0), geom.Pt(0.5, -1e-6), geom.Pt(1, 0)),
		unitSquare(),
	}
	for i := 0; i < 12; i++ {
		p := synth.Prototype(rng, i, 5+rng.Intn(30), i%3 == 0)
		if qe, err := NormalizeCanonical(p); err == nil {
			shapes = append(shapes, qe.Poly)
		}
	}
	return shapes
}

// TestDistFieldAdmissible is the field's one proof obligation: at every
// point — inside the box, on cell borders and corners, outside the box,
// at non-finite coordinates — its value is a lower bound on the oracle's
// distance, and 0 wherever it has nothing to say.
func TestDistFieldAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	const xMax, yMax = fieldX0 + float64(fieldNX)/fieldRes, fieldY0 + float64(fieldNY)/fieldRes
	for si, shape := range fieldTestShapes(rng) {
		oracle := NewBoundaryDist(shape)
		f := newDistField(oracle)
		check := func(p geom.Point) {
			t.Helper()
			lb := f.at(p)
			if !(lb >= 0) || math.IsInf(lb, 0) {
				t.Fatalf("shape %d: field at %v = %v", si, p, lb)
			}
			// Within rounding of the box's edge either answer is right; past
			// it the field has nothing to say.
			const edge = 1e-9
			if outside := p.X < fieldX0-edge || p.X > xMax+edge || p.Y < fieldY0-edge || p.Y > yMax+edge; outside && lb != 0 {
				t.Fatalf("shape %d: field at %v outside the box = %v, want 0", si, p, lb)
			}
			if d := oracle.Dist(p); lb > d {
				t.Fatalf("shape %d: field at %v = %v exceeds the distance %v", si, p, lb, d)
			}
		}
		positive := 0
		for i := 0; i < 4000; i++ {
			p := geom.Pt(fieldX0+rng.Float64()*(xMax-fieldX0), fieldY0+rng.Float64()*(yMax-fieldY0))
			if f.at(p) > 0 {
				positive++
			}
			check(p)
			// The same point snapped onto a cell border, a cell corner, and
			// one ulp to either side of them.
			bx := fieldX0 + math.Round((p.X-fieldX0)*fieldRes)/fieldRes
			by := fieldY0 + math.Round((p.Y-fieldY0)*fieldRes)/fieldRes
			for _, x := range []float64{p.X, bx, math.Nextafter(bx, -1), math.Nextafter(bx, 2)} {
				for _, y := range []float64{p.Y, by, math.Nextafter(by, -2), math.Nextafter(by, 2)} {
					check(geom.Pt(x, y))
				}
			}
			// Outside the box, near and far.
			check(geom.Pt(p.X+xMax-fieldX0, p.Y))
			check(geom.Pt(p.X, p.Y-(yMax-fieldY0)))
			check(geom.Pt(-1e9*p.X-1, 1e300*p.Y))
		}
		if positive < 2000 {
			t.Fatalf("shape %d: only %d/4000 points read a positive bound; the field says nothing", si, positive)
		}
		for _, x := range []float64{0.5, math.Inf(1), math.Inf(-1), math.NaN()} {
			for _, y := range []float64{0.5, math.Inf(1), math.Inf(-1), math.NaN()} {
				if x != 0.5 || y != 0.5 {
					if lb := f.at(geom.Pt(x, y)); lb != 0 {
						t.Fatalf("shape %d: field at (%v,%v) = %v, want 0", si, x, y, lb)
					}
				}
			}
		}
	}
}

// unfielded is the bounded evaluator without the field in front: the two
// directed passes distWithin runs once the field lets a copy through.
func unfielded(pq *PreparedQuery, cp geom.Poly, back *BoundaryDist, cut float64) (float64, bool) {
	dir, ok := avgMinDistVerticesBoundedAffine(cp, pq.oracle, 0, cut)
	if !ok {
		return 0, false
	}
	bk, ok := avgMinDistVerticesBoundedAffine(pq.entry.Poly, back, dir, cut)
	if !ok {
		return 0, false
	}
	return (dir + bk) / 2, true
}

// TestFieldRejectIsExact pins that the field only ever anticipates the
// exact evaluator: whatever it rejects the two directed passes reject
// too, whatever it lets through comes back with the same bytes, and the
// reject is strict — a copy whose distance is exactly the cutoff (a tie
// at the k-th) survives, as it does one ulp above; one ulp below, the field
// still only follows the exact passes. With no finite cutoff the field is
// not even built.
func TestFieldRejectIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	b := pruneTestBase(t, synth.BaseSpec{
		Images: 25, MeanShapes: 3, MeanVertices: 14, Prototypes: 6,
		Distortion: 0.05, OpenFraction: 0.3, Seed: 107,
	})
	rejected, passed := 0, 0
	for trial := 0; trial < 12; trial++ {
		q := synth.Distort(rng, b.Shape(rng.Intn(b.NumShapes())).Poly, 0.03)
		if q.Validate() != nil {
			continue
		}
		pq, err := PrepareQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		wants := make([]float64, len(b.entries))
		for ei := range b.entries {
			cp, back := b.entries[ei].Poly, b.entryOracle(int32(ei))
			wants[ei], _ = unfielded(pq, cp, back, math.Inf(1))
			if got, ok, scored := pq.distWithin(cp, back, math.Inf(1)); !ok || !scored || got != wants[ei] {
				t.Fatalf("trial %d entry %d: no cutoff: (%v, %v, %v), want %v", trial, ei, got, ok, scored, wants[ei])
			}
			if pq.field != nil {
				t.Fatalf("trial %d entry %d: the field was built with no finite cutoff", trial, ei)
			}
		}
		for ei, want := range wants {
			cp, back := b.entries[ei].Poly, b.entryOracle(int32(ei))
			cuts := []float64{want, math.Nextafter(want, 2), math.Nextafter(want, -1),
				want * rng.Float64(), want * (1 + rng.Float64()), 0.02 + 0.05*rng.Float64(), 0}
			for ci, cut := range cuts {
				if cut < 0 {
					continue
				}
				got, ok, scored := pq.distWithin(cp, back, cut)
				ref, refOK := unfielded(pq, cp, back, cut)
				if ok != refOK || (ok && got != ref) {
					t.Fatalf("trial %d entry %d cut %v: (%v, %v), un-fielded (%v, %v)", trial, ei, cut, got, ok, ref, refOK)
				}
				if !scored {
					rejected++
					if refOK || want <= cut {
						t.Fatalf("trial %d entry %d: the field rejected a copy at distance %v under cutoff %v", trial, ei, want, cut)
					}
				} else {
					passed++
				}
				// Strictness: at the copy's own distance (cuts[0]) and above it
				// the copy comes back, bytes intact.
				if cut >= want && (!ok || got != want) {
					t.Fatalf("trial %d entry %d (cut %d): cutoff %v ≥ distance %v lost the copy: (%v, %v)", trial, ei, ci, cut, want, got, ok)
				}
			}
		}
	}
	if rejected < 1000 || passed < 1000 {
		t.Fatalf("the field rejected %d and passed %d evaluations; the test wants plenty of both", rejected, passed)
	}
}

// TestFieldBuiltOncePerRequest shares one prepared query between 8 parts
// searched two at a time under a fitting bound, the way a request fans
// out: every part sees the same table — one build, raced under -race —
// and the answers are those of a query of their own. A query that is only
// ever evaluated without a finite cutoff builds none.
func TestFieldBuiltOncePerRequest(t *testing.T) {
	images := synth.GenerateBase(synth.BaseSpec{
		Images: 48, MeanShapes: 3, MeanVertices: 13, Prototypes: 6,
		Distortion: 0.04, OpenFraction: 0.3, Seed: 109,
	})
	const parts = 8
	bases := make([]*Base, parts)
	for i := range bases {
		bases[i] = NewBase(DefaultOptions())
	}
	for _, img := range images {
		for _, s := range img.Shapes {
			if _, err := bases[img.ID%parts].AddShape(img.ID, s); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, b := range bases {
		if err := b.Freeze(); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(113))
	for trial := 0; trial < 6; trial++ {
		q := synth.Distort(rng, images[rng.Intn(len(images))].Shapes[0], 0.02)
		if q.Validate() != nil {
			continue
		}
		const k = 2
		want := make([][]Match, parts)
		bound := 0.0
		for i, b := range bases {
			ms, st, err := b.Match(q, k)
			if err != nil {
				t.Fatal(err)
			}
			if !st.Converged || len(ms) < k {
				t.Fatalf("trial %d: part %d alone: %d matches, converged=%v", trial, i, len(ms), st.Converged)
			}
			want[i] = ms
			bound = math.Max(bound, ms[k-1].DistVertex)
		}
		pq, err := PrepareQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		// Every part holds k shapes within bound, so each must return its own
		// top k whatever its siblings publish.
		shared := NewSharedBound()
		shared.Tighten(bound)
		got := make([][]Match, parts)
		fields := make([]*distField, parts)
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < parts; i += 2 {
					ms, _, err := bases[i].MatchPrepared(context.Background(), pq, k, MatchOpts{Shared: shared})
					if err != nil {
						t.Error(err)
						return
					}
					got[i], fields[i] = ms, pq.field // built, if at all, before the search returned
				}
			}(w)
		}
		wg.Wait()
		for i := range bases {
			if fields[i] == nil || fields[i] != fields[0] {
				t.Fatalf("trial %d: part %d searched under field %p, part 0 under %p", trial, i, fields[i], fields[0])
			}
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("trial %d part %d: shared query diverges:\ngot:  %+v\nwant: %+v", trial, i, got[i], want[i])
			}
		}

		unbounded, err := PrepareQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		for sid := 0; sid < bases[0].NumShapes(); sid++ {
			if _, err := bases[0].ShapeDistancePrepared(sid, unbounded); err != nil {
				t.Fatal(err)
			}
			for _, ei := range bases[0].shapeEntries[sid] {
				unbounded.distWithin(bases[0].entries[ei].Poly, bases[0].entryOracle(ei), math.Inf(1))
			}
		}
		if unbounded.field != nil {
			t.Fatalf("trial %d: a query never evaluated under a finite cutoff built its field", trial)
		}
	}
}

// TestEntryFirstStopsRangeSearch pins that a fitting bound issues no
// triangle query, on a 200-image base (the benchmark's size): under a
// bound looser than the true k-th best, as a hash seed is, the search is
// one scan of every entry — no envelope opened, no vertex reported by a
// range search — the distance field turns all but a few percent of the
// entries away before the exact evaluator, and the matches are the
// unseeded search's, byte for byte.
func TestEntryFirstStopsRangeSearch(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 200-image base")
	}
	b := pruneTestBase(t, synth.PaperSpec(0.02, 1))
	rng := rand.New(rand.NewSource(127))
	const k = 5
	tested, candidates := 0, 0
	for trial := 0; trial < 12; trial++ {
		q := synth.Distort(rng, b.Shape(rng.Intn(b.NumShapes())).Poly, 0.01)
		if q.Validate() != nil {
			continue
		}
		want, st, err := b.Match(q, k)
		if err != nil {
			t.Fatal(err)
		}
		seed := 1.5 * want[k-1].DistVertex
		if !st.Converged || seed == 0 || 2*seed*1.0001 > st.EpsilonMax {
			continue
		}
		tested++
		pq, err := PrepareQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		shared := NewSharedBound()
		shared.Tighten(seed)
		got, gst, err := b.MatchPrepared(context.Background(), pq, k, MatchOpts{Shared: shared})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seeded search diverges:\ngot:  %+v\nwant: %+v", got, want)
		}
		if gst.TrianglesQueried != 0 || gst.VerticesReported != 0 {
			t.Fatalf("%d triangle queries reporting %d vertices under a fitting bound, want none",
				gst.TrianglesQueried, gst.VerticesReported)
		}
		if gst.Iterations != 1 || !gst.Converged || gst.VerticesCounted != b.NumEntries() {
			t.Fatalf("%d iterations, converged=%v, %d of %d entries scanned; want one pass over them all",
				gst.Iterations, gst.Converged, gst.VerticesCounted, b.NumEntries())
		}
		if gst.Candidates > gst.VerticesCounted || gst.Candidates < len(got) {
			t.Fatalf("%d candidates of %d scanned entries for %d matches", gst.Candidates, gst.VerticesCounted, len(got))
		}
		candidates += gst.Candidates
	}
	if tested < 6 {
		t.Fatalf("only %d queries ran under a fitting bound", tested)
	}
	if share := float64(candidates) / float64(tested*b.NumEntries()); share >= 0.05 {
		t.Errorf("%.1f%% of the entries reached the exact evaluator, want under 5%%", 100*share)
	}
	t.Logf("%d queries: %.2f%% of %d entries evaluated", tested, 100*float64(candidates)/float64(tested*b.NumEntries()), b.NumEntries())
}
