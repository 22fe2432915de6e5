package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/rangesearch"
)

// testShapes returns a family of clearly distinct shapes.
func testShapes() []geom.Poly {
	return []geom.Poly{
		// 0: square
		geom.NewPolygon(geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1), geom.Pt(0, 1)),
		// 1: long thin rectangle
		geom.NewPolygon(geom.Pt(0, 0), geom.Pt(4, 0), geom.Pt(4, 0.5), geom.Pt(0, 0.5)),
		// 2: right triangle
		geom.NewPolygon(geom.Pt(0, 0), geom.Pt(2, 0), geom.Pt(0, 2)),
		// 3: plus-like concave polygon
		geom.NewPolygon(geom.Pt(1, 0), geom.Pt(2, 0), geom.Pt(2, 1), geom.Pt(3, 1),
			geom.Pt(3, 2), geom.Pt(2, 2), geom.Pt(2, 3), geom.Pt(1, 3),
			geom.Pt(1, 2), geom.Pt(0, 2), geom.Pt(0, 1), geom.Pt(1, 1)),
		// 4: open zigzag polyline
		geom.NewPolyline(geom.Pt(0, 0), geom.Pt(1, 1), geom.Pt(2, 0), geom.Pt(3, 1), geom.Pt(4, 0)),
		// 5: pentagon
		geom.NewPolygon(geom.Pt(1, 0), geom.Pt(2, 0.8), geom.Pt(1.6, 2), geom.Pt(0.4, 2), geom.Pt(0, 0.8)),
	}
}

func buildTestBase(t *testing.T, opts Options) *Base {
	t.Helper()
	b := NewBase(opts)
	for i, p := range testShapes() {
		b = mustAppend(t, b, i/2, p)
	}
	return b
}

// mustAppend returns b's successor holding polys, all of image (Append).
func mustAppend(t testing.TB, b *Base, image int, polys ...geom.Poly) *Base {
	t.Helper()
	n, err := b.Append(image, polys)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// distort jitters every vertex by at most mag (in units of the shape's
// diameter) without changing the topology.
func distort(p geom.Poly, mag float64, rng *rand.Rand) geom.Poly {
	_, _, d := p.Diameter()
	q := p.Clone()
	for i := range q.Pts {
		q.Pts[i] = q.Pts[i].Add(geom.Pt(
			(rng.Float64()*2-1)*mag*d,
			(rng.Float64()*2-1)*mag*d,
		))
	}
	return q
}

func TestBaseLifecycle(t *testing.T) {
	b := NewBase(DefaultOptions())
	if _, err := b.Append(0, []geom.Poly{geom.NewPolyline(geom.Pt(0, 0))}); err == nil {
		t.Error("invalid shape should be rejected")
	}
	b = mustAppend(t, b, 7, testShapes()[0])
	if id := b.Shape(0).ID; id != 0 || b.Shape(0).Image != 7 {
		t.Errorf("shape bookkeeping: id=%d image=%d", id, b.Shape(0).Image)
	}
	if b.NumShapes() != 1 || b.NumEntries() < 2 || b.NumVertices() < 8 {
		t.Errorf("counts: shapes=%d entries=%d verts=%d", b.NumShapes(), b.NumEntries(), b.NumVertices())
	}
	// Every entry must reference its shape and have the diameter anchored.
	for i := 0; i < b.NumEntries(); i++ {
		e := b.Entry(i)
		if e.ShapeID != 0 {
			t.Errorf("entry %d shape id %d", i, e.ShapeID)
		}
		if !e.Poly.Pts[e.DiamI].Eq(geom.Pt(0, 0), 1e-9) {
			t.Errorf("entry %d anchor broken", i)
		}
	}
}

func TestMatchExactCopy(t *testing.T) {
	b := buildTestBase(t, DefaultOptions())
	for want, q := range testShapes() {
		// Query with a rotated+scaled+translated copy: normalization must
		// make retrieval invariant.
		tr := geom.Transform{S: 2.1, Theta: 0.9, T: geom.Pt(5, -3)}
		ms, stats, err := b.Match(q.Transform(tr), 1)
		if err != nil {
			t.Fatalf("shape %d: %v", want, err)
		}
		if len(ms) != 1 {
			t.Fatalf("shape %d: %d matches", want, len(ms))
		}
		if ms[0].ShapeID != want {
			t.Errorf("query %d matched shape %d (d=%v)", want, ms[0].ShapeID, ms[0].DistVertex)
		}
		if ms[0].DistVertex > 1e-6 {
			t.Errorf("query %d: exact copy distance %v", want, ms[0].DistVertex)
		}
		if stats.Iterations < 1 {
			t.Errorf("query %d: no iterations recorded", want)
		}
		if !stats.Converged {
			t.Errorf("query %d: exact match should converge", want)
		}
	}
}

func TestMatchDistortedCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	b := buildTestBase(t, DefaultOptions())
	for want, q := range testShapes() {
		dq := distort(q, 0.02, rng)
		if dq.Validate() != nil {
			continue // distortion occasionally self-intersects; skip
		}
		ms, _, err := b.Match(dq, 1)
		if err != nil {
			t.Fatalf("shape %d: %v", want, err)
		}
		if ms[0].ShapeID != want {
			t.Errorf("distorted query %d matched shape %d", want, ms[0].ShapeID)
		}
	}
}

func TestMatchAgreesWithScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b := buildTestBase(t, DefaultOptions())
	scan := NewScanMatcher(b)
	for trial := 0; trial < 6; trial++ {
		src := testShapes()[trial%len(testShapes())]
		q := distort(src, 0.05, rng)
		if q.Validate() != nil {
			continue
		}
		fast, stats, err := b.Match(q, 3)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := scan.Match(q, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !stats.Converged {
			continue // unconverged runs only promise best-so-far
		}
		if len(fast) != len(ref) {
			t.Fatalf("trial %d: %d vs %d matches", trial, len(fast), len(ref))
		}
		for i := range fast {
			if !almostEq(fast[i].DistVertex, ref[i].DistVertex, 1e-9) {
				t.Errorf("trial %d rank %d: fattening %v vs scan %v (shapes %d vs %d)",
					trial, i, fast[i].DistVertex, ref[i].DistVertex, fast[i].ShapeID, ref[i].ShapeID)
			}
		}
	}
}

func TestMatchTopKOrdering(t *testing.T) {
	b := buildTestBase(t, DefaultOptions())
	ms, _, err := b.Match(testShapes()[0], 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 4 {
		t.Fatalf("got %d matches", len(ms))
	}
	for i := 1; i < len(ms); i++ {
		if ms[i-1].DistVertex > ms[i].DistVertex {
			t.Errorf("matches unsorted at %d", i)
		}
	}
	if ms[0].ShapeID != 0 {
		t.Errorf("best match = %d", ms[0].ShapeID)
	}
	// Distances must be consistent with direct evaluation.
	qe, _ := NormalizeCanonical(testShapes()[0])
	for _, m := range ms {
		direct := AvgMinDistVerticesSym(b.Entry(m.EntryID).Poly, qe.Poly)
		if !almostEq(direct, m.DistVertex, 1e-9) {
			t.Errorf("reported distance %v != direct %v", m.DistVertex, direct)
		}
	}
}

func TestMatchErrors(t *testing.T) {
	b := NewBase(DefaultOptions())
	if ms, _, err := b.Match(testShapes()[0], 1); err != nil || len(ms) != 0 {
		t.Errorf("an empty base answers %v, %v; want nothing", ms, err)
	}
	bb := buildTestBase(t, DefaultOptions())
	if _, _, err := bb.Match(testShapes()[0], 0); err == nil {
		t.Error("k=0 should error")
	}
	if _, _, err := bb.Match(geom.NewPolyline(geom.Pt(0, 0)), 1); err == nil {
		t.Error("invalid query should error")
	}
}

// cancelAfter is a context whose Err turns to Canceled after n calls.
type cancelAfter struct {
	context.Context
	n int
}

func (c *cancelAfter) Err() error {
	if c.n--; c.n < 0 {
		return context.Canceled
	}
	return nil
}

// TestSimilarShapesCancelled: a cancelled ctx stops SimilarShapes within
// one scan chunk of 32 shapes — before any shape when it is cancelled on
// entry, after exactly the first chunk when it is cancelled at the second
// check — and returns ctx's error and no matches.
func TestSimilarShapesCancelled(t *testing.T) {
	b := NewBase(DefaultOptions())
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		b = mustAppend(t, b, i, distort(testShapes()[i%6], 0.02, rng))
	}
	firstChunk := 0
	for i := 0; i < b.NumEntries(); i++ {
		if b.Entry(i).ShapeID < 32 {
			firstChunk++
		}
	}
	for checks, want := range []int{0, firstChunk} {
		ms, stats, err := b.SimilarShapes(&cancelAfter{context.Background(), checks}, testShapes()[0], 10)
		if err != context.Canceled || ms != nil || stats.VerticesCounted != want {
			t.Errorf("cancelled at check %d: (%d matches, %d copies scanned, %v), want (0, %d, %v)",
				checks, len(ms), stats.VerticesCounted, err, want, context.Canceled)
		}
	}
}

func TestSimilarShapesThreshold(t *testing.T) {
	b := buildTestBase(t, DefaultOptions())
	// A tight threshold retrieves only the square itself.
	ms, _, err := b.SimilarShapes(context.Background(), testShapes()[0], 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || ms[0].ShapeID != 0 {
		t.Fatalf("tight threshold: %v", ms)
	}
	// A huge threshold retrieves everything.
	ms, _, err = b.SimilarShapes(context.Background(), testShapes()[0], 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != b.NumShapes() {
		t.Errorf("loose threshold: %d of %d shapes", len(ms), b.NumShapes())
	}
	for _, m := range ms {
		if m.DistVertex > 10 {
			t.Errorf("result above threshold: %v", m.DistVertex)
		}
	}
	// No distance is within a NaN or negative threshold.
	for _, tau := range []float64{math.NaN(), -1, math.Inf(-1)} {
		if ms, _, err := b.SimilarShapes(context.Background(), testShapes()[0], tau); err != nil || len(ms) != 0 {
			t.Errorf("threshold %v: (%v, %v), want no matches", tau, ms, err)
		}
	}
}

func TestMatchAcrossBackends(t *testing.T) {
	for _, kind := range []rangesearch.Kind{rangesearch.KindBrute, rangesearch.KindKDTree, rangesearch.KindLayered} {
		opts := DefaultOptions()
		opts.Backend = kind
		b := buildTestBase(t, opts)
		ms, _, err := b.Match(testShapes()[2], 1)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if ms[0].ShapeID != 2 {
			t.Errorf("%s: matched %d", kind, ms[0].ShapeID)
		}
	}
}

func TestEpsilonMaxFormula(t *testing.T) {
	b := buildTestBase(t, DefaultOptions())
	lq := 3.5
	got := b.EpsilonMax(lq)
	p := float64(b.NumShapes())
	n := float64(b.NumVertices())
	lg := math.Log2(n)
	want := LuneArea / (2 * p * lq) * lg * lg * lg
	if !almostEq(got, want, 1e-12) {
		t.Errorf("EpsilonMax = %v, want %v", got, want)
	}
	if !math.IsInf(NewBase(DefaultOptions()).EpsilonMax(1), 1) {
		t.Error("empty base EpsilonMax should be +Inf")
	}
}

func TestScanMatcherErrors(t *testing.T) {
	s := NewScanMatcher(buildTestBase(t, DefaultOptions()))
	if _, err := s.Match(testShapes()[0], 0); err == nil {
		t.Error("k=0 should error")
	}
}

func TestMGIndexBasic(t *testing.T) {
	b := buildTestBase(t, DefaultOptions())
	idx, err := NewMGIndex(b.Shapes())
	if err != nil {
		t.Fatal(err)
	}
	// Space overhead: two vectors per edge of every shape.
	wantVecs := 0
	for _, s := range b.Shapes() {
		wantVecs += 2 * s.Poly.NumEdges()
	}
	if idx.NumVectors() != wantVecs {
		t.Errorf("NumVectors = %d, want %d", idx.NumVectors(), wantVecs)
	}
	// Exact copies are retrieved.
	for want, q := range testShapes() {
		ms, err := idx.Match(q, 1)
		if err != nil {
			t.Fatal(err)
		}
		if ms[0].ShapeID != want {
			t.Errorf("MG query %d matched %d", want, ms[0].ShapeID)
		}
	}
	if _, err := idx.Match(testShapes()[0], 0); err == nil {
		t.Error("k=0 should error")
	}
}

// Figure 2: local distortion that shortens/changes edges defeats the
// edge-normalized baseline but not diameter normalization. We verify the
// mechanism: a shape whose every edge is split with strong midpoint
// displacement keeps its h_avg-rank under our method.
func TestFigure2DistortionRobustness(t *testing.T) {
	b := buildTestBase(t, DefaultOptions())

	// Distort shape 2 (triangle) by splitting each edge at the midpoint
	// and pushing the midpoint outward — no original edge survives.
	src := testShapes()[2]
	var pts []geom.Point
	m := src.NumEdges()
	for i := 0; i < m; i++ {
		e := src.Edge(i)
		pts = append(pts, e.A)
		mid := e.Midpoint().Add(e.Dir().Unit().Perp().Scale(-0.06 * e.Length()))
		pts = append(pts, mid)
	}
	dq := geom.NewPolygon(pts...)
	if err := dq.Validate(); err != nil {
		t.Fatal(err)
	}

	ms, _, err := b.Match(dq, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ms[0].ShapeID != 2 {
		t.Errorf("diameter normalization failed on edge-split distortion: matched %d", ms[0].ShapeID)
	}
}
