package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func square(side float64) geom.Poly {
	return geom.NewPolygon(geom.Pt(0, 0), geom.Pt(side, 0), geom.Pt(side, side), geom.Pt(0, side))
}

func TestAvgMinDistIdentical(t *testing.T) {
	sq := square(1)
	if d := AvgMinDist(sq, sq, 0); d > 1e-9 {
		t.Errorf("self distance = %v", d)
	}
	if d := AvgMinDistSym(sq, sq, 128); d > 1e-9 {
		t.Errorf("symmetric self distance = %v", d)
	}
}

func TestAvgMinDistParallelSegments(t *testing.T) {
	// Two parallel unit segments at distance 1: every point of A is at
	// distance exactly 1 from B.
	a := geom.NewPolyline(geom.Pt(0, 0), geom.Pt(1, 0))
	b := geom.NewPolyline(geom.Pt(0, 1), geom.Pt(1, 1))
	if d := AvgMinDist(a, b, 256); !almostEq(d, 1, 1e-9) {
		t.Errorf("parallel segments AvgMinDist = %v", d)
	}
	if d := AvgMinDistVertices(a, NewBoundaryDist(b)); !almostEq(d, 1, 1e-9) {
		t.Errorf("vertex variant = %v", d)
	}
}

func TestAvgMinDistConcentricSquares(t *testing.T) {
	// Unit square vs square inflated by 0.2 per side: boundary distance
	// from outer to inner varies between 0.2 (mid-edge) and 0.2√2 (corner).
	inner := square(1)
	outer := geom.NewPolygon(geom.Pt(-0.2, -0.2), geom.Pt(1.2, -0.2), geom.Pt(1.2, 1.2), geom.Pt(-0.2, 1.2))
	d := AvgMinDist(outer, inner, 2048)
	if d < 0.2 || d > 0.2*math.Sqrt2 {
		t.Errorf("concentric squares AvgMinDist = %v, want in [0.2, %v]", d, 0.2*math.Sqrt2)
	}
}

// The headline property from Figure 1: a shape with a single far-away
// spike dominates the Hausdorff distance but barely moves the average
// measure.
func TestFigure1Discrimination(t *testing.T) {
	// Q: a unit square. B: the same square slightly perturbed everywhere.
	// A: the same square with one vertex pulled far away (a spike).
	q := square(1)
	b := geom.NewPolygon(geom.Pt(0.02, 0.01), geom.Pt(1.03, -0.02), geom.Pt(0.98, 1.02), geom.Pt(-0.01, 0.97))
	a := geom.NewPolygon(geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(3.0, 0.5), geom.Pt(1, 1), geom.Pt(0, 1))

	// Under Hausdorff, A is much farther than B from Q because of the spike.
	hA := Hausdorff(a, q, 512)
	hB := Hausdorff(b, q, 512)
	if hA <= hB {
		t.Fatalf("Hausdorff should be dominated by the spike: h(A,Q)=%v h(B,Q)=%v", hA, hB)
	}
	// Under the average measure, B is the intuitively closer match and A's
	// spike is averaged out: the gap must shrink dramatically.
	gA := AvgMinDistSym(a, q, 512)
	gB := AvgMinDistSym(b, q, 512)
	if gB >= gA {
		t.Fatalf("average measure should prefer B: g(A,Q)=%v g(B,Q)=%v", gA, gB)
	}
	if (hA-hB)/(gA-gB) < 2 {
		t.Errorf("spike domination not attenuated: Hausdorff gap %v, avg gap %v", hA-hB, gA-gB)
	}
}

func TestGeneralizedHausdorff(t *testing.T) {
	q := square(1)
	a := geom.NewPolygon(geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(5, 0.5), geom.Pt(1, 1), geom.Pt(0, 1))
	// k=1 is the vertex Hausdorff: dominated by the spike at (5, 0.5).
	h1 := GeneralizedHausdorff(a, q, 1)
	if h1 < 3.9 {
		t.Errorf("k=1 should see the spike: %v", h1)
	}
	// k=2 discards the single worst vertex.
	h2 := GeneralizedHausdorff(a, q, 2)
	if h2 >= h1 {
		t.Errorf("k=2 (%v) should be below k=1 (%v)", h2, h1)
	}
	// k beyond the vertex count clamps.
	hBig := GeneralizedHausdorff(a, q, 100)
	if hBig > h2 {
		t.Errorf("clamped k should be the min vertex distance tier: %v", hBig)
	}
	// k<1 clamps to 1.
	if got := GeneralizedHausdorff(a, q, 0); got != h1 {
		t.Errorf("k=0 should clamp to k=1: %v vs %v", got, h1)
	}
}

func TestScaleInvarianceAfterNormalization(t *testing.T) {
	// §2.2: the measure is scale/translation/rotation invariant *after
	// diameter normalization*. Normalize two similar copies and compare.
	// The shape must have a unique diameter pair (a rectangle's diagonals
	// tie, which legitimately yields two different canonical frames — the
	// α-diameter copies in the base absorb that ambiguity).
	p := geom.NewPolygon(geom.Pt(0, 0), geom.Pt(2, 0), geom.Pt(2.2, 1.3), geom.Pt(0, 1))
	tr := geom.Transform{S: 3.7, Theta: 1.1, T: geom.Pt(-4, 9)}
	pc := p.Transform(tr)
	e1, err := NormalizeCanonical(p)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := NormalizeCanonical(pc)
	if err != nil {
		t.Fatal(err)
	}
	if d := AvgMinDistSym(e1.Poly, e2.Poly, 256); d > 1e-6 {
		t.Errorf("normalized similar copies should coincide, d = %v", d)
	}
}

func TestDirectedHausdorffAsymmetry(t *testing.T) {
	// A long segment vs a short one: h(long, short) > h(short, long).
	long := geom.NewPolyline(geom.Pt(0, 0), geom.Pt(10, 0))
	short := geom.NewPolyline(geom.Pt(0, 0), geom.Pt(1, 0))
	hls := DirectedHausdorff(long, short, 256)
	hsl := DirectedHausdorff(short, long, 256)
	if hls <= hsl {
		t.Errorf("expected asymmetry: h(long,short)=%v h(short,long)=%v", hls, hsl)
	}
	if !almostEq(hsl, 0, 1e-9) {
		t.Errorf("short ⊂ long: directed distance should be 0, got %v", hsl)
	}
}

func TestDefaultSamples(t *testing.T) {
	if DefaultSamples(4) != 64 {
		t.Errorf("floor: %d", DefaultSamples(4))
	}
	if DefaultSamples(100) != 400 {
		t.Errorf("4n: %d", DefaultSamples(100))
	}
}

// Property: AvgMinDist(A,B) is between 0 and Hausdorff(A,B); translating
// both shapes together leaves the measure unchanged.
func TestQuickMeasureBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomStar(rng, 4+rng.Intn(8))
		b := randomStar(rng, 4+rng.Intn(8))
		avg := AvgMinDist(a, b, 128)
		h := DirectedHausdorff(a, b, 128)
		if avg < -1e-12 || avg > h+1e-9 {
			return false
		}
		off := geom.Translation(geom.Pt(rng.Float64()*10, rng.Float64()*10))
		avg2 := AvgMinDist(a.Transform(off), b.Transform(off), 128)
		return almostEq(avg, avg2, 1e-6*(1+avg))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// randomStar builds a simple star-shaped polygon around the origin.
func randomStar(rng *rand.Rand, n int) geom.Poly {
	pts := make([]geom.Point, n)
	for i := range pts {
		a := 2 * math.Pi * float64(i) / float64(n)
		r := 1 + 2*rng.Float64()
		pts[i] = geom.Pt(r*math.Cos(a), r*math.Sin(a))
	}
	return geom.NewPolygon(pts...)
}
