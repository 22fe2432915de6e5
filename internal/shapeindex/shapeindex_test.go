package shapeindex

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func randomSegments(rng *rand.Rand, n int, scale float64) []geom.Segment {
	segs := make([]geom.Segment, n)
	for i := range segs {
		a := geom.Pt(rng.Float64()*scale, rng.Float64()*scale)
		d := geom.Pt(rng.NormFloat64(), rng.NormFloat64()).Unit().Scale(scale / 20)
		segs[i] = geom.Seg(a, a.Add(d))
	}
	return segs
}

func bruteNearestSeg(segs []geom.Segment, p geom.Point) (int, float64) {
	best, bd := -1, math.Inf(1)
	for i, s := range segs {
		if d := s.DistToPoint(p); d < bd {
			best, bd = i, d
		}
	}
	return best, bd
}

func TestSegmentGridPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on empty input")
		}
	}()
	NewSegmentGrid(nil)
}

func TestSegmentGridSingle(t *testing.T) {
	g := NewSegmentGrid([]geom.Segment{geom.Seg(geom.Pt(0, 0), geom.Pt(1, 0))})
	if g.NumSegments() != 1 {
		t.Fatalf("NumSegments = %d", g.NumSegments())
	}
	i, d := g.Nearest(geom.Pt(0.5, 2))
	if i != 0 || !almostEq(d, 2, 1e-12) {
		t.Errorf("Nearest = %d, %v", i, d)
	}
	if !almostEq(g.Dist(geom.Pt(-3, 0)), 3, 1e-12) {
		t.Errorf("Dist = %v", g.Dist(geom.Pt(-3, 0)))
	}
}

func TestSegmentGridMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 8; trial++ {
		segs := randomSegments(rng, 50+rng.Intn(200), 10)
		g := NewSegmentGrid(segs)
		for q := 0; q < 100; q++ {
			// Mix of interior and far-outside query points.
			p := geom.Pt(rng.Float64()*16-3, rng.Float64()*16-3)
			_, gd := g.Nearest(p)
			_, bd := bruteNearestSeg(segs, p)
			if !almostEq(gd, bd, 1e-9*(1+bd)) {
				t.Fatalf("trial %d: grid %v != brute %v at %v", trial, gd, bd, p)
			}
		}
	}
}

func TestSegmentGridPolygonBoundary(t *testing.T) {
	sq := geom.NewPolygon(geom.Pt(0, 0), geom.Pt(4, 0), geom.Pt(4, 4), geom.Pt(0, 4))
	g := NewSegmentGrid(sq.Edges())
	if d := g.Dist(geom.Pt(2, 2)); !almostEq(d, 2, 1e-12) {
		t.Errorf("center dist = %v", d)
	}
	if d := g.Dist(geom.Pt(6, 2)); !almostEq(d, 2, 1e-12) {
		t.Errorf("outside dist = %v", d)
	}
	if d := g.Dist(geom.Pt(2, 0)); !almostEq(d, 0, 1e-12) {
		t.Errorf("boundary dist = %v", d)
	}
}

// Property: grid nearest distance equals brute force on random inputs.
func TestQuickSegmentGrid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		segs := randomSegments(rng, 5+rng.Intn(40), 4)
		g := NewSegmentGrid(segs)
		p := geom.Pt(rng.Float64()*8-2, rng.Float64()*8-2)
		_, gd := g.Nearest(p)
		_, bd := bruteNearestSeg(segs, p)
		return almostEq(gd, bd, 1e-9*(1+bd))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
