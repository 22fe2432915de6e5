package voronoi

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// direct is the vertex-averaged measure by brute force: every vertex of a
// against every edge of b.
func direct(a, b geom.Poly) float64 {
	var sum float64
	for _, p := range a.Pts {
		best := math.Inf(1)
		for e := 0; e < b.NumEdges(); e++ {
			best = min(best, b.Edge(e).DistToPoint(p))
		}
		sum += best
	}
	return sum / float64(len(a.Pts))
}

func randomStar(rng *rand.Rand, n int) geom.Poly {
	pts := make([]geom.Point, n)
	for i := range pts {
		a := 2 * math.Pi * float64(i) / float64(n)
		r := 1 + 2*rng.Float64()
		pts[i] = geom.Pt(r*math.Cos(a), r*math.Sin(a))
	}
	return geom.NewPolygon(pts...)
}

func TestVoronoiMeasureMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		a := randomStar(rng, 5+rng.Intn(15))
		b := randomStar(rng, 5+rng.Intn(15))
		want, got := direct(a, b), AvgMinDistVertices(a, b)
		if !almostEq(want, got, 1e-6*(1+want)) {
			t.Fatalf("trial %d: direct %v != voronoi %v", trial, want, got)
		}
	}
}

// The Voronoi-located measure must agree with the direct one on
// degenerate inputs too.
func TestVoronoiMeasureDegenerate(t *testing.T) {
	probe := geom.NewPolyline(geom.Pt(0, 1), geom.Pt(3, 1))
	for name, b := range map[string]geom.Poly{
		"collinear":  geom.NewPolyline(geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(2, 0), geom.Pt(3, 0)),
		"two-vertex": geom.NewPolyline(geom.Pt(0, 0), geom.Pt(2, 2)),
	} {
		if want, got := direct(probe, b), AvgMinDistVertices(probe, b); math.Abs(want-got) > 1e-9 {
			t.Errorf("%s: direct %v != voronoi %v", name, want, got)
		}
	}
}
