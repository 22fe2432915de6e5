package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

// Property: the symmetric vertex measure is symmetric, non-negative, and
// zero on identical shapes.
func TestQuickSymVertexMeasure(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomStar(rng, 4+rng.Intn(8))
		b := randomStar(rng, 4+rng.Intn(8))
		dab := AvgMinDistVerticesSym(a, b)
		dba := AvgMinDistVerticesSym(b, a)
		if dab < 0 || math.Abs(dab-dba) > 1e-9*(1+dab) {
			return false
		}
		return AvgMinDistVerticesSym(a, a) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: the directed continuous measure is bounded by the vertex
// measure plus the sampling granularity — concretely, measures computed
// at two sampling densities agree within the coarser step.
func TestQuickSamplingStability(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomStar(rng, 5+rng.Intn(6))
		b := randomStar(rng, 5+rng.Intn(6))
		coarse := AvgMinDist(a, b, 128)
		fine := AvgMinDist(a, b, 1024)
		step := a.Perimeter() / 128
		return math.Abs(coarse-fine) <= step
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: NormalizeCanonical anchors the diameter at ((0,0),(1,0)) and
// every normalized vertex is inside the closed lune.
func TestQuickCanonicalAnchors(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomStar(rng, 4+rng.Intn(10))
		e, err := NormalizeCanonical(p)
		if err != nil {
			return false
		}
		if !e.Poly.Pts[e.DiamI].Eq(geom.Pt(0, 0), 1e-9) {
			return false
		}
		if !e.Poly.Pts[e.DiamJ].Eq(geom.Pt(1, 0), 1e-9) {
			return false
		}
		for _, v := range e.Poly.Pts {
			// InLune has an epsilon; allow the same slack here.
			if !InLune(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: Hausdorff dominates the average measure, and both are
// invariant when both shapes undergo the same similarity transform
// (up to sampling noise).
func TestQuickMeasureTransformInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomStar(rng, 4+rng.Intn(6))
		b := randomStar(rng, 4+rng.Intn(6))
		h := Hausdorff(a, b, 256)
		avg := AvgMinDistSym(a, b, 256)
		if avg > h+1e-9 {
			return false
		}
		tr := geom.Transform{
			S:     0.5 + rng.Float64()*3,
			Theta: rng.Float64() * 6,
			T:     geom.Pt(rng.Float64()*20-10, rng.Float64()*20-10),
		}
		avg2 := AvgMinDistSym(a.Transform(tr), b.Transform(tr), 256)
		// The measure scales with S under a joint transform.
		return math.Abs(avg2-tr.S*avg) <= 1e-6*(1+avg2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// The generalized Hausdorff is monotone non-increasing in k.
func TestGeneralizedHausdorffMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 20; trial++ {
		a := randomStar(rng, 6+rng.Intn(8))
		b := randomStar(rng, 6+rng.Intn(8))
		prev := math.Inf(1)
		for k := 1; k <= a.NumVertices(); k++ {
			cur := GeneralizedHausdorff(a, b, k)
			if cur > prev+1e-12 {
				t.Fatalf("trial %d: h_%d=%v > h_%d=%v", trial, k, cur, k-1, prev)
			}
			prev = cur
		}
	}
}
