package query

import (
	"math"

	"repro/internal/core"
	"repro/internal/geom"
)

// SignificantVertices computes V_S(Q) of §5.2 on the diameter-normalized
// query shape:
//
//	V_S(Q) = ½ Σᵢ [ (π−αᵢ)·αᵢ·4/π² + (l₍ᵢ₋₁₎ + lᵢ)/2 ]
//
// where αᵢ is the interior angle at vertex i (0 for chain endpoints,
// whose "angle" is degenerate) and lᵢ the length of the i-th edge in
// normalized units (diameter = 1). Each vertex contributes a term in
// [0, 1]: 1 is attained by a right angle whose adjacent edges both have
// diameter length. Degenerate vertices (angle near 0 or π, short edges)
// contribute little — V_S counts the structurally dominating vertices.
func SignificantVertices(q geom.Poly) float64 {
	e, err := core.NormalizeCanonical(q)
	if err != nil {
		return 0
	}
	p := e.Poly
	n := len(p.Pts)
	if n < 2 {
		return 0
	}
	edgeLen := func(i int) float64 {
		if p.Closed {
			return p.Edge(((i % n) + n) % n).Length()
		}
		if i < 0 || i >= n-1 {
			return 0 // beyond an open chain's ends
		}
		return p.Edge(i).Length()
	}
	var sum float64
	for i := 0; i < n; i++ {
		var alpha float64
		if p.Closed {
			alpha = geom.InteriorAngle(p.Pts[(i+n-1)%n], p.Pts[i], p.Pts[(i+1)%n])
		} else if i > 0 && i < n-1 {
			alpha = geom.InteriorAngle(p.Pts[i-1], p.Pts[i], p.Pts[i+1])
		} else {
			alpha = 0 // endpoint of an open chain
		}
		angleTerm := (math.Pi - alpha) * alpha * 4 / (math.Pi * math.Pi)
		lenTerm := (edgeLen(i-1) + edgeLen(i)) / 2
		sum += 0.5 * (angleTerm + lenTerm)
	}
	return sum
}

// Estimator predicts the size of shape_similar(Q) as c / V_S(Q) (§5.2:
// the result size is experimentally inversely proportional to the number
// of significant vertices). The paper adapts c after every query; here c
// is fixed when the database is built. Every planner decision compares
// two estimates, so c cancels out of each of them: adapting it could only
// change the estimate printed in a plan, and would make a read depend on
// the reads before it.
type Estimator struct {
	c float64
}

// NewEstimator fixes the constant from the base size: an average query
// (V_S ≈ 5) is guessed to match about 1% of the base.
func NewEstimator(baseShapes int) *Estimator {
	c := 0.01 * float64(baseShapes) * 5
	if c <= 0 {
		c = 1
	}
	return &Estimator{c: c}
}

// Estimate returns the predicted size of shape_similar(Q), given V_S(Q).
func (e *Estimator) Estimate(vs float64) float64 {
	if vs <= 0 {
		return e.c
	}
	return e.c / vs
}
