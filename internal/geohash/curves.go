// Package geohash implements the geometric hashing of §3: when the
// fattening algorithm finds no sufficiently similar shape, retrieval
// falls back to an approximate match through a family of unit-radius
// circular arcs that uniformly covers the lune (the locus of vertices of
// diameter-normalized shapes, split into four quarters). Each shape is
// associated with the curve per quarter that minimizes the average
// distance of its vertices in that quarter; lookup collects the shapes
// sharing the query's characteristic curves.
package geohash

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/geom"
)

// Quarter identifies one of the four quarters of the lune (Figure 4): the
// lune is split by the vertical line x = 1/2 and the horizontal axis.
type Quarter int

// The four quarters. Q1 and Q3 use arcs through (0,0); Q2 and Q4 arcs
// through (1,0).
const (
	Q1 Quarter = iota // upper left
	Q2                // upper right
	Q3                // lower left
	Q4                // lower right
)

// QuarterOf classifies a point of the lune into its quarter.
func QuarterOf(p geom.Point) Quarter {
	if p.Y >= 0 {
		if p.X < 0.5 {
			return Q1
		}
		return Q2
	}
	if p.X < 0.5 {
		return Q3
	}
	return Q4
}

// toQ1 maps a point of any quarter into the upper-left quarter's frame by
// the lune's mirror symmetries.
func toQ1(q Quarter, p geom.Point) geom.Point {
	switch q {
	case Q2:
		return geom.Pt(1-p.X, p.Y)
	case Q3:
		return geom.Pt(p.X, -p.Y)
	case Q4:
		return geom.Pt(1-p.X, -p.Y)
	default:
		return p
	}
}

// E computes the area function of §3 in closed form:
//
//	E(x) = ∫₀^min(2x,1/2) ( √(1-(t-x)²) − √(1-x²) ) dt
//	     = H(u-x) − H(−x) − u·√(1-x²),  u = min(2x, 1/2),
//
// with H(w) = (w·√(1-w²) + asin w)/2 the antiderivative of √(1-w²).
// E is the area swept in the upper-left quarter between the x-axis and
// the arc of the unit circle centered at (x, −√(1-x²)); it grows
// continuously from E(0)=0 to E(1)=A₀/4.
func E(x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x > 1 {
		x = 1
	}
	u := math.Min(2*x, 0.5)
	return hAnti(u-x) - hAnti(-x) - u*math.Sqrt(1-x*x)
}

func hAnti(w float64) float64 {
	w = math.Max(-1, math.Min(1, w))
	return (w*math.Sqrt(1-w*w) + math.Asin(w)) / 2
}

// DE computes ∂E/∂x, continuous on (0,1) (Figure 5, right):
//
//	x < 1/4:  dE/dx = 2x²/√(1-x²)
//	x ≥ 1/4:  dE/dx = √(1-x²) − √(1-(1/2−x)²) + x/√(1-x²)·1/2
func DE(x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		x = 1 - 1e-12
	}
	s := math.Sqrt(1 - x*x)
	if x < 0.25 {
		return 2 * x * x / s
	}
	u := 0.5
	return s - math.Sqrt(1-(u-x)*(u-x)) + u*x/s
}

// Family is a family of K unit-radius arcs per quarter partitioning each
// quarter into K regions of equal area A₀/(4K). Arc i (1-based) in the
// Q1 frame belongs to the unit circle centered at (xᵢ, −√(1-xᵢ²)), where
// xᵢ solves E(xᵢ) = (A₀/4)·(i/K).
type Family struct {
	K  int
	xs []float64 // xs[i-1] = xᵢ, increasing, xs[K-1] = 1
}

// NewFamily solves the K equal-area equations with a Newton iteration
// safeguarded by bisection ("fast gradient-based numerical methods").
func NewFamily(k int) (*Family, error) {
	if k < 1 {
		return nil, fmt.Errorf("geohash: family size %d < 1", k)
	}
	quarterArea := core.LuneArea / 4
	f := &Family{K: k, xs: make([]float64, k)}
	for i := 1; i <= k; i++ {
		target := quarterArea * float64(i) / float64(k)
		x, err := solveE(target)
		if err != nil {
			return nil, fmt.Errorf("geohash: solving curve %d/%d: %w", i, k, err)
		}
		f.xs[i-1] = x
	}
	return f, nil
}

// solveE finds x ∈ [0,1] with E(x) = target.
func solveE(target float64) (float64, error) {
	lo, hi := 0.0, 1.0
	if target <= 0 {
		return 0, nil
	}
	if target >= E(1) {
		return 1, nil
	}
	x := 0.5
	for iter := 0; iter < 100; iter++ {
		v := E(x) - target
		if math.Abs(v) < 1e-14 {
			return x, nil
		}
		if v > 0 {
			hi = x
		} else {
			lo = x
		}
		// Newton step, clamped into the bracket.
		d := DE(x)
		var nx float64
		if d > 1e-12 {
			nx = x - v/d
		}
		if !(nx > lo && nx < hi) {
			nx = (lo + hi) / 2
		}
		if math.Abs(nx-x) < 1e-15 {
			return nx, nil
		}
		x = nx
	}
	if hi-lo < 1e-9 {
		return (lo + hi) / 2, nil
	}
	return 0, fmt.Errorf("no convergence for target %v", target)
}

// CurveX returns the xᵢ parameter of the 1-based curve index i.
func (f *Family) CurveX(i int) float64 {
	if i < 1 {
		i = 1
	}
	if i > f.K {
		i = f.K
	}
	return f.xs[i-1]
}

// arcCenter returns the Q1-frame center of the curve with parameter x.
func arcCenter(x float64) geom.Point {
	return geom.Pt(x, -math.Sqrt(math.Max(0, 1-x*x)))
}

// distToArc returns the distance from a Q1-frame point to the full circle
// carrying curve x (the standard approximation of arc distance inside the
// quarter).
func distToArc(x float64, p geom.Point) float64 {
	return math.Abs(p.Dist(arcCenter(x)) - 1)
}

// DistToCurve returns the distance from p (in lune coordinates, any
// quarter) to curve i of quarter q.
func (f *Family) DistToCurve(q Quarter, i int, p geom.Point) float64 {
	return distToArc(f.CurveX(i), toQ1(q, p))
}

// avgDist returns the average distance of the (Q1-frame) points to the
// curve with parameter x.
func avgDist(x float64, pts []geom.Point) float64 {
	if len(pts) == 0 {
		return math.Inf(1)
	}
	c := arcCenter(x)
	var s float64
	for _, p := range pts {
		s += math.Abs(p.Dist(c) - 1) // distToArc(x, p), its centre read once
	}
	return s / float64(len(pts))
}

// bestCurveContinuous minimizes the average distance over the continuous
// family x ∈ [0,1]. For vertex sets that hug a single arc the objective
// has one local minimum (§3) and golden-section search suffices; for
// scattered clusters it can develop shallow secondary basins, so the
// search is seeded by a coarse grid scan and golden-section only refines
// the winning bracket.
func bestCurveContinuous(pts []geom.Point) float64 {
	const gridN = 96
	bestI, bestF := 0, math.Inf(1)
	for i := 0; i <= gridN; i++ {
		x := float64(i) / gridN
		if f := avgDist(x, pts); f < bestF {
			bestI, bestF = i, f
		}
	}
	lo := math.Max(0, float64(bestI-1)/gridN)
	hi := math.Min(1, float64(bestI+1)/gridN)

	const phi = 0.6180339887498949
	a := hi - phi*(hi-lo)
	b := lo + phi*(hi-lo)
	fa, fb := avgDist(a, pts), avgDist(b, pts)
	for iter := 0; iter < 60 && hi-lo > 1e-10; iter++ {
		if fa < fb {
			hi, b, fb = b, a, fa
			a = hi - phi*(hi-lo)
			fa = avgDist(a, pts)
		} else {
			lo, a, fa = a, b, fb
			b = lo + phi*(hi-lo)
			fb = avgDist(b, pts)
		}
	}
	return (lo + hi) / 2
}

// Characteristic computes the characteristic curve index (1-based) of the
// point set in each quarter: the discrete curve minimizing the average
// vertex distance. Quarters containing no vertices get index 0. Points
// outside the lune are clamped onto its boundary first (§3).
func (f *Family) Characteristic(pts []geom.Point) Quadruple {
	var buckets [4][]geom.Point
	for _, p := range pts {
		if !core.InLune(p) {
			p = core.ClampToLune(p)
		}
		q := QuarterOf(p)
		buckets[q] = append(buckets[q], toQ1(q, p))
	}
	var out Quadruple
	for q := 0; q < 4; q++ {
		if len(buckets[q]) == 0 {
			out[q] = 0
			continue
		}
		xStar := bestCurveContinuous(buckets[q])
		out[q] = f.nearestIndex(xStar, buckets[q])
	}
	return out
}

// nearestIndex maps the continuous optimum to the best discrete neighbor,
// comparing the actual average distance of the two candidates around the
// optimum ("select the discrete neighbor that lies closest").
func (f *Family) nearestIndex(xStar float64, pts []geom.Point) int {
	// Locate by area fraction: i ≈ E(x*) / (A₀/4K).
	frac := E(xStar) / (core.LuneArea / 4)
	i := int(math.Round(frac * float64(f.K)))
	best, bestD := 0, math.Inf(1)
	for _, c := range [3]int{i - 1, i, i + 1} {
		if c < 1 || c > f.K {
			continue
		}
		if d := avgDist(f.xs[c-1], pts); d < bestD {
			best, bestD = c, d
		}
	}
	if best == 0 {
		best = 1
		if i > f.K {
			best = f.K
		}
	}
	return best
}

// Quadruple is the characteristic hash signature of a shape: one curve
// index per quarter (1-based; 0 = no vertices in that quarter). It is
// also the sort key of the external-storage layouts (§4.1).
type Quadruple [4]int

// Mean returns round((c1+c2+c3+c4)/4) over the non-empty quarters —
// sorting method (i) of §4.1.
func (q Quadruple) Mean() int {
	sum, n := 0, 0
	for _, c := range q {
		if c > 0 {
			sum += c
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return int(math.Round(float64(sum) / float64(n)))
}

// MedianNearMean implements sorting method (iii) of §4.1: sort the four
// elements, take the two medians, and of those pick the one closest to
// the mean.
func (q Quadruple) MedianNearMean() int {
	vals := []int{q[0], q[1], q[2], q[3]}
	for i := 1; i < 4; i++ {
		for j := i; j > 0 && vals[j] < vals[j-1]; j-- {
			vals[j], vals[j-1] = vals[j-1], vals[j]
		}
	}
	m1, m2 := vals[1], vals[2]
	mean := float64(vals[0]+vals[1]+vals[2]+vals[3]) / 4
	if math.Abs(float64(m1)-mean) <= math.Abs(float64(m2)-mean) {
		return m1
	}
	return m2
}

// Less orders quadruples lexicographically — sorting method (ii) of §4.1.
func (q Quadruple) Less(r Quadruple) bool {
	for i := 0; i < 4; i++ {
		if q[i] != r[i] {
			return q[i] < r[i]
		}
	}
	return false
}
