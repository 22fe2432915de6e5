package geom

import (
	"errors"
	"fmt"
	"math"
)

// Poly is a polygonal chain: a sequence of vertices joined by straight
// edges. When Closed is true the last vertex connects back to the first
// and the chain bounds a region; otherwise it is an open polyline.
//
// GeoSIR shapes (object boundaries extracted from images) are exactly
// non-self-intersecting Polys, per §2.4 of the paper.
type Poly struct {
	Pts    []Point
	Closed bool
}

// NewPolygon constructs a closed Poly from the given vertices.
func NewPolygon(pts ...Point) Poly { return Poly{Pts: pts, Closed: true} }

// NewPolyline constructs an open Poly from the given vertices.
func NewPolyline(pts ...Point) Poly { return Poly{Pts: pts, Closed: false} }

// Clone returns a deep copy of p.
func (p Poly) Clone() Poly {
	pts := make([]Point, len(p.Pts))
	copy(pts, p.Pts)
	return Poly{Pts: pts, Closed: p.Closed}
}

// NumVertices returns the number of vertices.
func (p Poly) NumVertices() int { return len(p.Pts) }

// NumEdges returns the number of edges: n for a closed chain with n ≥ 3
// vertices, n-1 for an open chain.
func (p Poly) NumEdges() int {
	n := len(p.Pts)
	if n < 2 {
		return 0
	}
	if p.Closed {
		return n
	}
	return n - 1
}

// Edge returns the i-th edge (0-based). For closed chains edge n-1 joins
// the last vertex back to the first.
func (p Poly) Edge(i int) Segment {
	j := i + 1
	if j == len(p.Pts) {
		j = 0
	}
	return Segment{p.Pts[i], p.Pts[j]}
}

// Edges returns all edges as a slice.
func (p Poly) Edges() []Segment {
	m := p.NumEdges()
	out := make([]Segment, m)
	for i := 0; i < m; i++ {
		out[i] = p.Edge(i)
	}
	return out
}

// Perimeter returns the total edge length of p.
func (p Poly) Perimeter() float64 {
	var sum float64
	for i := 0; i < p.NumEdges(); i++ {
		sum += p.Edge(i).Length()
	}
	return sum
}

// SignedArea returns the signed area of a closed chain (positive when the
// vertices are in counter-clockwise order). Open chains have zero area.
func (p Poly) SignedArea() float64 {
	if !p.Closed || len(p.Pts) < 3 {
		return 0
	}
	var s float64
	for i := 0; i < len(p.Pts); i++ {
		e := p.Edge(i)
		s += e.A.Cross(e.B)
	}
	return s / 2
}

// Area returns the absolute area enclosed by a closed chain.
func (p Poly) Area() float64 { return math.Abs(p.SignedArea()) }

// Centroid returns the centroid of the vertex set. (The vertex centroid is
// what the matching layer needs; it is not the area centroid.)
func (p Poly) Centroid() Point {
	if len(p.Pts) == 0 {
		return Point{}
	}
	var c Point
	for _, q := range p.Pts {
		c = c.Add(q)
	}
	return c.Scale(1 / float64(len(p.Pts)))
}

// Bounds returns the axis-aligned bounding box of the vertices.
func (p Poly) Bounds() Rect { return RectOf(p.Pts...) }

// Reverse returns p with the vertex order reversed.
func (p Poly) Reverse() Poly {
	q := p.Clone()
	for i, j := 0, len(q.Pts)-1; i < j; i, j = i+1, j-1 {
		q.Pts[i], q.Pts[j] = q.Pts[j], q.Pts[i]
	}
	return q
}

// Transform returns p with t applied to every vertex: Apply's bits, with
// one Sincos for all of them.
func (p Poly) Transform(t Transform) Poly {
	s, c := math.Sincos(t.Theta)
	return Poly{Pts: t.appendApplied(nil, p.Pts, s, c), Closed: p.Closed}
}

// ContainsPoint reports whether pt lies inside (or on the boundary of) a
// closed chain, using the even-odd crossing rule. Open chains contain
// only their boundary points.
func (p Poly) ContainsPoint(pt Point) bool {
	if p.OnBoundary(pt, Eps) {
		return true
	}
	if !p.Closed || len(p.Pts) < 3 {
		return false
	}
	inside := false
	n := len(p.Pts)
	for i := 0; i < n; i++ {
		a, b := p.Pts[i], p.Pts[(i+1)%n]
		if (a.Y > pt.Y) != (b.Y > pt.Y) {
			x := a.X + (pt.Y-a.Y)/(b.Y-a.Y)*(b.X-a.X)
			if pt.X < x {
				inside = !inside
			}
		}
	}
	return inside
}

// OnBoundary reports whether pt lies on one of p's edges within tolerance
// tol.
func (p Poly) OnBoundary(pt Point, tol float64) bool {
	for i := 0; i < p.NumEdges(); i++ {
		if p.Edge(i).DistToPoint(pt) <= tol {
			return true
		}
	}
	return false
}

// DistToPoint returns the minimum distance from pt to the chain (its
// boundary, not its interior).
func (p Poly) DistToPoint(pt Point) float64 {
	if len(p.Pts) == 1 {
		return pt.Dist(p.Pts[0])
	}
	best := math.Inf(1)
	for i := 0; i < p.NumEdges(); i++ {
		if d := p.Edge(i).DistToPoint(pt); d < best {
			best = d
		}
	}
	return best
}

// IsSimple reports whether the chain is non-self-intersecting: no two
// non-adjacent edges share a point, and adjacent edges meet only at their
// common vertex.
func (p Poly) IsSimple() bool {
	m := p.NumEdges()
	if m <= 1 {
		return true
	}
	for i := 0; i < m; i++ {
		ei := p.Edge(i)
		for j := i + 1; j < m; j++ {
			adjacent := j == i+1 || (p.Closed && i == 0 && j == m-1)
			ej := p.Edge(j)
			if adjacent {
				if ei.ProperlyIntersects(ej) {
					return false
				}
				// Adjacent edges may only share the single common vertex;
				// a collinear overlap makes the chain degenerate.
				if Collinear(ei.A, ei.B, ej.B) && ei.onSegment(ej.B) && !ei.B.Eq(ej.B, Eps) && !ei.A.Eq(ej.B, Eps) {
					return false
				}
				continue
			}
			if hit, _ := ei.Intersect(ej); hit {
				return false
			}
		}
	}
	return true
}

// Diameter returns the pair of vertex indices (i, j) realizing the largest
// inter-vertex distance, and that distance. For chains with at least a few
// dozen vertices it uses the convex hull and rotating calipers
// (O(n log n)); tiny chains fall back to the quadratic scan.
func (p Poly) Diameter() (i, j int, d float64) {
	n := len(p.Pts)
	switch {
	case n == 0:
		return 0, 0, 0
	case n == 1:
		return 0, 0, 0
	case n <= 32:
		return p.diameterBrute()
	default:
		return diameterCalipers(p.Pts)
	}
}

func (p Poly) diameterBrute() (bi, bj int, bd float64) {
	for i := 0; i < len(p.Pts); i++ {
		for j := i + 1; j < len(p.Pts); j++ {
			if d := p.Pts[i].Dist2(p.Pts[j]); d > bd {
				bd, bi, bj = d, i, j
			}
		}
	}
	return bi, bj, math.Sqrt(bd)
}

// AlphaDiameters returns all vertex pairs whose distance is at least
// (1-alpha) times the diameter, per §2.4. The true diameter pair is always
// included. alpha must be in [0, 1).
func (p Poly) AlphaDiameters(alpha float64) []([2]int) {
	_, _, d := p.Diameter()
	if d == 0 {
		return nil
	}
	thr := (1 - alpha) * d
	thr2 := thr * thr
	var out [][2]int
	for i := 0; i < len(p.Pts); i++ {
		for j := i + 1; j < len(p.Pts); j++ {
			if p.Pts[i].Dist2(p.Pts[j]) >= thr2-Eps {
				out = append(out, [2]int{i, j})
			}
		}
	}
	return out
}

// Validate checks that p is a usable shape: at least two distinct vertices
// (three for a closed chain), finite coordinates, no zero-length edges, and
// simplicity.
func (p Poly) Validate() error {
	minV := 2
	if p.Closed {
		minV = 3
	}
	if len(p.Pts) < minV {
		return fmt.Errorf("geom: chain has %d vertices, need at least %d", len(p.Pts), minV)
	}
	for k, q := range p.Pts {
		if !q.IsFinite() {
			return fmt.Errorf("geom: vertex %d is not finite: %v", k, q)
		}
	}
	for i := 0; i < p.NumEdges(); i++ {
		if p.Edge(i).Length() <= Eps {
			return fmt.Errorf("geom: zero-length edge %d", i)
		}
	}
	if !p.IsSimple() {
		return errors.New("geom: chain is self-intersecting")
	}
	return nil
}

// Resample returns k points spread uniformly (by arc length) along the
// chain, including the start vertex. Closed chains wrap around; open
// chains include the final vertex as the k-th point when k ≥ 2.
// Resample is the basis of the continuous-boundary average distance.
func (p Poly) Resample(k int) []Point {
	return p.ResampleInto(nil, k)
}

// ResampleInto is Resample writing into dst's backing array (grown as
// needed), so hot loops can reuse one buffer across calls instead of
// allocating k points per evaluation. It returns the filled slice; the
// produced points are identical to Resample's.
func (p Poly) ResampleInto(dst []Point, k int) []Point {
	if k <= 0 || len(p.Pts) == 0 {
		return nil
	}
	out := dst[:0]
	if len(p.Pts) == 1 {
		for i := 0; i < k; i++ {
			out = append(out, p.Pts[0])
		}
		return out
	}
	total := p.Perimeter()
	if total == 0 {
		for i := 0; i < k; i++ {
			out = append(out, p.Pts[0])
		}
		return out
	}
	var step float64
	if p.Closed {
		step = total / float64(k)
	} else {
		if k == 1 {
			return append(out, p.Pts[0])
		}
		step = total / float64(k-1)
	}
	edge := 0
	edgeLen := p.Edge(0).Length()
	pos := 0.0 // distance consumed on current edge
	target := 0.0
	walked := 0.0
	for len(out) < k {
		for target-walked > edgeLen-pos+Eps {
			walked += edgeLen - pos
			pos = 0
			edge++
			if edge >= p.NumEdges() {
				// Numerical tail: clamp to final vertex.
				last := p.Pts[len(p.Pts)-1]
				if p.Closed {
					last = p.Pts[0]
				}
				for len(out) < k {
					out = append(out, last)
				}
				return out
			}
			edgeLen = p.Edge(edge).Length()
		}
		pos += target - walked
		walked = target
		e := p.Edge(edge)
		out = append(out, e.At(pos/edgeLen))
		target += step
	}
	return out
}

// VertexDistancesTo returns, for each vertex of p, its distance to the
// chain q. This is the inner "min" of the similarity measure evaluated at
// p's vertices.
func (p Poly) VertexDistancesTo(q Poly) []float64 {
	out := make([]float64, len(p.Pts))
	for i, v := range p.Pts {
		out[i] = q.DistToPoint(v)
	}
	return out
}
