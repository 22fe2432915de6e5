package shapeindex

import (
	"math"

	"repro/internal/geom"
)

// SegDist2 is the one segment kernel: the squared distance from (px, py) to
// the segment that starts at (ax, ay) and runs along (dx, dy), with invL2
// as segSetup gives it. The grid's walk, the query's distance field and
// Edges.Dist all call it, so a distance has the same bits whichever of them
// measured it, whatever the compiler fuses.
func SegDist2(px, py, ax, ay, dx, dy, invL2 float64) float64 {
	wx, wy := px-ax, py-ay
	t := min(max((wx*dx+wy*dy)*invL2, 0), 1)
	ex, ey := wx-t*dx, wy-t*dy
	return ex*ex + ey*ey
}

// segSetup is what the kernel reads of the segment a→b besides its start:
// the direction b − a and 1/|b − a|², or 0 where that is not finite. A
// degenerate segment, or one so short that the inverse overflows, is then
// measured at its start: an infinite invL2 would turn a probe square to the
// segment (a dot product of 0) into a NaN.
func segSetup(a, b geom.Point) (dx, dy, invL2 float64) {
	dx, dy = b.X-a.X, b.Y-a.Y
	if inv := 1 / (dx*dx + dy*dy); inv < math.Inf(1) {
		invL2 = inv
	}
	return dx, dy, invL2
}

// Seg is one segment as the kernel reads it.
type Seg struct{ ax, ay, dx, dy, invL2 float64 }

// Edges is a boundary without a grid: its segments, set up exactly as
// NewSegmentGrid sets up its own. Dist evaluates every one, O(n) per point
// where the grid's walk is O(1) expected, and returns the walk's bits: the
// walk returns the kernel's minimum over a set of segments that holds a
// nearest one. A stored copy has at most a few dozen edges and is probed
// at a query's ~20 vertices: too few probes for a grid to pay for itself.
type Edges []Seg

// AppendEdges appends the edges of p, in p.Edges's order, to dst.
func AppendEdges(dst Edges, p geom.Poly) Edges {
	for i, m := 0, p.NumEdges(); i < m; i++ {
		s := p.Edge(i)
		dx, dy, invL2 := segSetup(s.A, s.B)
		dst = append(dst, Seg{s.A.X, s.A.Y, dx, dy, invL2})
	}
	return dst
}

// Dist returns the distance from p to the nearest edge: +Inf for a p with a
// non-finite coordinate, and for no edges.
func (e Edges) Dist(p geom.Point) float64 {
	best2 := math.Inf(1)
	for i := range e {
		s := &e[i]
		best2 = min(best2, SegDist2(p.X, p.Y, s.ax, s.ay, s.dx, s.dy, s.invL2))
	}
	if math.IsNaN(best2) {
		return math.Inf(1) // as the walk: only a non-finite p makes one
	}
	return math.Sqrt(best2)
}
