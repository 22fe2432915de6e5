// Package shapeindex provides nearest-feature query structures over the
// geometry of a shape: a uniform grid over its edges for
// nearest-point-on-boundary queries (the inner min of the h_avg similarity
// measure, evaluated against the continuous boundary), and a kd-tree over
// point sets for nearest-vertex queries.
package shapeindex

import (
	"fmt"
	"math"

	"repro/internal/geom"
)

// SegmentGrid answers nearest-segment queries over a fixed set of
// segments using a uniform bucket grid searched outward from the query
// point's cell.
// Build is O(n) for n segments of bounded length; queries on
// image-extracted shapes (short, evenly sized edges) are O(1) expected.
//
// The segments are stored flattened into contiguous structure-of-arrays
// float64 slices (endpoint, direction, inverse squared length) and the
// cells as a CSR layout (cellStart offsets into one shared id slice), so
// the inner distance loop of a query touches only dense sequential
// float64 data — no per-cell slice headers, no geom.Point indirection —
// and works in squared distances with a single square root at the end.
type SegmentGrid struct {
	ax, ay, dx, dy []float64 // segment start points and direction vectors
	invL2          []float64 // 1 / |d|² (0 for degenerate segments)
	bounds         geom.Rect
	nx, ny         int
	cw, ch         float64 // cell width/height
	cellStart      []int32 // len nx*ny+1: CSR offsets into cellIDs
	cellIDs        []int32
}

// NewSegmentGrid indexes the given segments. It panics on an empty input
// since a grid over nothing has no meaningful queries.
func NewSegmentGrid(segs []geom.Segment) *SegmentGrid {
	if len(segs) == 0 {
		panic("shapeindex: NewSegmentGrid on empty segment set")
	}
	b := geom.EmptyRect()
	for _, s := range segs {
		b = b.Union(s.Bounds())
	}
	// Degenerate extents still need a positive cell size.
	w := math.Max(b.Width(), 1e-9)
	h := math.Max(b.Height(), 1e-9)
	n := len(segs)
	side := int(math.Ceil(math.Sqrt(float64(n))))
	if side < 1 {
		side = 1
	}
	g := &SegmentGrid{
		ax:     make([]float64, n),
		ay:     make([]float64, n),
		dx:     make([]float64, n),
		dy:     make([]float64, n),
		invL2:  make([]float64, n),
		bounds: b,
		nx:     side,
		ny:     side,
		cw:     w / float64(side),
		ch:     h / float64(side),
	}
	for i, s := range segs {
		g.ax[i], g.ay[i] = s.A.X, s.A.Y
		g.dx[i], g.dy[i], g.invL2[i] = segSetup(s.A, s.B)
	}
	// CSR cell build: count memberships, prefix-sum, then fill.
	counts := make([]int32, g.nx*g.ny)
	g.eachCell(segs, func(idx int, id int32) { counts[idx]++ })
	g.cellStart = make([]int32, len(counts)+1)
	for i, c := range counts {
		g.cellStart[i+1] = g.cellStart[i] + c
	}
	g.cellIDs = make([]int32, g.cellStart[len(counts)])
	fill := make([]int32, len(counts))
	g.eachCell(segs, func(idx int, id int32) {
		g.cellIDs[g.cellStart[idx]+fill[idx]] = id
		fill[idx]++
	})
	return g
}

// eachCell invokes fn for every (cell, segment) membership: each segment
// is recorded in every cell of its bounding box that it touches, and in
// those it misses by no more than the rounding of a cell's edges.
func (g *SegmentGrid) eachCell(segs []geom.Segment, fn func(idx int, id int32)) {
	// The rounding in which cellOf and cellRect can disagree about where a
	// cell ends: a few units in the grid's magnitudes.
	b := g.bounds
	slack := (math.Abs(b.Min.X) + math.Abs(b.Max.X) + math.Abs(b.Min.Y) + math.Abs(b.Max.Y)) * 0x1p-50
	for i, s := range segs {
		sb := s.Bounds()
		x0, y0 := g.cellOf(sb.Min)
		x1, y1 := g.cellOf(sb.Max)
		for cy := y0; cy <= y1; cy++ {
			for cx := x0; cx <= x1; cx++ {
				if segmentTouchesRect(s, g.cellRect(cx, cy), slack) {
					fn(g.cellIndex(cx, cy), int32(i))
				}
			}
		}
	}
}

func (g *SegmentGrid) cellIndex(cx, cy int) int { return cy*g.nx + cx }

func (g *SegmentGrid) cellOf(p geom.Point) (int, int) {
	cx := int((p.X - g.bounds.Min.X) / g.cw)
	cy := int((p.Y - g.bounds.Min.Y) / g.ch)
	if cx < 0 {
		cx = 0
	}
	if cx >= g.nx {
		cx = g.nx - 1
	}
	if cy < 0 {
		cy = 0
	}
	if cy >= g.ny {
		cy = g.ny - 1
	}
	return cx, cy
}

// cellRect returns cell (cx, cy): bounded by the grid lines nearest2
// measures its gaps to, except that the outer cells reach the grid's
// bounds. The walk counts a side where the grid ends as settled, and at a
// large magnitude the last line can round well inside the bounds.
func (g *SegmentGrid) cellRect(cx, cy int) geom.Rect {
	r := g.bounds
	if cx > 0 {
		r.Min.X = g.bounds.Min.X + float64(cx)*g.cw
	}
	if cx < g.nx-1 {
		r.Max.X = g.bounds.Min.X + float64(cx+1)*g.cw
	}
	if cy > 0 {
		r.Min.Y = g.bounds.Min.Y + float64(cy)*g.ch
	}
	if cy < g.ny-1 {
		r.Max.Y = g.bounds.Min.Y + float64(cy+1)*g.ch
	}
	return r
}

// segmentTouchesRect reports whether s touches r, a cell of s's bounding
// box grown by slack on every side: unless the grown cell's corners lie
// strictly on one side of s's line. A cross product within its own
// rounding of 0 counts as on the line, so a segment is never left out of a
// cell it touches, at any scale (a tolerance in absolute units,
// geom.Orientation's, drops segments crossing a thin grid's cells).
func segmentTouchesRect(s geom.Segment, r geom.Rect, slack float64) bool {
	r = geom.Rect{Min: geom.Pt(r.Min.X-slack, r.Min.Y-slack), Max: geom.Pt(r.Max.X+slack, r.Max.Y+slack)}
	dx, dy := s.B.X-s.A.X, s.B.Y-s.A.Y
	above, below := false, false
	for _, c := range r.Corners() {
		u, v := dx*(c.Y-s.A.Y), dy*(c.X-s.A.X)
		round := (math.Abs(u) + math.Abs(v)) * 0x1p-50
		switch d := u - v; {
		case d > round:
			above = true
		case d < -round:
			below = true
		default:
			return true
		}
	}
	return above && below
}

// NumSegments returns the number of indexed segments.
func (g *SegmentGrid) NumSegments() int { return len(g.ax) }

// Segment returns the i-th indexed segment.
func (g *SegmentGrid) Segment(i int) geom.Segment {
	return geom.Seg(geom.Pt(g.ax[i], g.ay[i]), geom.Pt(g.ax[i]+g.dx[i], g.ay[i]+g.dy[i]))
}

// nearest2 is the one exact nearest-segment walk: the index of the segment
// closest to p and the squared distance to it, (-1, +Inf) when nothing is
// closer than +Inf (a non-finite p), and how many segment evaluations that
// took.
//
// It scans p's own cell, then grows the box of settled cells [x0,x1]×[y0,y1]
// a side at a time, left, right, down, up in turn, but only on sides that can
// still matter. Every segment is listed in each cell it touches, so one
// listed only in cells left of the box lies wholly left of the box's left
// edge, at least p.X − edge away — likewise on the other three sides — and
// once that gap, less slack, squared reaches the best squared distance the
// side is settled for good (the gap never shrinks, the best never grows).
// The slack bounds what rounding can take off a distance: the kernel's own
// (its stored direction is B − A rounded, its products round), a segment
// listed by a rounded cell test, and the gap's. Each is a few units of
// rounding in the magnitudes involved, and p's offsets from the grid's
// bounds bound those, so slack is their sum times 2⁻⁴⁶. A side
// where the grid ends has nothing left to scan. The walk ends when all four
// sides are settled, so by the box reaching the grid's edge if by nothing
// sooner, whatever the arrays hold and whatever p is: a NaN gap compares
// false and settles its side.
//
// A cell row is one run of cellIDs (cell y·nx+x starts where cell y·nx+x−1
// ends), so a strip of cells is scanned row by row without a per-cell step;
// a segment listed in several of the cells is evaluated again, to the same
// value. The result is the minimum of the one kernel (SegDist2) over a set
// of segments that holds a nearest one, so any walk with an admissible
// bound returns the same bits — Edges.Dist's scan of every segment among
// them.
func (g *SegmentGrid) nearest2(p geom.Point) (best int, best2 float64, evals int) {
	// One length for the five segment arrays: one bounds check per segment.
	ax := g.ax
	ay, dx, dy, invL2 := g.ay[:len(ax)], g.dx[:len(ax)], g.dy[:len(ax)], g.invL2[:len(ax)]
	cellStart, cellIDs := g.cellStart, g.cellIDs
	px, py := p.X, p.Y
	minX, minY, cw, ch := g.bounds.Min.X, g.bounds.Min.Y, g.cw, g.ch
	maxX, maxY := g.bounds.Max.X, g.bounds.Max.Y
	slack := (math.Abs(px-minX) + math.Abs(px-maxX) + math.Abs(py-minY) + math.Abs(py-maxY)) * 0x1p-46
	x0, y0 := g.cellOf(p)
	x1, y1 := x0, y0
	best, best2 = -1, math.Inf(1)
	xa, xb, ya, yb := x0, x0, y0, y0 // the strip of cells to scan: p's own first
walk:
	for side := 0; ; {
		for y := ya; y <= yb; y++ {
			row := y * g.nx
			run := cellIDs[cellStart[row+xa]:cellStart[row+xb+1]]
			evals += len(run)
			for _, id := range run {
				d2 := SegDist2(px, py, ax[id], ay[id], dx[id], dy[id], invL2[id])
				if d2 < best2 {
					best = int(id)
				}
				best2 = min(best2, d2)
			}
		}
		// The next strip: the box grown by the next side, in turn, that is
		// not settled. A column spans the box's rows and a row its columns,
		// so the box stays a box of settled cells.
		for settled := 0; ; settled++ {
			if settled == 4 {
				break walk
			}
			s := side
			side = (side + 1) & 3
			switch {
			case s == 0 && x0 > 0 && gapBeats(px-(minX+float64(x0)*cw)-slack, best2):
				x0--
				xa, xb, ya, yb = x0, x0, y0, y1
			case s == 1 && x1 < g.nx-1 && gapBeats(minX+float64(x1+1)*cw-px-slack, best2):
				x1++
				xa, xb, ya, yb = x1, x1, y0, y1
			case s == 2 && y0 > 0 && gapBeats(py-(minY+float64(y0)*ch)-slack, best2):
				y0--
				xa, xb, ya, yb = x0, x1, y0, y0
			case s == 3 && y1 < g.ny-1 && gapBeats(minY+float64(y1+1)*ch-py-slack, best2):
				y1++
				xa, xb, ya, yb = x0, x1, y1, y1
			default:
				continue
			}
			break
		}
	}
	if math.IsNaN(best2) {
		// min keeps a NaN, which only a non-finite p (or one so far out that
		// its dot products overflow) produces: no segment is at a distance.
		return -1, math.Inf(1), evals
	}
	return best, best2, evals
}

// gapBeats reports whether a segment beyond a gap could be nearer than
// best2, a squared distance. A gap below zero (p is within slack of the
// edge) is no gap.
func gapBeats(gap, best2 float64) bool {
	gap = max(gap, 0)
	return gap*gap < best2
}

// Nearest returns the index of the segment closest to p and the distance
// to it: (-1, +Inf) for a p with a non-finite coordinate. Among segments at
// the same distance which one is returned is unspecified.
func (g *SegmentGrid) Nearest(p geom.Point) (int, float64) {
	i, d2, _ := g.nearest2(p)
	return i, math.Sqrt(d2)
}

// Dist returns the distance from p to the nearest indexed segment.
func (g *SegmentGrid) Dist(p geom.Point) float64 {
	_, d2, _ := g.nearest2(p)
	return math.Sqrt(d2)
}

// String implements fmt.Stringer with a capacity summary.
func (g *SegmentGrid) String() string {
	return fmt.Sprintf("SegmentGrid{%d segments, %dx%d cells}", len(g.ax), g.nx, g.ny)
}

// GridParts is the flattened state of a SegmentGrid: the query's distance
// field is built from its segment arrays. The slices are the grid's live
// internals — callers must not mutate them.
type GridParts struct {
	Ax, Ay, Dx, Dy []float64 // segment start points and direction vectors
	InvL2          []float64 // 1 / |d|² (0 for degenerate segments)
	Bounds         geom.Rect
	Nx, Ny         int
	Cw, Ch         float64
	CellStart      []int32 // len Nx*Ny+1: CSR offsets into CellIDs
	CellIDs        []int32
}

// Parts returns the grid's flattened state.
func (g *SegmentGrid) Parts() GridParts {
	return GridParts{
		Ax: g.ax, Ay: g.ay, Dx: g.dx, Dy: g.dy, InvL2: g.invL2,
		Bounds: g.bounds, Nx: g.nx, Ny: g.ny, Cw: g.cw, Ch: g.ch,
		CellStart: g.cellStart, CellIDs: g.cellIDs,
	}
}
