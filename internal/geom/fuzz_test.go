package geom

import (
	"encoding/binary"
	"math"
	"testing"
)

// fuzzPoints decodes up to maxN points from raw fuzz bytes (16 bytes per
// point, little-endian float64 pairs).
func fuzzPoints(data []byte, maxN int) []Point {
	n := len(data) / 16
	if n > maxN {
		n = maxN
	}
	pts := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		x := math.Float64frombits(binary.LittleEndian.Uint64(data[16*i:]))
		y := math.Float64frombits(binary.LittleEndian.Uint64(data[16*i+8:]))
		pts = append(pts, Pt(x, y))
	}
	return pts
}

// snapPoints maps points onto a bounded grid (|coord| ≤ 1024, step 1/64)
// where the Eps-tolerant orientation predicate is well conditioned, so
// geometric invariants can be asserted with a meaningful tolerance.
// Points with non-finite or out-of-range coordinates are dropped.
func snapPoints(pts []Point) []Point {
	out := make([]Point, 0, len(pts))
	for _, p := range pts {
		if !p.IsFinite() || math.Abs(p.X) > 1024 || math.Abs(p.Y) > 1024 {
			continue
		}
		out = append(out, Pt(math.Round(p.X*64)/64, math.Round(p.Y*64)/64))
	}
	return out
}

func seedPointBytes(pts []Point) []byte {
	buf := make([]byte, 0, 16*len(pts))
	for _, p := range pts {
		var b [16]byte
		binary.LittleEndian.PutUint64(b[0:], math.Float64bits(p.X))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(p.Y))
		buf = append(buf, b[:]...)
	}
	return buf
}

// FuzzConvexHull checks, on arbitrary inputs, that ConvexHull never
// panics and only ever returns input points; on well-conditioned
// (snapped) inputs it additionally checks the two defining invariants:
// the hull is convex and contains every input point.
func FuzzConvexHull(f *testing.F) {
	f.Add(seedPointBytes([]Point{Pt(0, 0), Pt(1, 0), Pt(0, 1), Pt(1, 1), Pt(0.5, 0.5)}))
	f.Add(seedPointBytes([]Point{Pt(0, 0), Pt(1, 1), Pt(2, 2), Pt(3, 3)})) // collinear
	f.Add(seedPointBytes([]Point{Pt(2, 2), Pt(2, 2), Pt(2, 2)}))           // duplicates
	f.Add(seedPointBytes([]Point{Pt(-1024, -1024), Pt(1024, 1024), Pt(1024, -1024)}))
	f.Fuzz(func(t *testing.T, data []byte) {
		raw := fuzzPoints(data, 64)
		// Robustness: no panic on anything, and the hull is always a
		// subset of the input (hull construction selects, never computes,
		// coordinates — so exact equality must hold).
		rawHull := ConvexHull(raw)
		// Compare by bit pattern so NaN coordinates (never equal to
		// themselves) still participate in the subset check.
		bits := func(p Point) [2]uint64 {
			return [2]uint64{math.Float64bits(p.X), math.Float64bits(p.Y)}
		}
		inputSet := make(map[[2]uint64]bool, len(raw))
		for _, p := range raw {
			inputSet[bits(p)] = true
		}
		for _, h := range rawHull {
			if !inputSet[bits(h)] {
				t.Fatalf("hull invented a point: %v", h)
			}
		}

		pts := snapPoints(raw)
		hull := ConvexHull(pts)
		if len(pts) >= 1 && len(hull) == 0 {
			t.Fatalf("hull of %d points is empty", len(pts))
		}
		if len(hull) < 3 {
			return
		}
		// Convexity: walking the hull counter-clockwise never turns right.
		h := len(hull)
		for i := 0; i < h; i++ {
			a, b, c := hull[i], hull[(i+1)%h], hull[(i+2)%h]
			if Orientation(a, b, c) < 0 {
				t.Fatalf("hull is not convex at %d: %v %v %v", i, a, b, c)
			}
		}
		// Containment: every input point lies inside or within tolerance
		// of the hull. The tolerance accommodates the Eps-scaled
		// orientation predicate on the snapped domain.
		const tol = 0.5
		poly := NewPolygon(hull...)
		for _, p := range pts {
			if poly.ContainsPoint(p) {
				continue
			}
			if d := poly.DistToPoint(p); d > tol {
				t.Fatalf("input point %v is %g outside the hull", p, d)
			}
		}
	})
}

// FuzzPointInPolygon checks that ContainsPoint never panics on arbitrary
// chains and respects two invariants on finite ones: every vertex is
// contained (vertices are on the boundary), and no point beyond the
// bounding box is.
func FuzzPointInPolygon(f *testing.F) {
	f.Add(seedPointBytes([]Point{Pt(0.5, 0.5), Pt(0, 0), Pt(1, 0), Pt(1, 1), Pt(0, 1)}))
	f.Add(seedPointBytes([]Point{Pt(9, 9), Pt(0, 0), Pt(4, 0), Pt(0, 4)}))
	f.Add(seedPointBytes([]Point{Pt(0, 0), Pt(1, 1), Pt(2, 2), Pt(3, 3), Pt(4, 4)}))
	f.Fuzz(func(t *testing.T, data []byte) {
		pts := fuzzPoints(data, 33)
		if len(pts) < 1 {
			return
		}
		// First decoded point is the query; the rest form the chain.
		q, chain := pts[0], pts[1:]
		for _, closed := range []bool{true, false} {
			poly := Poly{Pts: chain, Closed: closed}
			in := poly.ContainsPoint(q) // must not panic, whatever the chain
			// Geometric invariants only hold where the arithmetic cannot
			// overflow; beyond ~1e9 the squared distances saturate.
			const rangeMax = 1e9
			wellCond := func(p Point) bool {
				return p.IsFinite() && math.Abs(p.X) <= rangeMax && math.Abs(p.Y) <= rangeMax
			}
			finite := wellCond(q)
			for _, p := range chain {
				finite = finite && wellCond(p)
			}
			if !finite || len(chain) == 0 {
				continue
			}
			// Containment is defined through edges; a single-vertex chain
			// has none and contains nothing.
			if poly.NumEdges() > 0 {
				for _, v := range chain {
					if !poly.ContainsPoint(v) {
						t.Fatalf("closed=%v: vertex %v not contained in its own chain", closed, v)
					}
				}
			}
			b := poly.Bounds()
			if in && (q.X < b.Min.X-Eps || q.X > b.Max.X+Eps ||
				q.Y < b.Min.Y-Eps || q.Y > b.Max.Y+Eps) {
				t.Fatalf("closed=%v: point %v outside bounds %v reported contained", closed, q, b)
			}
			far := Pt(b.Max.X+1+math.Abs(b.Max.X)*0.5, b.Max.Y+1)
			if far.IsFinite() && poly.ContainsPoint(far) {
				t.Fatalf("closed=%v: far point %v reported contained", closed, far)
			}
		}
	})
}
