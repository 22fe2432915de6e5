package core

import (
	"fmt"
	"math"

	"repro/internal/geom"
)

// Shape is an object boundary extracted from an image: a simple polygon
// or polyline (§2.4), tagged with the image it belongs to.
type Shape struct {
	ID    int       // shape id, assigned by the base
	Image int       // id of the image this shape was extracted from
	Poly  geom.Poly // the boundary in image coordinates
}

// Entry is one normalized copy of a shape in the shape base. Each shape
// is stored twice per α-diameter: once for each way of mapping the
// diameter endpoints onto (0,0) and (1,0) (§2.4). A base stores a copy as
// its EntryMeta and derives the rest from its shape on demand
// (Base.Entry).
type Entry struct {
	ShapeID int            // the shape this copy belongs to
	Copy    int            // copy ordinal within the shape
	Poly    geom.Poly      // normalized vertices
	Norm    geom.Transform // image frame → normalized frame
	Inv     geom.Transform // normalized frame → image frame
	DiamI   int            // vertex index mapped to (0,0)
	DiamJ   int            // vertex index mapped to (1,0)
}

// Normalize produces all normalized copies of p for the given α: two per
// α-diameter (both endpoint orders). α must be in [0, 1). Degenerate
// shapes (zero diameter) produce no copies and an error.
func Normalize(p geom.Poly, alpha float64) ([]Entry, error) {
	if alpha < 0 || alpha >= 1 {
		return nil, fmt.Errorf("core: alpha %v out of [0,1)", alpha)
	}
	pairs := p.AlphaDiameters(alpha)
	if len(pairs) == 0 {
		return nil, fmt.Errorf("core: shape has no α-diameters (degenerate)")
	}
	out := make([]Entry, 0, 2*len(pairs))
	copyOrd := 0
	for _, pr := range pairs {
		for _, ord := range [2][2]int{{pr[0], pr[1]}, {pr[1], pr[0]}} {
			pts, tr, err := geom.AppendNormalized(nil, p.Pts, ord[0], ord[1])
			if err != nil {
				continue
			}
			out = append(out, Entry{
				Copy:  copyOrd,
				Poly:  geom.Poly{Pts: pts, Closed: p.Closed},
				Norm:  tr,
				Inv:   tr.Inverse(),
				DiamI: ord[0],
				DiamJ: ord[1],
			})
			copyOrd++
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("core: normalization produced no copies")
	}
	return out, nil
}

// copyOf is the normalized copy of p that m describes, its vertices
// appended to dst: geom.AppendNormalized over p and m's (DiamI, DiamJ),
// the one derivation of a normalized copy — Normalize and
// NormalizeCanonical make theirs with it — so the bits are those Normalize
// gave the copy when p was added. It cannot fail on a base that was built
// or loaded: both refuse a pair NormalizeOnto turns down.
func copyOf(p geom.Poly, m EntryMeta, dst []geom.Point) geom.Poly {
	pts, _, _ := geom.AppendNormalized(dst, p.Pts, int(m.DiamI), int(m.DiamJ))
	return geom.Poly{Pts: pts, Closed: p.Closed}
}

// mirrorTol is how far, coordinate by coordinate, copy 2k+1 of a shape may
// lie from the half turn of copy 2k about (½, 0). The two copies map the
// same α-diameter's endpoints onto (0,0) and (1,0) in opposite orders, so
// in real arithmetic the second is R(x, y) = (1−x, −y) of the first, vertex
// by vertex. Normalize's float transforms leave them apart by a rounding
// that grows with the shape's distance from the origin over its size:
// under 1e-13 on the paper's synthetic base, ~5e-10 with that base moved
// 10⁶ units out. The searches floor a twin through its partner's cells
// (distField.sumPast), which stays admissible for a vertex up to
// geomBoundSlack off R's image: the tolerance is half of that.
const mirrorTol = geomBoundSlack / 2

// halfTurnPair reports whether twin is R of pts, vertex by vertex, within
// mirrorTol — false for a NaN coordinate or a vertex count that differs.
func halfTurnPair(pts, twin []geom.Point) bool {
	if len(pts) != len(twin) {
		return false
	}
	for i, p := range pts {
		if !(math.Abs(1-p.X-twin[i].X) <= mirrorTol && math.Abs(p.Y+twin[i].Y) <= mirrorTol) {
			return false
		}
	}
	return true
}

// unpairedCopy is the first copy of a shape's run of n copies, copy c's
// vertices cp(c), that breaks the layout the searches floor through: an odd
// last copy, or a copy 2k+1 that is not the half turn of copy 2k
// (halfTurnPair). -1 when every copy is paired.
func unpairedCopy(n int, cp func(c int) []geom.Point) int {
	for c := 0; c < n; c += 2 {
		if c+1 == n || !halfTurnPair(cp(c), cp(c+1)) {
			return c + 1
		}
	}
	return -1
}

// NormalizeCanonical returns the single canonical normalization of p:
// about its true diameter, with the lower-index endpoint mapped to (0,0).
// This is the normalization applied to query shapes — the base's
// α-diameter copies absorb the remaining degrees of freedom.
func NormalizeCanonical(p geom.Poly) (Entry, error) {
	i, j, d := p.Diameter()
	if d <= geom.Eps {
		return Entry{}, fmt.Errorf("core: degenerate shape, zero diameter")
	}
	pts, tr, err := geom.AppendNormalized(nil, p.Pts, i, j)
	if err != nil {
		return Entry{}, err
	}
	return Entry{
		Poly:  geom.Poly{Pts: pts, Closed: p.Closed},
		Norm:  tr,
		Inv:   tr.Inverse(),
		DiamI: i,
		DiamJ: j,
	}, nil
}

// DiameterAngle returns the orientation, in the original image frame, of
// the entry's normalized diameter vector ((0,0),(1,0)) mapped back through
// the inverse normalization — the quantity used by the θ argument of the
// topological predicates (§5.3).
func (e Entry) DiameterAngle() float64 {
	v := e.Inv.Apply(geom.Pt(1, 0)).Sub(e.Inv.Apply(geom.Pt(0, 0)))
	return v.Angle()
}

// Lune bounds: shapes normalized about their true diameter have all
// vertices inside the lune defined by the two unit circles centered at
// (0,0) and (1,0) (§3). α-diameter copies may exceed it slightly.

// LuneArea is the area of the lune: the intersection of the two unit
// disks centered at (0,0) and (1,0) — 2π/3 − √3/2.
const LuneArea = 2*3.14159265358979323846/3 - 0.86602540378443864676

// InLune reports whether p lies inside the lune.
func InLune(p geom.Point) bool {
	return p.Norm2() <= 1+geom.Eps && p.Sub(geom.Pt(1, 0)).Norm2() <= 1+geom.Eps
}

// ClampToLune maps a point outside the lune onto (the vicinity of) its
// boundary, the treatment §3 prescribes for vertices of α-diameter copies
// that fall outside the locus.
func ClampToLune(p geom.Point) geom.Point {
	const maxIter = 48
	q := p
	for iter := 0; iter < maxIter && !InLune(q); iter++ {
		if n := q.Norm(); n > 1 {
			q = q.Scale(1 / n)
		}
		d := q.Sub(geom.Pt(1, 0))
		if n := d.Norm(); n > 1 {
			q = geom.Pt(1, 0).Add(d.Scale(1 / n))
		}
	}
	return q
}
