// Package rangesearch implements the simplex (triangle) range counting and
// reporting structures that drive the ε-envelope fattening algorithm
// (§2.5 of the paper). Three interchangeable backends are provided:
//
//   - Brute: a linear scan, used as correctness oracle and ablation
//     baseline.
//   - KDTree: a kd-tree whose internal nodes carry exact subtree bounding
//     boxes; triangle queries prune disjoint subtrees and count
//     fully-contained subtrees in O(1), giving the classical
//     O(√n + k) simplex query bound in the plane.
//   - Layered: a layered range tree with fractional cascading — one
//     binary search at the root, bridge pointers thereafter — answering
//     orthogonal range queries in O(log n + k); triangle queries filter
//     the reported candidates through an exact point-in-triangle test.
//
// The paper assumes Matoušek-style structures with O(log³n + k) triangle
// queries and near-quadratic space; the backends here provide the same
// interface with practical sub-linear query growth (see DESIGN.md for the
// substitution note).
package rangesearch

import "repro/internal/geom"

// Backend answers rectangle and triangle range queries over a static set
// of points identified by their position in the original input slice.
type Backend interface {
	// Len returns the number of indexed points.
	Len() int
	// CountRect returns how many points lie in the closed rectangle r.
	CountRect(r geom.Rect) int
	// ReportRect calls fn with the id of every point inside r.
	ReportRect(r geom.Rect, fn func(id int))
	// CountTriangle returns how many points lie in the closed triangle t.
	CountTriangle(t geom.Triangle) int
	// ReportTriangle calls fn with the id of every point inside t.
	ReportTriangle(t geom.Triangle, fn func(id int))
}

// Kind names a backend implementation, for configuration and ablation.
type Kind string

// The available backend kinds.
const (
	KindBrute   Kind = "brute"
	KindKDTree  Kind = "kdtree"
	KindLayered Kind = "layered"
)

// New builds a backend of the given kind over pts.
func New(kind Kind, pts []geom.Point) Backend {
	switch kind {
	case KindKDTree:
		return NewKDTree(pts)
	case KindLayered:
		return NewLayered(pts)
	default:
		return NewBrute(pts)
	}
}

// Brute is the linear-scan reference backend.
type Brute struct {
	pts []geom.Point
}

// NewBrute copies pts into a scan backend.
func NewBrute(pts []geom.Point) *Brute {
	return &Brute{pts: append([]geom.Point(nil), pts...)}
}

// Len implements Backend.
func (b *Brute) Len() int { return len(b.pts) }

// CountRect implements Backend.
func (b *Brute) CountRect(r geom.Rect) int {
	n := 0
	for _, p := range b.pts {
		if r.Contains(p) {
			n++
		}
	}
	return n
}

// ReportRect implements Backend.
func (b *Brute) ReportRect(r geom.Rect, fn func(id int)) {
	for i, p := range b.pts {
		if r.Contains(p) {
			fn(i)
		}
	}
}

// CountTriangle implements Backend.
func (b *Brute) CountTriangle(t geom.Triangle) int {
	n := 0
	for _, p := range b.pts {
		if t.Contains(p) {
			n++
		}
	}
	return n
}

// ReportTriangle implements Backend.
func (b *Brute) ReportTriangle(t geom.Triangle, fn func(id int)) {
	for i, p := range b.pts {
		if t.Contains(p) {
			fn(i)
		}
	}
}
