package rangesearch

import (
	"sort"

	"repro/internal/geom"
)

// KDTree is an implicit, balanced 2-d tree over a static point set. Every
// node knows the exact bounding box of its subtree, so a triangle query
// prunes disjoint subtrees, counts fully-contained subtrees in O(1), and
// only tests individual points near the triangle boundary.
type KDTree struct {
	pts    []geom.Point // points in tree order (median layout)
	ids    []int32      // original index per tree position
	bounds []geom.Rect  // exact subtree bounding box per tree position
}

// NewKDTree builds the tree in O(n log n). The input slice is not
// modified.
func NewKDTree(pts []geom.Point) *KDTree {
	n := len(pts)
	t := &KDTree{
		pts:    make([]geom.Point, n),
		ids:    make([]int32, n),
		bounds: make([]geom.Rect, n),
	}
	copy(t.pts, pts)
	for i := range t.ids {
		t.ids[i] = int32(i)
	}
	t.build(0, n, 0)
	return t
}

func (t *KDTree) build(lo, hi, depth int) geom.Rect {
	if lo >= hi {
		return geom.EmptyRect()
	}
	mid := (lo + hi) / 2
	byX := depth%2 == 0
	sort.Sort(&kdSort{t, lo, hi, byX})
	b := geom.RectOf(t.pts[mid])
	b = b.Union(t.build(lo, mid, depth+1))
	b = b.Union(t.build(mid+1, hi, depth+1))
	t.bounds[mid] = b
	return b
}

type kdSort struct {
	t      *KDTree
	lo, hi int
	byX    bool
}

func (s *kdSort) Len() int { return s.hi - s.lo }
func (s *kdSort) Less(i, j int) bool {
	a, b := s.t.pts[s.lo+i], s.t.pts[s.lo+j]
	if s.byX {
		return a.X < b.X
	}
	return a.Y < b.Y
}
func (s *kdSort) Swap(i, j int) {
	t := s.t
	t.pts[s.lo+i], t.pts[s.lo+j] = t.pts[s.lo+j], t.pts[s.lo+i]
	t.ids[s.lo+i], t.ids[s.lo+j] = t.ids[s.lo+j], t.ids[s.lo+i]
}

// Len implements Backend.
func (t *KDTree) Len() int { return len(t.pts) }

// CountRect implements Backend.
func (t *KDTree) CountRect(r geom.Rect) int { return t.countRect(0, len(t.pts), r) }

func (t *KDTree) countRect(lo, hi int, r geom.Rect) int {
	if lo >= hi {
		return 0
	}
	mid := (lo + hi) / 2
	b := t.bounds[mid]
	if !r.Intersects(b) {
		return 0
	}
	if r.ContainsRect(b) {
		return hi - lo
	}
	n := 0
	if r.Contains(t.pts[mid]) {
		n++
	}
	return n + t.countRect(lo, mid, r) + t.countRect(mid+1, hi, r)
}

// ReportRect implements Backend.
func (t *KDTree) ReportRect(r geom.Rect, fn func(id int)) {
	t.reportRect(0, len(t.pts), r, fn)
}

func (t *KDTree) reportRect(lo, hi int, r geom.Rect, fn func(id int)) {
	if lo >= hi {
		return
	}
	mid := (lo + hi) / 2
	b := t.bounds[mid]
	if !r.Intersects(b) {
		return
	}
	if r.ContainsRect(b) {
		for i := lo; i < hi; i++ {
			fn(int(t.ids[i]))
		}
		return
	}
	if r.Contains(t.pts[mid]) {
		fn(int(t.ids[mid]))
	}
	t.reportRect(lo, mid, r, fn)
	t.reportRect(mid+1, hi, r, fn)
}

// CountTriangle implements Backend. The triangle is prepared once (edge
// vectors, separating-axis intervals) and the query form is shared by the
// whole traversal; see geom.TriQuery.
func (t *KDTree) CountTriangle(tr geom.Triangle) int {
	q := tr.Prepare()
	return t.countTri(0, len(t.pts), &q)
}

func (t *KDTree) countTri(lo, hi int, q *geom.TriQuery) int {
	if lo >= hi {
		return 0
	}
	mid := (lo + hi) / 2
	b := t.bounds[mid]
	if !q.IntersectsRect(b) {
		return 0
	}
	if q.ContainsRect(b) {
		return hi - lo
	}
	n := 0
	if q.Contains(t.pts[mid]) {
		n++
	}
	return n + t.countTri(lo, mid, q) + t.countTri(mid+1, hi, q)
}

// ReportTriangle implements Backend.
func (t *KDTree) ReportTriangle(tr geom.Triangle, fn func(id int)) {
	q := tr.Prepare()
	t.reportTri(0, len(t.pts), &q, fn)
}

func (t *KDTree) reportTri(lo, hi int, q *geom.TriQuery, fn func(id int)) {
	if lo >= hi {
		return
	}
	mid := (lo + hi) / 2
	b := t.bounds[mid]
	if !q.IntersectsRect(b) {
		return
	}
	if q.ContainsRect(b) {
		for i := lo; i < hi; i++ {
			fn(int(t.ids[i]))
		}
		return
	}
	if q.Contains(t.pts[mid]) {
		fn(int(t.ids[mid]))
	}
	t.reportTri(lo, mid, q, fn)
	t.reportTri(mid+1, hi, q, fn)
}
