package geom

import (
	"fmt"
	"math"
)

// Segment is a closed line segment between two endpoints.
type Segment struct {
	A, B Point
}

// Seg is shorthand for constructing a Segment.
func Seg(a, b Point) Segment { return Segment{a, b} }

// Length returns the Euclidean length of s.
func (s Segment) Length() float64 { return s.A.Dist(s.B) }

// Midpoint returns the midpoint of s.
func (s Segment) Midpoint() Point { return s.A.Lerp(s.B, 0.5) }

// Dir returns the (unnormalized) direction vector B - A.
func (s Segment) Dir() Point { return s.B.Sub(s.A) }

// At returns the point A + t·(B-A).
func (s Segment) At(t float64) Point { return s.A.Lerp(s.B, t) }

// Reverse returns the segment with endpoints swapped.
func (s Segment) Reverse() Segment { return Segment{s.B, s.A} }

// Bounds returns the axis-aligned bounding box of s.
func (s Segment) Bounds() Rect {
	return Rect{
		Min: Point{math.Min(s.A.X, s.B.X), math.Min(s.A.Y, s.B.Y)},
		Max: Point{math.Max(s.A.X, s.B.X), math.Max(s.A.Y, s.B.Y)},
	}
}

// String implements fmt.Stringer.
func (s Segment) String() string { return fmt.Sprintf("[%v-%v]", s.A, s.B) }

// ClosestParam returns the parameter t ∈ [0,1] such that s.At(t) is the
// point of s closest to p.
func (s Segment) ClosestParam(p Point) float64 {
	d := s.Dir()
	den := d.Norm2()
	if den == 0 {
		return 0
	}
	t := p.Sub(s.A).Dot(d) / den
	return math.Max(0, math.Min(1, t))
}

// ClosestPoint returns the point of s closest to p.
func (s Segment) ClosestPoint(p Point) Point { return s.At(s.ClosestParam(p)) }

// DistToPoint returns the Euclidean distance from p to segment s.
func (s Segment) DistToPoint(p Point) float64 { return p.Dist(s.ClosestPoint(p)) }

// DistToSegment returns the minimum distance between segments s and t.
// It is zero when the segments intersect.
func (s Segment) DistToSegment(t Segment) float64 {
	if hit, _ := s.Intersect(t); hit {
		return 0
	}
	d := s.DistToPoint(t.A)
	if v := s.DistToPoint(t.B); v < d {
		d = v
	}
	if v := t.DistToPoint(s.A); v < d {
		d = v
	}
	if v := t.DistToPoint(s.B); v < d {
		d = v
	}
	return d
}

// onSegment reports whether point p, known to be collinear with s, lies
// within s's bounding box (and therefore on s).
func (s Segment) onSegment(p Point) bool {
	return math.Min(s.A.X, s.B.X)-Eps <= p.X && p.X <= math.Max(s.A.X, s.B.X)+Eps &&
		math.Min(s.A.Y, s.B.Y)-Eps <= p.Y && p.Y <= math.Max(s.A.Y, s.B.Y)+Eps
}

// Intersect reports whether s and t intersect. When they cross at a single
// proper point, that point is returned; for touching or overlapping
// configurations a representative common point is returned.
func (s Segment) Intersect(t Segment) (bool, Point) {
	o1 := Orientation(s.A, s.B, t.A)
	o2 := Orientation(s.A, s.B, t.B)
	o3 := Orientation(t.A, t.B, s.A)
	o4 := Orientation(t.A, t.B, s.B)

	if o1 != o2 && o3 != o4 && o1 != 0 && o2 != 0 && o3 != 0 && o4 != 0 {
		// Proper crossing: solve for the intersection point.
		d1 := s.Dir()
		d2 := t.Dir()
		den := d1.Cross(d2)
		u := t.A.Sub(s.A).Cross(d2) / den
		return true, s.At(u)
	}
	// Touching / collinear special cases.
	if o1 == 0 && s.onSegment(t.A) {
		return true, t.A
	}
	if o2 == 0 && s.onSegment(t.B) {
		return true, t.B
	}
	if o3 == 0 && t.onSegment(s.A) {
		return true, s.A
	}
	if o4 == 0 && t.onSegment(s.B) {
		return true, s.B
	}
	if o1 != o2 && o3 != o4 {
		// Mixed zero/nonzero orientations that still straddle: treat as a
		// crossing and solve directly (degenerate near-touch).
		d1 := s.Dir()
		d2 := t.Dir()
		den := d1.Cross(d2)
		if den != 0 {
			u := t.A.Sub(s.A).Cross(d2) / den
			if u >= -Eps && u <= 1+Eps {
				return true, s.At(math.Max(0, math.Min(1, u)))
			}
		}
	}
	return false, Point{}
}

// ProperlyIntersects reports whether s and t cross at a single interior
// point of both (no shared endpoints, no collinear overlap).
func (s Segment) ProperlyIntersects(t Segment) bool {
	o1 := Orientation(s.A, s.B, t.A)
	o2 := Orientation(s.A, s.B, t.B)
	o3 := Orientation(t.A, t.B, s.A)
	o4 := Orientation(t.A, t.B, s.B)
	return o1 != 0 && o2 != 0 && o3 != 0 && o4 != 0 && o1 != o2 && o3 != o4
}

// LineSide returns the signed perpendicular offset of p from the directed
// line through s (positive to the left of A→B), scaled by |s|.
func (s Segment) LineSide(p Point) float64 {
	return s.Dir().Cross(p.Sub(s.A))
}
