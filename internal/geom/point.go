// Package geom provides the 2-D computational-geometry substrate used by
// GeoSIR: points, segments, polygons and polylines, similarity transforms,
// convex hulls, shape diameters, and the distance predicates on which the
// average-minimum-distance similarity measure is built.
//
// All coordinates are float64. The package is deliberately dependency-free
// (standard library only) and allocation-conscious: hot-path predicates
// operate on values, not pointers.
package geom

import (
	"fmt"
	"math"
)

// Eps is the default tolerance used by approximate comparisons throughout
// the geometry layer. It is intentionally coarse relative to float64
// precision because shape coordinates are normalized to the unit diameter.
const Eps = 1e-9

// Point is a point (or vector) in the plane.
type Point struct {
	X, Y float64
}

// Pt is shorthand for constructing a Point.
func Pt(x, y float64) Point { return Point{x, y} }

// Add returns p + q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Neg returns -p.
func (p Point) Neg() Point { return Point{-p.X, -p.Y} }

// Dot returns the dot product p·q.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Cross returns the z-component of the cross product p × q.
func (p Point) Cross(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// Norm returns the Euclidean length of p viewed as a vector.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Norm2 returns the squared Euclidean length of p.
func (p Point) Norm2() float64 { return p.X*p.X + p.Y*p.Y }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// Dist2 returns the squared Euclidean distance between p and q.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Angle returns the angle of p viewed as a vector, in (-π, π].
func (p Point) Angle() float64 { return math.Atan2(p.Y, p.X) }

// Rotate returns p rotated about the origin by theta radians
// (counter-clockwise).
func (p Point) Rotate(theta float64) Point {
	s, c := math.Sincos(theta)
	return Point{c*p.X - s*p.Y, s*p.X + c*p.Y}
}

// Perp returns p rotated by +π/2 (a counter-clockwise perpendicular).
func (p Point) Perp() Point { return Point{-p.Y, p.X} }

// Unit returns p normalized to unit length. The zero vector is returned
// unchanged.
func (p Point) Unit() Point {
	n := p.Norm()
	if n == 0 {
		return p
	}
	return Point{p.X / n, p.Y / n}
}

// Lerp returns the point p + t·(q-p); t=0 yields p and t=1 yields q
// (exactly: p + (q-p) can round away from q).
func (p Point) Lerp(q Point, t float64) Point {
	if t == 1 {
		return q
	}
	return Point{p.X + t*(q.X-p.X), p.Y + t*(q.Y-p.Y)}
}

// Eq reports whether p and q coincide within tolerance eps.
func (p Point) Eq(q Point, eps float64) bool {
	return math.Abs(p.X-q.X) <= eps && math.Abs(p.Y-q.Y) <= eps
}

// IsFinite reports whether both coordinates are finite numbers.
func (p Point) IsFinite() bool {
	return !math.IsNaN(p.X) && !math.IsInf(p.X, 0) &&
		!math.IsNaN(p.Y) && !math.IsInf(p.Y, 0)
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.6g, %.6g)", p.X, p.Y) }

// Orientation classifies the turn a→b→c:
// +1 for a counter-clockwise (left) turn, -1 for clockwise (right),
// 0 for collinear within Eps scaled by the magnitudes involved.
func Orientation(a, b, c Point) int {
	v := b.Sub(a).Cross(c.Sub(a))
	// Scale the tolerance by the extent of the inputs so that the
	// classification is robust for both unit-normalized and raster-scale
	// coordinates.
	scale := math.Abs(b.X-a.X) + math.Abs(b.Y-a.Y) + math.Abs(c.X-a.X) + math.Abs(c.Y-a.Y)
	tol := Eps * (1 + scale*scale)
	switch {
	case v > tol:
		return +1
	case v < -tol:
		return -1
	default:
		return 0
	}
}

// Collinear reports whether a, b and c lie on a common line (within the
// Orientation tolerance).
func Collinear(a, b, c Point) bool { return Orientation(a, b, c) == 0 }

// SignedAngle returns the signed angle from vector u to vector v in
// (-π, π]. Positive angles are counter-clockwise.
func SignedAngle(u, v Point) float64 {
	return math.Atan2(u.Cross(v), u.Dot(v))
}

// InteriorAngle returns the non-reflex angle at vertex b of the chain
// a-b-c, in [0, π].
func InteriorAngle(a, b, c Point) float64 {
	u, v := a.Sub(b), c.Sub(b)
	nu, nv := u.Norm(), v.Norm()
	if nu == 0 || nv == 0 {
		return 0
	}
	cos := u.Dot(v) / (nu * nv)
	cos = math.Max(-1, math.Min(1, cos))
	return math.Acos(cos)
}
