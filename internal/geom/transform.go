package geom

import (
	"fmt"
	"math"
	"slices"
)

// Transform is a direct similarity transform of the plane: a rotation by
// Theta and uniform scaling by S about the origin, followed by a
// translation by T. It maps p to S·R(Theta)·p + T. Similarity transforms
// are exactly the normalizations used by the shape base (§2.4): they
// preserve shape up to translation, rotation, and scaling.
type Transform struct {
	S     float64 // uniform scale factor (> 0 for a valid transform)
	Theta float64 // rotation angle, radians, counter-clockwise
	T     Point   // translation applied last
}

// Identity returns the identity transform.
func Identity() Transform { return Transform{S: 1} }

// Translation returns the transform that translates by t.
func Translation(t Point) Transform { return Transform{S: 1, T: t} }

// Rotation returns the transform that rotates by theta about the origin.
func Rotation(theta float64) Transform { return Transform{S: 1, Theta: theta} }

// Scaling returns the transform that scales by s about the origin.
func Scaling(s float64) Transform { return Transform{S: s} }

// Apply maps the point p through t.
func (t Transform) Apply(p Point) Point {
	return p.Rotate(t.Theta).Scale(t.S).Add(t.T)
}

// appendApplied appends every point of pts mapped through t to dst, s and
// c the sine and cosine of t.Theta: Apply's per-point expression, bit for
// bit, with one Sincos for all of the points.
func (t Transform) appendApplied(dst, pts []Point, s, c float64) []Point {
	n := len(dst)
	dst = slices.Grow(dst, len(pts))[:n+len(pts)]
	for i, p := range pts {
		dst[n+i] = Point{c*p.X - s*p.Y, s*p.X + c*p.Y}.Scale(t.S).Add(t.T)
	}
	return dst
}

// ApplySegment maps both endpoints of s through t.
func (t Transform) ApplySegment(s Segment) Segment {
	return Segment{t.Apply(s.A), t.Apply(s.B)}
}

// Compose returns the transform equivalent to applying t first and then u:
// Compose(u, t).Apply(p) == u.Apply(t.Apply(p)).
func Compose(u, t Transform) Transform {
	// u(t(p)) = Su·R(θu)·(St·R(θt)·p + Tt) + Tu
	//         = Su·St·R(θu+θt)·p + (Su·R(θu)·Tt + Tu)
	return Transform{
		S:     u.S * t.S,
		Theta: u.Theta + t.Theta,
		T:     t.T.Rotate(u.Theta).Scale(u.S).Add(u.T),
	}
}

// Inverse returns the inverse transform. It panics if the scale is zero.
func (t Transform) Inverse() Transform {
	if t.S == 0 {
		panic("geom: cannot invert transform with zero scale")
	}
	inv := Transform{S: 1 / t.S, Theta: -t.Theta}
	inv.T = t.T.Rotate(inv.Theta).Scale(inv.S).Neg()
	return inv
}

// String implements fmt.Stringer.
func (t Transform) String() string {
	return fmt.Sprintf("Transform{s=%.6g θ=%.6g t=%v}", t.S, t.Theta, t.T)
}

// NormalizeOnto returns the similarity transform that maps point a to
// (0,0) and point b to (1,0). This is the paper's normalization about a
// diameter (§2.3): translate, rotate, and scale so that the chosen vertex
// pair is positioned at ((0,0),(1,0)). An error is returned if a and b
// coincide.
func NormalizeOnto(a, b Point) (Transform, error) {
	t, _, _, err := normalizeOnto(a, b)
	return t, err
}

// AppendNormalized appends the points of pts normalized onto the pair
// (pts[i], pts[j]) — NormalizeOnto(pts[i], pts[j]) applied to every point
// — to dst, and returns them with the transform: Apply's bits, with one
// Sincos for the transform and the points.
func AppendNormalized(dst, pts []Point, i, j int) ([]Point, Transform, error) {
	t, s, c, err := normalizeOnto(pts[i], pts[j])
	if err != nil {
		return dst, t, err
	}
	return t.appendApplied(dst, pts, s, c), t, nil
}

// normalizeOnto is NormalizeOnto, with the sine and cosine of its rotation.
func normalizeOnto(a, b Point) (t Transform, s, c float64, err error) {
	d := b.Sub(a)
	n := d.Norm()
	if n <= Eps {
		return Transform{}, 0, 0, fmt.Errorf("geom: cannot normalize onto coincident points %v, %v", a, b)
	}
	t = Transform{
		S:     1 / n,
		Theta: -d.Angle(),
	}
	// After rotation and scaling, a must land on the origin: a.Rotate(θ),
	// scaled and negated.
	s, c = math.Sincos(t.Theta)
	t.T = Point{c*a.X - s*a.Y, s*a.X + c*a.Y}.Scale(t.S).Neg()
	return t, s, c, nil
}
