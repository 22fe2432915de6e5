package query

import (
	"context"
	"math"
	"testing"

	"repro/internal/geom"
)

// Open polylines participate in topology: they cannot contain, but they
// can overlap (cross) closed shapes and each other.
func TestTopologyWithOpenShapes(t *testing.T) {
	box := sq(0, 0, 10)
	crossing := geom.NewPolyline(geom.Pt(-2, 5), geom.Pt(12, 5)) // crosses the box
	apart := geom.NewPolyline(geom.Pt(20, 0), geom.Pt(25, 5))

	if Contains(crossing, box) {
		t.Error("open chain cannot contain")
	}
	if !Overlaps(box, crossing) || !Overlaps(crossing, box) {
		t.Error("chain crossing the box boundary overlaps it")
	}
	if !Disjoint(box, apart) {
		t.Error("far chain is disjoint")
	}
	// Chain fully inside the box: all its vertices are inside and no
	// boundary crossing — that is containment, not overlap.
	inside := geom.NewPolyline(geom.Pt(2, 2), geom.Pt(8, 8))
	if !Contains(box, inside) {
		t.Error("box should contain the interior chain")
	}
	if Overlaps(box, inside) {
		t.Error("containment is not overlap")
	}
}

func TestImageGraphWithOpenShapes(t *testing.T) {
	box := sq(0, 0, 10)
	chain := geom.NewPolyline(geom.Pt(-2, 5), geom.Pt(12, 5))
	g := BuildImageGraph(0, []int{0, 1}, []geom.Poly{box, chain})
	if got := g.Related(0, RelOverlap); len(got) != 1 || got[0] != 1 {
		t.Errorf("box overlap partners = %v", got)
	}
	if got := g.Related(1, RelContain); len(got) != 0 {
		t.Errorf("open chain contains %v", got)
	}
}

func TestDBWithOpenShapeQueries(t *testing.T) {
	db := NewDB(DefaultOptions())
	if err := db.AddImage(0, []geom.Poly{
		sq(0, 0, 10),
		geom.NewPolyline(geom.Pt(-2, 5), geom.Pt(12, 5)),
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.AddImage(1, []geom.Poly{
		geom.NewPolyline(geom.Pt(0, 0), geom.Pt(10, 0)),
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Freeze(); err != nil {
		t.Fatal(err)
	}
	binds := Bindings{
		"line": geom.NewPolyline(geom.Pt(0, 0), geom.Pt(7, 0)),
		"box":  sq(0, 0, 4),
	}
	// Lines appear in both images.
	set, _, err := db.EvalString(context.Background(), "similar(line)", binds)
	if err != nil {
		t.Fatal(err)
	}
	if got := set.Sorted(); len(got) != 2 {
		t.Fatalf("similar(line) = %v", got)
	}
	// A box overlapping a line: only image 0.
	set, _, err = db.EvalString(context.Background(), "overlap(box, line, any)", binds)
	if err != nil {
		t.Fatal(err)
	}
	if got := set.Sorted(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("overlap(box,line) = %v", got)
	}
}

// TestEstimatorAccessors holds the estimate to a function of (base size,
// query) only: two estimators over the same base size agree on every
// query, the estimate is proportional to the base size, and a degenerate
// query or an empty base still gets a positive, finite estimate.
func TestEstimatorAccessors(t *testing.T) {
	q := SignificantVertices(sq(0, 0, 1))
	e := NewEstimator(500)
	if got, again := e.Estimate(q), NewEstimator(500).Estimate(q); got <= 0 || got != again {
		t.Errorf("Estimate = %v, a second estimator over 500 shapes says %v", got, again)
	}
	if got, want := NewEstimator(1000).Estimate(q), 2*e.Estimate(q); got != want {
		t.Errorf("twice the base estimates %v, want %v", got, want)
	}
	for _, est := range []float64{e.Estimate(SignificantVertices(geom.Poly{})), NewEstimator(0).Estimate(q)} {
		if !(est > 0) || math.IsInf(est, 1) {
			t.Errorf("degenerate estimate = %v, want positive and finite", est)
		}
	}
}
