package core

import (
	"math/rand"
	"testing"

	"repro/internal/synth"
)

// TestDynamicInterleavedWorkload soaks the dynamic base — a Base grown by
// Append behind a dead set — with a mixed insert/delete/match stream and
// cross-checks every match against a freshly built static oracle over the
// current live set.
func TestDynamicInterleavedWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	rng := rand.New(rand.NewSource(123))
	opts := DefaultOptions()
	opts.Alpha = 0.065
	d := newDyn(opts)

	type liveShape struct {
		id   int
		img  int
		poly int // prototype index
	}
	var live []liveShape
	nextImg := 0

	makeShape := func() (int, error) {
		c := 3 + rng.Intn(7)
		s := synth.Star(rng, c, 0.02)
		id, err := d.insert(nextImg, s)
		if err != nil {
			return 0, err
		}
		live = append(live, liveShape{id: id, img: nextImg, poly: c})
		nextImg++
		return id, nil
	}

	// Warm up.
	for i := 0; i < 30; i++ {
		if _, err := makeShape(); err != nil {
			t.Fatal(err)
		}
	}

	checkOracle := func() {
		t.Helper()
		// Build the oracle over the current live set.
		ob := NewBase(opts)
		idOf := make([]int, 0, len(live))
		for _, ls := range live {
			s := d.b.Shape(ls.id)
			if _, err := ob.AddShape(s.Image, s.Poly); err != nil {
				t.Fatal(err)
			}
			idOf = append(idOf, ls.id)
		}
		if err := ob.Freeze(); err != nil {
			t.Fatal(err)
		}
		scan, err := NewScanMatcher(ob)
		if err != nil {
			t.Fatal(err)
		}
		src := live[rng.Intn(len(live))]
		s := d.b.Shape(src.id)
		q := synth.Distort(rng, s.Poly, 0.01)
		if q.Validate() != nil {
			return
		}
		dm := dynMatch(t, d, q, 2)
		om, err := scan.Match(q, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(dm) != len(om) {
			t.Fatalf("dynamic %d vs oracle %d results", len(dm), len(om))
		}
		for i := range dm {
			if !almostEq(dm[i].DistVertex, om[i].DistVertex, 1e-9) {
				t.Fatalf("rank %d: dynamic %v vs oracle %v (ids %d vs %d)",
					i, dm[i].DistVertex, om[i].DistVertex, dm[i].ShapeID, idOf[om[i].ShapeID])
			}
		}
	}

	for step := 0; step < 60; step++ {
		switch {
		case rng.Float64() < 0.5 || len(live) < 10:
			if _, err := makeShape(); err != nil {
				t.Fatal(err)
			}
		case rng.Float64() < 0.6:
			victim := rng.Intn(len(live))
			if err := d.delete(live[victim].id); err != nil {
				t.Fatal(err)
			}
			live = append(live[:victim], live[victim+1:]...)
		default:
			checkOracle()
		}
	}
	checkOracle()
	if d.live() != len(live) {
		t.Errorf("%d live shapes, tracked %d", d.live(), len(live))
	}
}
