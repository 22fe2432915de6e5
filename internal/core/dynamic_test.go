package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/geom"
	"repro/internal/synth"
)

// dynMatch is the k nearest live shapes to q: the overflow scan with no
// cutoff, cut to its head.
func dynMatch(t *testing.T, d *Dynamic, q geom.Poly, k int) []Match {
	t.Helper()
	pq, err := PrepareQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	ms, _ := dynWithin(t, d, pq, math.Inf(1))
	return ms[:min(k, len(ms))]
}

// dynWithin is the overflow's fixed-cutoff scan (Dynamic.Within) under cut
// as SimilarShapes reads a base's: sorted by (DistVertex, ShapeID), each
// match's continuous measure filled in. It returns the copies scanned.
func dynWithin(t *testing.T, d *Dynamic, pq *PreparedQuery, cut float64) ([]Match, int) {
	t.Helper()
	var out []Match
	copies, err := d.Within(context.Background(), pq, cut, func(m Match) { out = append(out, m) })
	if err != nil {
		t.Fatal(err)
	}
	sortMatches(out)
	for i := range out {
		if out[i].DistContinuous, err = d.Continuous(out[i].ShapeID, out[i].EntryID, pq); err != nil {
			t.Fatal(err)
		}
	}
	return out, copies
}

// exhaustiveOverflow is the reference the overflow scan is compared with:
// every copy of every live shape scored in full, both directions, no
// cutoff anywhere, the back direction through a grid oracle built over the
// copy; the lowest copy on ties; the shapes within cut, with their
// continuous measure.
func exhaustiveOverflow(d *Dynamic, pq *PreparedQuery, cut float64) []Match {
	var out []Match
	for i := range d.overflow {
		s := &d.overflow[i]
		best, bestEi := math.Inf(1), -1
		for ei := range s.entries {
			dv := (AvgMinDistVertices(s.entries[ei].Poly, pq.oracle) +
				AvgMinDistVertices(pq.entry.Poly, NewBoundaryDist(s.entries[ei].Poly))) / 2
			if dv < best {
				best, bestEi = dv, ei
			}
		}
		if bestEi >= 0 && best <= cut {
			out = append(out, Match{ShapeID: s.shape.ID, EntryID: bestEi, DistVertex: best})
		}
	}
	sortMatches(out)
	for i := range out {
		s := &d.overflow[d.slot[out[i].ShapeID]]
		cp := s.entries[out[i].EntryID].Poly
		out[i].DistContinuous = (AvgMinDistTo(cp, pq.oracle, d.opts.Samples) +
			AvgMinDistTo(pq.entry.Poly, NewBoundaryDist(cp), d.opts.Samples)) / 2
	}
	return out
}

func TestDynamicInsertMatch(t *testing.T) {
	d := NewDynamic(DefaultOptions())
	if d.Len() != 0 || d.NumEntries() != 0 {
		t.Fatal("fresh dynamic not empty")
	}
	ids := make([]int, 0, len(testShapes()))
	for i, p := range testShapes() {
		id, err := d.Insert(i, p)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if d.Len() != len(testShapes()) || d.NumEntries() < d.Len() {
		t.Fatalf("Len = %d, NumEntries = %d", d.Len(), d.NumEntries())
	}
	for want, q := range testShapes() {
		ms := dynMatch(t, d, q, 1)
		if len(ms) != 1 || ms[0].ShapeID != ids[want] {
			t.Errorf("query %d matched %v", want, ms)
		}
		if ms[0].DistVertex > 1e-9 {
			t.Errorf("exact copy distance %v", ms[0].DistVertex)
		}
	}
}

func TestDynamicDelete(t *testing.T) {
	d := NewDynamic(DefaultOptions())
	var ids []int
	for i, p := range testShapes() {
		id, err := d.Insert(i, p)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	copies := d.NumEntries()
	// Delete the square; a square query should now find something else.
	if err := d.Delete(ids[0]); err != nil {
		t.Fatal(err)
	}
	if d.Len() != len(testShapes())-1 || d.NumEntries() >= copies {
		t.Fatalf("after delete: Len = %d, NumEntries %d (was %d)", d.Len(), d.NumEntries(), copies)
	}
	if ms := dynMatch(t, d, testShapes()[0], 1); len(ms) == 1 && ms[0].ShapeID == ids[0] {
		t.Error("deleted shape still retrieved")
	}
	// The delete moved the last shape into the hole: every survivor must
	// still be found under its own id, and the last one deleted cleanly.
	for i := 1; i < len(ids); i++ {
		if s, err := d.Shape(ids[i]); err != nil || s.ID != ids[i] || s.Image != i {
			t.Errorf("live shape %d after delete: %+v %v", ids[i], s, err)
		}
		if ms := dynMatch(t, d, testShapes()[i], 1); len(ms) != 1 || ms[0].ShapeID != ids[i] {
			t.Errorf("query %d after delete matched %v", i, ms)
		}
	}
	if err := d.Delete(ids[len(ids)-1]); err != nil {
		t.Fatal(err)
	}
	if ms := dynMatch(t, d, testShapes()[1], d.Len()+1); len(ms) != d.Len() {
		t.Errorf("%d matches from %d live shapes", len(ms), d.Len())
	}
	// Error paths.
	if err := d.Delete(ids[0]); err == nil {
		t.Error("double delete should fail")
	}
	if err := d.Delete(999); err == nil {
		t.Error("out-of-range delete should fail")
	}
	if _, err := d.Shape(ids[0]); err == nil {
		t.Error("deleted shape should not be fetchable")
	}
	for d.Len() > 0 {
		if err := d.Delete(d.overflow[0].shape.ID); err != nil {
			t.Fatal(err)
		}
	}
	if d.NumEntries() != 0 {
		t.Errorf("NumEntries = %d on an emptied dynamic", d.NumEntries())
	}
}

func TestDynamicMatchAgainstStaticOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dyn := NewDynamic(DefaultOptions())
	static := NewBase(DefaultOptions())
	for i := 0; i < 12; i++ {
		p := distort(testShapes()[i%len(testShapes())], 0.04, rng)
		if p.Validate() != nil {
			p = testShapes()[i%len(testShapes())]
		}
		if _, err := dyn.Insert(i, p); err != nil {
			t.Fatal(err)
		}
		if _, err := static.AddShape(i, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := static.Freeze(); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 4; trial++ {
		q := distort(testShapes()[trial], 0.02, rng)
		if q.Validate() != nil {
			continue
		}
		dm := dynMatch(t, dyn, q, 3)
		sm, _, err := static.Match(q, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(dm) != len(sm) {
			t.Fatalf("result sizes differ: %d vs %d", len(dm), len(sm))
		}
		for i := range dm {
			if !almostEq(dm[i].DistVertex, sm[i].DistVertex, 1e-9) {
				t.Errorf("trial %d rank %d: %v vs %v", trial, i, dm[i].DistVertex, sm[i].DistVertex)
			}
		}
	}
}

func TestDynamicEmptyAndErrors(t *testing.T) {
	d := NewDynamic(DefaultOptions())
	if ms := dynMatch(t, d, testShapes()[0], 3); len(ms) != 0 {
		t.Errorf("empty dynamic returned %v", ms)
	}
	if _, err := d.Insert(0, geom.NewPolyline(geom.Pt(0, 0))); err == nil {
		t.Error("invalid insert should fail")
	}
	// Deleting everything leaves a working empty base.
	id, err := d.Insert(0, testShapes()[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Delete(id); err != nil {
		t.Fatal(err)
	}
	if d.Len() != 0 {
		t.Errorf("Len = %d", d.Len())
	}
	if ms := dynMatch(t, d, testShapes()[0], 3); len(ms) != 0 {
		t.Errorf("emptied dynamic returned %v", ms)
	}
}

// TestDynamicWithinCancelled pins that the overflow's fixed-cutoff scan
// honours its context: under a context already cancelled, Dynamic.Within
// visits nothing, scans no copy and returns ctx's error.
func TestDynamicWithinCancelled(t *testing.T) {
	d := NewDynamic(DefaultOptions())
	for i := 0; i < 100; i++ {
		for im, p := range testShapes() {
			if _, err := d.Insert(i*10+im, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	pq, err := PrepareQuery(testShapes()[0])
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	visited := 0
	copies, err := d.Within(ctx, pq, math.Inf(1), func(Match) { visited++ })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if visited != 0 || copies != 0 {
		t.Fatalf("cancelled scan still visited %d shapes over %d copies", visited, copies)
	}
}

// The Dynamic bounded scorer must agree bit-for-bit with a frozen Base
// holding the same shapes, both in no-cutoff mode and under a tight
// admissible cutoff.
func TestDynamicShapeDistancePreparedBounded(t *testing.T) {
	opts := DefaultOptions()
	d := NewDynamic(opts)
	b := NewBase(opts)
	var dynIDs, baseIDs []int
	for i, p := range testShapes() {
		did, err := d.Insert(i, p)
		if err != nil {
			t.Fatal(err)
		}
		bid, err := b.AddShape(i, p)
		if err != nil {
			t.Fatal(err)
		}
		dynIDs = append(dynIDs, did)
		baseIDs = append(baseIDs, bid)
	}
	if err := b.Freeze(); err != nil {
		t.Fatal(err)
	}
	for _, q := range testShapes() {
		pq, err := PrepareQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		for i := range dynIDs {
			for _, cut := range []float64{math.Inf(1), 0.5, 0.01} {
				wantM, wantOK, err := b.ShapeDistancePreparedBounded(baseIDs[i], pq, cut)
				if err != nil {
					t.Fatal(err)
				}
				gotM, gotOK, err := d.ShapeDistancePreparedBounded(dynIDs[i], pq, cut)
				if err != nil {
					t.Fatal(err)
				}
				gotD, wantD := gotM.DistVertex, wantM.DistVertex
				if gotOK != wantOK || (wantOK && gotD != wantD) {
					t.Fatalf("shape %d cut %v: dynamic (%v,%v) != base (%v,%v)",
						i, cut, gotD, gotOK, wantD, wantOK)
				}
			}
		}
	}
}

// TestDynamicBoundedScanProperty is the admissibility property of the
// overflow scan (DESIGN.md §4.12): over seeded overflow sets — with a
// shape stored twice, so every query ties the pair, and deletes, so the
// scan order is not the insert order — the fixed-cutoff scan returns the
// exhaustive reference's shapes within its cutoff byte for byte, continuous
// measure included, and scans every live copy. The cutoffs run from none
// down to exactly the k-th best for several k (ties at the cutoff must
// survive); one below every shape must leave an empty list, not a wrong
// one.
func TestDynamicBoundedScanProperty(t *testing.T) {
	for _, seed := range []int64{31, 32} {
		rng := rand.New(rand.NewSource(seed))
		images := synth.GenerateBase(synth.PaperSpec(0.0006, seed))
		d := NewDynamic(DefaultOptions())
		var ids []int
		for _, im := range images {
			for _, p := range im.Shapes {
				id, err := d.Insert(im.ID, p)
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
			}
		}
		twin := images[0].Shapes[0]
		if _, err := d.Insert(9001, twin.Clone()); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(ids)/5; i++ {
			if err := d.Delete(ids[1+rng.Intn(len(ids)-1)]); err != nil {
				i-- // already deleted: draw again
			}
		}
		queries := append(synth.Queries(rng, images, 5, 0.01), twin, synth.Distort(rng, twin, 0.005))
		for qi, q := range queries {
			pq, err := PrepareQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			var evaluated atomic.Int64
			pq.AttachEvalCounter(&evaluated)
			all := exhaustiveOverflow(d, pq, math.Inf(1))
			if len(all) != d.Len() {
				t.Fatalf("seed %d q%d: reference holds %d of %d live shapes", seed, qi, len(all), d.Len())
			}
			for _, k := range []int{1, 2, 5, d.Len()} {
				kth := all[k-1].DistVertex
				for _, cut := range []float64{math.Inf(1), 1.5 * kth, 1.0001 * kth, kth} {
					evaluated.Store(0)
					got, copies := dynWithin(t, d, pq, cut)
					if want := exhaustiveOverflow(d, pq, cut); !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d q%d k=%d cutoff %g:\ngot:  %+v\nwant: %+v", seed, qi, k, cut, got, want)
					}
					// Candidates are copies past the distance field: never more
					// than the delta holds, each returned shape's at least, and
					// with nothing to cut against but the shape's own best so
					// far, every shape's first copy.
					scored := int(evaluated.Load())
					if copies != d.NumEntries() || scored > copies || scored < len(got) || (math.IsInf(cut, 1) && scored < d.Len()) {
						t.Fatalf("seed %d q%d k=%d: %d copies scanned, %d scored; the delta holds %d copies of %d shapes",
							seed, qi, k, copies, scored, d.NumEntries(), d.Len())
					}
				}
			}
			// A cutoff below every live shape: nothing lies within it.
			if nearest := all[0].DistVertex; nearest > 0 {
				if got, _ := dynWithin(t, d, pq, nearest*0.999); len(got) != 0 {
					t.Fatalf("seed %d q%d: under a cutoff below every shape: %+v", seed, qi, got)
				}
			}
		}
	}
}
