package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/synth"
)

// dynMatch runs the overflow scan for q with no bound to share.
func dynMatch(t *testing.T, d *Dynamic, q geom.Poly, k int) []Match {
	t.Helper()
	pq, err := PrepareQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	ms, _, err := d.MatchPrepared(context.Background(), pq, k, MatchOpts{}, false)
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

// exhaustiveOverflow is the reference the bounded scan is compared with:
// every copy of every live shape scored in full, both directions, no
// cutoff anywhere, the back direction through a grid oracle built over the
// copy; the lowest copy on ties; the continuous measure for the k that are
// returned.
func exhaustiveOverflow(d *Dynamic, pq *PreparedQuery, k int) []Match {
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
		if bestEi >= 0 {
			out = append(out, Match{ShapeID: s.shape.ID, EntryID: -(bestEi + 1), DistVertex: best})
		}
	}
	sortMatches(out)
	if len(out) > k {
		out = out[:k]
	}
	for i := range out {
		s := &d.overflow[d.slot[out[i].ShapeID]]
		ei := -out[i].EntryID - 1
		out[i].DistContinuous = (AvgMinDistTo(s.entries[ei].Poly, pq.oracle, d.opts.Samples) +
			AvgMinDistTo(pq.entry.Poly, NewBoundaryDist(s.entries[ei].Poly), d.opts.Samples)) / 2
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
	pq, err := PrepareQuery(testShapes()[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.MatchPrepared(context.Background(), pq, 0, MatchOpts{}, false); err == nil {
		t.Error("k=0 should fail")
	}
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

func TestDynamicMatchPreparedCancelled(t *testing.T) {
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
	ms, _, err := d.MatchPrepared(ctx, pq, 5, MatchOpts{}, true)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ms != nil {
		t.Fatalf("cancelled scan still returned %d matches", len(ms))
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
// scan order is not the insert order — the scan under any admissible
// shared bound returns the exhaustive reference byte for byte, continuous
// measure included. The bounds run from none down to exactly the true
// k-th best (ties at the k-th slot must survive), and the scan only reads
// them; one below every shape must leave an empty list, not a wrong one.
func TestDynamicBoundedScanProperty(t *testing.T) {
	ctx := context.Background()
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
			for _, k := range []int{1, 2, 5, d.Len(), d.Len() + 3} {
				want := exhaustiveOverflow(d, pq, k)
				if len(want) != min(k, d.Len()) {
					t.Fatalf("seed %d q%d k=%d: reference holds %d matches", seed, qi, k, len(want))
				}
				kth := want[len(want)-1].DistVertex
				for _, factor := range []float64{math.Inf(1), 1.5, 1.0001, 1} {
					bound := math.Inf(1) // also when the k-th best is 0
					if k <= d.Len() && !math.IsInf(factor, 1) {
						bound = kth * factor
					}
					shared := NewSharedBound()
					shared.Tighten(bound)
					got, st, err := d.MatchPrepared(ctx, pq, k, MatchOpts{Shared: shared}, true)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d q%d k=%d bound %g×k-th:\ngot:  %+v\nwant: %+v",
							seed, qi, k, factor, got, want)
					}
					// Candidates are copies past the distance field: never more
					// than the delta holds, each returned shape's at least, and
					// with nothing to cut against but the shape's own best so
					// far, every shape's first copy.
					unbounded := math.IsInf(bound, 1) && k >= d.Len()
					if st.Candidates > d.NumEntries() || st.Candidates < len(got) || (unbounded && st.Candidates < d.Len()) || !st.Converged {
						t.Fatalf("seed %d q%d k=%d: stats %+v over %d copies of %d shapes", seed, qi, k, st, d.NumEntries(), d.Len())
					}
					if after := shared.Load(); after != bound {
						t.Fatalf("seed %d q%d k=%d: the scan moved the bound to %g", seed, qi, k, after)
					}
				}
			}
			// A bound below every live shape: nothing can be proven inside it.
			nearest := exhaustiveOverflow(d, pq, 1)[0].DistVertex
			if nearest == 0 {
				continue
			}
			shared := NewSharedBound()
			shared.Tighten(nearest * 0.999)
			got, _, err := d.MatchPrepared(ctx, pq, 3, MatchOpts{Shared: shared}, true)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 0 || shared.Load() != nearest*0.999 {
				t.Fatalf("seed %d q%d: under a bound below every shape: %+v, bound %g", seed, qi, got, shared.Load())
			}
		}
	}
}
