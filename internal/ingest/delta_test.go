package ingest

import (
	"context"
	"errors"
	"math"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
)

func square(dx float64) geom.Poly {
	return geom.NewPolygon(geom.Pt(dx, 0), geom.Pt(dx+1, 0), geom.Pt(dx+1, 1), geom.Pt(dx, 1))
}

// matchDelta is the delta's k nearest live shapes to q, the long way:
// every shape Floors lists, scored by ScoreBounded with no cutoff, sorted
// by (distance, gid).
func matchDelta(t *testing.T, d *Delta, q geom.Poly, k int) []Match {
	t.Helper()
	pq, err := core.PrepareQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	var ids []int
	if _, err := d.Floors(context.Background(), pq, func(id int, _ float64) { ids = append(ids, id) }); err != nil {
		t.Fatal(err)
	}
	var ms []Match
	for _, id := range ids {
		m, ok := d.ScoreBounded(id, pq, math.Inf(1))
		if !ok {
			t.Fatalf("listed shape %d scores nothing", id)
		}
		ms = append(ms, m)
	}
	sort.Slice(ms, func(i, j int) bool {
		return ms[i].Distance < ms[j].Distance || ms[i].Distance == ms[j].Distance && ms[i].GID < ms[j].GID
	})
	return ms[:min(k, len(ms))]
}

func newTestDelta(t *testing.T, gidBase int) *Delta {
	t.Helper()
	d, err := NewDelta(core.DefaultOptions(), 128, gidBase)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDeltaInsertMatchDelete(t *testing.T) {
	d := newTestDelta(t, 10)
	if err := d.Insert(100, []geom.Poly{square(0), tri(0)}); err != nil {
		t.Fatal(err)
	}
	if err := d.Insert(101, []geom.Poly{tri(5)}); err != nil {
		t.Fatal(err)
	}
	if d.NumImages() != 2 || d.NumShapes() != 3 {
		t.Fatalf("images=%d shapes=%d", d.NumImages(), d.NumShapes())
	}
	if d.NextGID() != 13 {
		t.Fatalf("NextGID = %d, want 13", d.NextGID())
	}
	// Duplicate insert is rejected.
	if err := d.Insert(100, []geom.Poly{square(2)}); err == nil {
		t.Fatal("duplicate image insert accepted")
	}
	ms := matchDelta(t, d, square(0), 2)
	if len(ms) != 2 || ms[0].GID != 10 || ms[0].ImageID != 100 {
		t.Fatalf("matches %+v", ms)
	}
	if ms[0].Distance > 1e-9 {
		t.Fatalf("exact copy distance %v", ms[0].Distance)
	}
	// Triangle query: both triangles at distance ~0, tie broken by GID.
	ms = matchDelta(t, d, tri(0), 3)
	if len(ms) != 3 || ms[0].GID >= ms[1].GID && ms[0].Distance == ms[1].Distance {
		t.Fatalf("order %+v", ms)
	}

	n, found, err := d.Delete(100)
	if err != nil || !found || n != 2 {
		t.Fatalf("Delete = (%d,%v,%v)", n, found, err)
	}
	if d.NumImages() != 1 || d.NumShapes() != 1 {
		t.Fatalf("after delete images=%d shapes=%d", d.NumImages(), d.NumShapes())
	}
	// The reservation survives: next insert continues after gid 12.
	if err := d.Insert(102, []geom.Poly{square(9)}); err != nil {
		t.Fatal(err)
	}
	ms = matchDelta(t, d, square(9), 1)
	if len(ms) != 1 || ms[0].GID != 13 || ms[0].ImageID != 102 {
		t.Fatalf("post-delete insert matched %+v", ms)
	}
	// Deleting twice reports not-found.
	if _, found, _ := d.Delete(100); found {
		t.Fatal("double delete reported found")
	}
	// Re-insert after delete is allowed and gets fresh gids.
	if err := d.Insert(100, []geom.Poly{tri(1)}); err != nil {
		t.Fatal(err)
	}
	if !d.Has(100) {
		t.Fatal("re-inserted image not live")
	}
}

func TestDeltaCandidatesMatchFrozenBuckets(t *testing.T) {
	d := newTestDelta(t, 0)
	shapes := []geom.Poly{square(0), tri(0), square(3), tri(7)}
	for i, p := range shapes {
		if err := d.Insert(i, []geom.Poly{p}); err != nil {
			t.Fatal(err)
		}
	}
	pq, err := core.PrepareQuery(square(0))
	if err != nil {
		t.Fatal(err)
	}
	quad := d.Family().Characteristic(pq.Entry().Poly.Pts)
	ids := d.Candidates(quad, 0)
	if len(ids) == 0 {
		t.Fatal("no candidates for an exact-copy query")
	}
	// Deleted shapes drop out of the candidate set even though the table
	// still holds them.
	if _, _, err := d.Delete(0); err != nil {
		t.Fatal(err)
	}
	for _, id := range d.Candidates(quad, 0) {
		if d.ImageOf(id) == 0 {
			t.Fatal("deleted image still a candidate")
		}
	}
	// Bounded scoring of a surviving candidate agrees with a frozen Base.
	b := core.NewBase(core.DefaultOptions())
	bid, err := b.AddShape(2, square(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Freeze(); err != nil {
		t.Fatal(err)
	}
	wantM, wantOK, err := b.ShapeDistancePreparedBounded(bid, pq, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	want := wantM.DistVertex
	var got Match
	var gotOK bool
	for _, id := range d.Candidates(quad, 1) {
		if d.ImageOf(id) == 2 {
			got, gotOK = d.ScoreBounded(id, pq, 0.8)
		}
	}
	if gotOK != wantOK || (wantOK && got.Distance != want) {
		t.Fatalf("delta score (%v,%v) != base (%v,%v)", got.Distance, gotOK, want, wantOK)
	}
}

func TestDeltaSealAndSnapshot(t *testing.T) {
	d := newTestDelta(t, 0)
	if err := d.Insert(1, []geom.Poly{square(0)}); err != nil {
		t.Fatal(err)
	}
	if err := d.Insert(2, []geom.Poly{tri(0), tri(2)}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Delete(1); err != nil {
		t.Fatal(err)
	}
	d.Seal()
	if err := d.Insert(3, []geom.Poly{square(5)}); !errors.Is(err, ErrSealed) {
		t.Fatalf("insert into sealed delta: %v", err)
	}
	if _, _, err := d.Delete(2); !errors.Is(err, ErrSealed) {
		t.Fatalf("delete in sealed delta: %v", err)
	}
	// Sealed deltas still serve queries.
	if ms := matchDelta(t, d, tri(0), 1); len(ms) != 1 {
		t.Fatalf("sealed match: %v", ms)
	}
	snap := d.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d images", len(snap))
	}
	if !snap[0].Deleted || snap[0].NumShapes != 1 || snap[0].Shapes != nil {
		t.Fatalf("deleted image state %+v", snap[0])
	}
	if snap[1].Deleted || len(snap[1].Shapes) != 2 || snap[1].ID != 2 {
		t.Fatalf("live image state %+v", snap[1])
	}
}

// ImageOf is exercised above; keep the accessor honest for unknown ids.
func TestDeltaSketchTable(t *testing.T) {
	d := newTestDelta(t, 0)
	if err := d.Insert(1, []geom.Poly{square(0), tri(0)}); err != nil {
		t.Fatal(err)
	}
	if err := d.Insert(2, []geom.Poly{tri(4)}); err != nil {
		t.Fatal(err)
	}
	pq, err := core.PrepareQuery(tri(0))
	if err != nil {
		t.Fatal(err)
	}
	tab, err := d.SketchTable(context.Background(), pq)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab) != 2 {
		t.Fatalf("sketch table %v", tab)
	}
	if tab[1] > 1e-9 {
		t.Fatalf("image 1 best distance %v", tab[1])
	}
}

// TestDeltaExactSearchContract pins the delta under the exact search's
// contract (DESIGN.md §4.12), across multi-shape deletes and a rollback:
// Floors lists exactly the live shapes, with floors under their distances,
// and reports their copies; Deletes moves with every delete and rollback
// and with nothing else, so a reader can tell that a listing has gone
// stale; ScoreBounded and Continuous refuse a removed shape; and the
// query's counter sees fewer copies reach the exact evaluator under the
// top-3 cutoff than under none.
func TestDeltaExactSearchContract(t *testing.T) {
	d := newTestDelta(t, 0)
	for i := 0; i < 6; i++ {
		if err := d.Insert(i, []geom.Poly{square(float64(i)), tri(float64(i)), tri(float64(i) + 0.5)}); err != nil {
			t.Fatal(err)
		}
	}
	before := d.Deletes()
	if _, found, err := d.Delete(2); err != nil || !found {
		t.Fatalf("Delete = (%v, %v)", found, err)
	}
	d.RollbackLast(5)
	if d.NumShapes() != 12 || d.NumEntries() < d.NumShapes() || d.Deletes() != before+2 {
		t.Fatalf("shapes=%d entries=%d deletes %d → %d", d.NumShapes(), d.NumEntries(), before, d.Deletes())
	}
	pq, err := core.PrepareQuery(tri(0))
	if err != nil {
		t.Fatal(err)
	}
	var evaluated atomic.Int64
	pq.AttachEvalCounter(&evaluated)
	floors := map[int]float64{}
	copies, err := d.Floors(context.Background(), pq, func(id int, floor float64) { floors[id] = floor })
	if err != nil || len(floors) != d.NumShapes() || copies != d.NumEntries() {
		t.Fatalf("Floors listed %d shapes, %d copies (%v); the delta holds %d, %d", len(floors), copies, err, d.NumShapes(), d.NumEntries())
	}
	var all []float64
	for id := 0; id < 18; id++ {
		m, ok := d.ScoreBounded(id, pq, math.Inf(1))
		_, listed := floors[id]
		if _, live := d.Continuous(id, m.Copy, pq); ok != listed || live != listed {
			t.Fatalf("shape %d: listed=%v, scored=%v, re-read=%v", id, listed, ok, live)
		}
		if !listed {
			continue
		}
		if m.ImageID == 2 || m.ImageID == 5 || floors[id] > m.Distance {
			t.Fatalf("shape %d: %+v under floor %g", id, m, floors[id])
		}
		all = append(all, m.Distance)
	}
	unbounded := evaluated.Load()
	sort.Float64s(all)
	evaluated.Store(0)
	for id := range floors {
		d.ScoreBounded(id, pq, all[2])
	}
	if bounded := evaluated.Load(); bounded < 3 || bounded >= unbounded || unbounded > int64(d.NumEntries()) {
		t.Fatalf("%d copies evaluated under the top-3 cutoff, %d under none, of %d", bounded, unbounded, d.NumEntries())
	}
	if err := d.Insert(7, []geom.Poly{square(7)}); err != nil || d.Deletes() != before+2 {
		t.Fatalf("an insert moved the delete count to %d (%v)", d.Deletes(), err)
	}
}
