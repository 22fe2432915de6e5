package ingest

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/geohash"
	"repro/internal/geom"
	"repro/internal/query"
	"repro/internal/synth"
)

func square(dx float64) geom.Poly {
	return geom.NewPolygon(geom.Pt(dx, 0), geom.Pt(dx+1, 0), geom.Pt(dx+1, 1), geom.Pt(dx, 1))
}

// deltaMatch is one live delta shape scored against a query, in global
// id space.
type deltaMatch struct {
	gid, image int
	dist       float64
}

// matchDelta is the delta's k nearest live shapes to q, the long way:
// every shape its base floors past the dead set, scored with no cutoff,
// sorted by (distance, gid).
func matchDelta(t *testing.T, d *Delta, q geom.Poly, k int) []deltaMatch {
	t.Helper()
	pq, err := core.PrepareQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	b := d.Base()
	var ms []deltaMatch
	if _, _, err := b.Floors(context.Background(), pq, d.Dead(), func(id int, _ float64) {
		m, ok, err := b.ShapeDistancePreparedBounded(id, pq, math.Inf(1))
		if err != nil || !ok {
			t.Fatalf("listed shape %d scores nothing (%v)", id, err)
		}
		ms = append(ms, deltaMatch{gid: d.GIDBase() + id, image: b.Shape(id).Image, dist: m.DistVertex})
	}); err != nil {
		t.Fatal(err)
	}
	sort.Slice(ms, func(i, j int) bool {
		return ms[i].dist < ms[j].dist || ms[i].dist == ms[j].dist && ms[i].gid < ms[j].gid
	})
	return ms[:min(k, len(ms))]
}

func newTestDelta(t *testing.T, gidBase int) *Delta {
	t.Helper()
	d, err := NewDelta(query.Options{Core: core.DefaultOptions()}, 128, gidBase)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// mustInsert is Insert that fails the test on an error.
func mustInsert(t *testing.T, d *Delta, image int, shapes ...geom.Poly) *Delta {
	t.Helper()
	next, err := d.Insert(image, shapes)
	if err != nil {
		t.Fatalf("Insert(%d): %v", image, err)
	}
	return next
}

func TestDeltaInsertMatchDelete(t *testing.T) {
	d := newTestDelta(t, 10)
	d = mustInsert(t, d, 100, square(0), tri(0))
	d = mustInsert(t, d, 101, tri(5))
	if d.NumImages() != 2 || d.NumShapes() != 3 {
		t.Fatalf("images=%d shapes=%d", d.NumImages(), d.NumShapes())
	}
	if d.NextGID() != 13 {
		t.Fatalf("NextGID = %d, want 13", d.NextGID())
	}
	// Duplicate insert is rejected.
	if _, err := d.Insert(100, []geom.Poly{square(2)}); err == nil {
		t.Fatal("duplicate image insert accepted")
	}
	ms := matchDelta(t, d, square(0), 2)
	if len(ms) != 2 || ms[0].gid != 10 || ms[0].image != 100 {
		t.Fatalf("matches %+v", ms)
	}
	if ms[0].dist > 1e-9 {
		t.Fatalf("exact copy distance %v", ms[0].dist)
	}
	// Triangle query: both triangles at distance ~0, tie broken by gid.
	ms = matchDelta(t, d, tri(0), 3)
	if len(ms) != 3 || ms[0].gid >= ms[1].gid && ms[0].dist == ms[1].dist {
		t.Fatalf("order %+v", ms)
	}

	d, found := d.Delete(100)
	if !found {
		t.Fatal("Delete did not find a live image")
	}
	if d.NumImages() != 1 || d.NumShapes() != 1 {
		t.Fatalf("after delete images=%d shapes=%d", d.NumImages(), d.NumShapes())
	}
	// The reservation survives: next insert continues after gid 12.
	d = mustInsert(t, d, 102, square(9))
	ms = matchDelta(t, d, square(9), 1)
	if len(ms) != 1 || ms[0].gid != 13 || ms[0].image != 102 {
		t.Fatalf("post-delete insert matched %+v", ms)
	}
	// Deleting twice reports not-found and changes nothing.
	if same, found := d.Delete(100); found || same != d {
		t.Fatal("double delete reported found")
	}
	// Re-insert after delete is allowed and gets fresh gids.
	d = mustInsert(t, d, 100, tri(1))
	if !d.Has(100) || d.NextGID() != 15 {
		t.Fatalf("re-inserted image: live=%v, NextGID %d", d.Has(100), d.NextGID())
	}
}

// TestDeltaCandidatesMatchFrozenBuckets pins the delta's hash listing:
// Lookup is geohash.Table.Lookup over a table holding the same shapes'
// quadruples, at radius 0 and 1, for queries on and off the stored
// shapes — the deleted shapes excluded from both once they are dead — and
// a version lists the same after a successor's insert or delete. A
// surviving candidate scores as a frozen Base holding it does.
func TestDeltaCandidatesMatchFrozenBuckets(t *testing.T) {
	images := synth.GenerateBase(synth.PaperSpec(0.002, 41))
	d := newTestDelta(t, 0)
	table := geohash.NewTable(d.Family())
	var polys []geom.Poly
	for _, im := range images {
		d = mustInsert(t, d, im.ID, im.Shapes...)
		for _, p := range im.Shapes {
			if ce, err := core.NormalizeCanonical(p); err == nil {
				if err := table.Insert(len(polys), d.Family().Characteristic(ce.Poly.Pts)); err != nil {
					t.Fatal(err)
				}
			}
			polys = append(polys, p)
		}
	}
	queries := append(synth.Queries(rand.New(rand.NewSource(43)), images, 12, 0.02), polys[:12]...)
	quads := make([]geohash.Quadruple, len(queries))
	for i, q := range queries {
		pq, err := core.PrepareQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		quads[i] = d.Family().Characteristic(pq.Entry().Poly.Pts)
	}
	live := func(ids []int, dead map[int]bool) []int {
		out := []int{}
		for _, id := range ids {
			if !dead[id] {
				out = append(out, id)
			}
		}
		return out
	}
	listings := func(v *Delta) [][]int {
		var out [][]int
		for _, quad := range quads {
			for _, radius := range []int{0, 1} {
				out = append(out, live(v.Lookup(quad, radius), v.Dead()))
			}
		}
		return out
	}
	check := func(label string, v *Delta, dead map[int]bool) {
		t.Helper()
		hits, widened := 0, 0
		for i, quad := range quads {
			for _, radius := range []int{0, 1} {
				got, want := live(v.Lookup(quad, radius), v.Dead()), live(table.Lookup(quad, radius), dead)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s q%d radius %d: delta lists %v, the table %v", label, i, radius, got, want)
				}
				if radius == 0 && len(got) > 0 {
					hits++
				}
				if radius == 1 && len(got) > len(live(v.Lookup(quad, 0), v.Dead())) {
					widened++
				}
			}
		}
		if hits == 0 || widened == 0 {
			t.Fatalf("%s: %d queries list shapes at radius 0, %d more at radius 1; the test wants both", label, hits, widened)
		}
	}
	check("all live", d, nil)

	// Delete the image holding the first query's bucket: its shapes drop out.
	pq, err := core.PrepareQuery(polys[0])
	if err != nil {
		t.Fatal(err)
	}
	quad := d.Family().Characteristic(pq.Entry().Poly.Pts)
	victim := d.Base().Shape(d.Lookup(quad, 0)[0]).Image
	before, beforeListings := d, listings(d)
	d, found := d.Delete(victim)
	if !found {
		t.Fatal("Delete did not find a live image")
	}
	dead := map[int]bool{}
	for id := range d.Base().NumShapes() {
		if d.Base().Shape(id).Image == victim {
			dead[id] = true
		}
	}
	if !reflect.DeepEqual(d.Dead(), dead) {
		t.Fatalf("Dead() = %v, want the deleted image's shapes %v", d.Dead(), dead)
	}
	check("one image deleted", d, dead)
	// A successor's insert does not reach its predecessor's listing.
	after := mustInsert(t, d, 9000, polys[0].Clone())
	if got := listings(before); !reflect.DeepEqual(got, beforeListings) {
		t.Fatal("a version's listing changed under its successors' delete and insert")
	}
	if got := live(after.Lookup(quad, 0), after.Dead()); len(got) == 0 || got[len(got)-1] != d.Base().NumShapes() {
		t.Fatalf("the inserted copy of shape 0 is not on its curves: %v", got)
	}

	// Bounded scoring of a surviving candidate agrees with a frozen Base.
	id := live(d.Lookup(quad, 1), d.Dead())[0]
	b := core.NewBase(core.DefaultOptions())
	if _, err := b.AddShape(0, d.Base().Shape(id).Poly); err != nil {
		t.Fatal(err)
	}
	if err := b.Freeze(); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []float64{math.Inf(1), 0.05} {
		want, wantOK, err := b.ShapeDistancePreparedBounded(0, pq, cut)
		if err != nil {
			t.Fatal(err)
		}
		got, gotOK, err := d.Base().ShapeDistancePreparedBounded(id, pq, cut)
		if err != nil {
			t.Fatal(err)
		}
		if gotOK != wantOK || got.DistVertex != want.DistVertex {
			t.Fatalf("cut %v: delta score (%v,%v) != base (%v,%v)", cut, got.DistVertex, gotOK, want.DistVertex, wantOK)
		}
	}
}

// TestDeltaSealAndSnapshot pins what a compaction relies on when it seals
// a version — keeps folding it while a fresh delta takes new writes: the
// version never changes. Its successors' inserts and deletes leave its
// images, its matches and its snapshot as they were; the snapshot lists
// live images with their shapes, deleted ones with their shape count.
func TestDeltaSealAndSnapshot(t *testing.T) {
	d := newTestDelta(t, 0)
	d = mustInsert(t, d, 1, square(0))
	d = mustInsert(t, d, 2, tri(0), tri(2))
	sealed, _ := d.Delete(1)
	snap := sealed.Snapshot()
	next := mustInsert(t, sealed, 3, square(5))
	if next, found := next.Delete(2); !found || next.Has(2) || !sealed.Has(2) {
		t.Fatal("a successor's delete reached its predecessor")
	}
	if sealed.Has(3) || sealed.NumImages() != 1 || sealed.NumShapes() != 2 {
		t.Fatalf("a successor's insert reached its predecessor: images=%d shapes=%d", sealed.NumImages(), sealed.NumShapes())
	}
	if ms := matchDelta(t, sealed, tri(0), 5); len(ms) != 2 {
		t.Fatalf("sealed match: %v", ms)
	}
	if !reflect.DeepEqual(sealed.Snapshot(), snap) {
		t.Fatal("the snapshot changed under the successors")
	}
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

// TestDeltaSketchTable pins the delta's share of a sketch search: the
// fixed-cutoff scan with no cutoff over its base, past its dead set, gives
// each live image's best distance and no deleted image's.
func TestDeltaSketchTable(t *testing.T) {
	d := newTestDelta(t, 0)
	d = mustInsert(t, d, 1, square(0), tri(0))
	d = mustInsert(t, d, 2, tri(4))
	d = mustInsert(t, d, 3, tri(8))
	d, _ = d.Delete(3)
	pq, err := core.PrepareQuery(tri(0))
	if err != nil {
		t.Fatal(err)
	}
	tab := map[int]float64{}
	if _, _, err := d.Base().Within(context.Background(), pq, d.Dead(), math.Inf(1), func(m core.Match) {
		img := d.Base().Shape(m.ShapeID).Image
		if cur, ok := tab[img]; !ok || m.DistVertex < cur {
			tab[img] = m.DistVertex
		}
	}); err != nil {
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
// contract (DESIGN.md §4.12), across multi-shape deletes and a failed
// insert: its base floors exactly the live shapes past the dead set, with
// floors under their distances, and reports their copies; the version
// before the delete still lists the deleted shapes; an insert with an
// invalid shape returns no successor and leaves the version as it was; and
// the query's counter sees fewer copies reach the exact evaluator under
// the top-3 cutoff than under none.
func TestDeltaExactSearchContract(t *testing.T) {
	d := newTestDelta(t, 0)
	for i := 0; i < 6; i++ {
		d = mustInsert(t, d, i, square(float64(i)), tri(float64(i)), tri(float64(i)+0.5))
	}
	before := d
	d, found := d.Delete(2)
	if !found {
		t.Fatal("Delete did not find a live image")
	}
	if next, err := d.Insert(7, []geom.Poly{square(7), geom.NewPolyline(geom.Pt(0, 0))}); err == nil || next != nil {
		t.Fatalf("an insert with an invalid shape returned (%v, %v)", next, err)
	}
	if d.NumShapes() != 15 || d.NextGID() != 18 || d.Has(7) {
		t.Fatalf("shapes=%d NextGID=%d; the failed insert left a trace", d.NumShapes(), d.NextGID())
	}
	pq, err := core.PrepareQuery(tri(0))
	if err != nil {
		t.Fatal(err)
	}
	var evaluated atomic.Int64
	pq.AttachEvalCounter(&evaluated)
	b := d.Base()
	liveCopies := 0
	for id := range b.NumShapes() {
		if !d.Dead()[id] {
			liveCopies += len(b.EntriesOfShape(id))
		}
	}
	floors := map[int]float64{}
	copies, _, err := b.Floors(context.Background(), pq, d.Dead(), func(id int, floor float64) { floors[id] = floor })
	if err != nil || len(floors) != d.NumShapes() || copies != liveCopies {
		t.Fatalf("Floors listed %d shapes, %d copies (%v); the delta holds %d, %d", len(floors), copies, err, d.NumShapes(), liveCopies)
	}
	var all []float64
	for id, floor := range floors {
		m, ok, err := b.ShapeDistancePreparedBounded(id, pq, math.Inf(1))
		if err != nil || !ok || b.Shape(id).Image == 2 || floor > m.DistVertex {
			t.Fatalf("shape %d of image %d: %+v (%v, %v) under floor %g", id, b.Shape(id).Image, m, ok, err, floor)
		}
		all = append(all, m.DistVertex)
	}
	n := 0
	if _, _, err := before.Base().Floors(context.Background(), pq, before.Dead(), func(int, float64) { n++ }); err != nil || n != 18 {
		t.Fatalf("the version before the delete floors %d shapes (%v), want 18", n, err)
	}
	unbounded := evaluated.Load()
	sort.Float64s(all)
	evaluated.Store(0)
	for id := range floors {
		b.ShapeDistancePreparedBounded(id, pq, all[2])
	}
	if bounded := evaluated.Load(); bounded < 3 || bounded >= unbounded || unbounded > int64(liveCopies) {
		t.Fatalf("%d copies evaluated under the top-3 cutoff, %d under none, of %d", bounded, unbounded, liveCopies)
	}
}
