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

// deltaMatch is one delta shape scored against a query, by local id.
type deltaMatch struct {
	id, image int
	dist      float64
}

// matchDelta is the delta's k nearest shapes to q outside dead, the long
// way: every shape its base floors past dead, scored with no cutoff,
// sorted by (distance, local id).
func matchDelta(t *testing.T, d *Delta, dead map[int]bool, q geom.Poly, k int) []deltaMatch {
	t.Helper()
	pq, err := core.PrepareQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	b := d.Base()
	var ms []deltaMatch
	if _, _, err := b.Floors(context.Background(), pq, dead, func(id int, _ float64) {
		m, ok, err := b.ShapeDistancePreparedBounded(id, pq, math.Inf(1))
		if err != nil || !ok {
			t.Fatalf("listed shape %d scores nothing (%v)", id, err)
		}
		ms = append(ms, deltaMatch{id: id, image: b.Shape(id).Image, dist: m.DistVertex})
	}); err != nil {
		t.Fatal(err)
	}
	sort.Slice(ms, func(i, j int) bool {
		return ms[i].dist < ms[j].dist || ms[i].dist == ms[j].dist && ms[i].id < ms[j].id
	})
	return ms[:min(k, len(ms))]
}

func newTestDelta(t *testing.T) *Delta {
	t.Helper()
	d, err := NewDelta(query.Options{Core: core.DefaultOptions()}, 128)
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

// TestDeltaInsertMatchDelete pins Insert: an image's shapes take the next
// local ids, a deleted image's still stored, and are matched under them;
// behind a dead set the deleted image's drop out. Which images are live,
// and each shape's global id, is the image log's record: the root tests
// hold a duplicate insert and a second delete (TestIngestErrors), an id
// reservation (the model harness's live rows:
// TestTombstonedSearchMatchesRebuild, TestIngestDeleteEquivalence) and a
// re-insert after a delete (TestIngestReinsertAfterDelete).
func TestDeltaInsertMatchDelete(t *testing.T) {
	d := newTestDelta(t)
	d = mustInsert(t, d, 100, square(0), tri(0))
	d = mustInsert(t, d, 101, tri(5))
	ms := matchDelta(t, d, nil, square(0), 2)
	if len(ms) != 2 || ms[0].id != 0 || ms[0].image != 100 || ms[0].dist > 1e-9 {
		t.Fatalf("matches %+v", ms)
	}
	// Triangle query: both triangles at distance ~0, tie broken by local id.
	ms = matchDelta(t, d, nil, tri(0), 3)
	if len(ms) != 3 || ms[0].id >= ms[1].id && ms[0].dist == ms[1].dist {
		t.Fatalf("order %+v", ms)
	}
	// Behind image 100's shapes, an insert after them takes local id 3.
	d = mustInsert(t, d, 102, square(9))
	ms = matchDelta(t, d, map[int]bool{0: true, 1: true}, square(9), 3)
	if len(ms) != 2 || ms[0].id != 3 || ms[0].image != 102 || ms[1].image != 101 {
		t.Fatalf("post-delete insert matched %+v", ms)
	}
}

// TestDeltaCandidatesMatchFrozenBuckets pins the delta's hash listing:
// Lookup is geohash.Table.Lookup over a table holding the same shapes'
// quadruples, at radius 0 and 1, for queries on and off the stored
// shapes — behind a dead set, an image's shapes, both list the same live
// shapes — and a version lists the same after a successor's insert. A
// surviving candidate scores as a frozen Base holding it does.
func TestDeltaCandidatesMatchFrozenBuckets(t *testing.T) {
	images := synth.GenerateBase(synth.PaperSpec(0.002, 41))
	d := newTestDelta(t)
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
	listings := func(v *Delta) (out [][]int) {
		for _, quad := range quads {
			out = append(out, v.Lookup(quad, 0), v.Lookup(quad, 1))
		}
		return out
	}
	check := func(label string, v *Delta, dead map[int]bool) {
		t.Helper()
		hits, widened := 0, 0
		for i, quad := range quads {
			for _, radius := range []int{0, 1} {
				got, want := live(v.Lookup(quad, radius), dead), live(table.Lookup(quad, radius), dead)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s q%d radius %d: delta lists %v, the table %v", label, i, radius, got, want)
				}
				if radius == 0 && len(got) > 0 {
					hits++
				}
				if radius == 1 && len(got) > len(live(v.Lookup(quad, 0), dead)) {
					widened++
				}
			}
		}
		if hits == 0 || widened == 0 {
			t.Fatalf("%s: %d queries list shapes at radius 0, %d more at radius 1; the test wants both", label, hits, widened)
		}
	}
	check("all live", d, nil)

	// Behind the image holding the first query's bucket, its shapes drop out.
	pq, err := core.PrepareQuery(polys[0])
	if err != nil {
		t.Fatal(err)
	}
	quad := d.Family().Characteristic(pq.Entry().Poly.Pts)
	victim := d.Base().Shape(d.Lookup(quad, 0)[0]).Image
	dead := map[int]bool{}
	for id := range d.Base().NumShapes() {
		if d.Base().Shape(id).Image == victim {
			dead[id] = true
		}
	}
	check("one image deleted", d, dead)
	// A successor's insert does not reach its predecessor's listing.
	before := listings(d)
	after := mustInsert(t, d, 9000, polys[0].Clone())
	if got := listings(d); !reflect.DeepEqual(got, before) {
		t.Fatal("a version's listing changed under its successor's insert")
	}
	if got := live(after.Lookup(quad, 0), dead); len(got) == 0 || got[len(got)-1] != d.Base().NumShapes() {
		t.Fatalf("the inserted copy of shape 0 is not on its curves: %v", got)
	}

	// Bounded scoring of a surviving candidate agrees with a frozen Base.
	id := live(d.Lookup(quad, 1), dead)[0]
	b, err := core.NewBase(core.DefaultOptions()).Append(0, []geom.Poly{d.Base().Shape(id).Poly})
	if err != nil {
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
// version never changes. Its successors' inserts leave its images, its
// matches and its shapes as they were, and a shape reads back as it was
// inserted, which is what the fold stores. Which of its images are live
// is the image log's record: the sealed delta's deletes are refused by
// TestIngestErrors, and the fold of its slot is held by the model
// harness's live rows (TestIngestDeleteEquivalence).
func TestDeltaSealAndSnapshot(t *testing.T) {
	d := newTestDelta(t)
	d = mustInsert(t, d, 1, square(0))
	sealed := mustInsert(t, d, 2, tri(0), tri(2))
	want := matchDelta(t, sealed, nil, tri(0), 5)
	next := mustInsert(t, mustInsert(t, sealed, 3, square(5)), 4, tri(0))
	if n := len(sealed.DB().Graphs()); n != 2 || sealed.Base().NumShapes() != 3 || next.Base().NumShapes() != 5 {
		t.Fatalf("a successor's insert reached its predecessor: images=%d shapes=%d", n, sealed.Base().NumShapes())
	}
	if got := matchDelta(t, sealed, nil, tri(0), 5); len(got) != 3 || !reflect.DeepEqual(got, want) {
		t.Fatalf("sealed match %v, before the successors' inserts %v", got, want)
	}
	if got := sealed.Base().Shape(2).Poly; !reflect.DeepEqual(got, tri(2)) {
		t.Fatalf("image 2's second shape reads back as %v", got)
	}
}

// TestDeltaSketchTable pins the delta's share of a sketch search: the
// fixed-cutoff scan with no cutoff over its base, past a dead set (image
// 3's shape), gives each live image's best distance and no deleted image's.
func TestDeltaSketchTable(t *testing.T) {
	d := newTestDelta(t)
	d = mustInsert(t, d, 1, square(0), tri(0))
	d = mustInsert(t, d, 2, tri(4))
	d = mustInsert(t, d, 3, tri(8))
	pq, err := core.PrepareQuery(tri(0))
	if err != nil {
		t.Fatal(err)
	}
	tab := map[int]float64{}
	if _, _, err := d.Base().Within(context.Background(), pq, map[int]bool{3: true}, math.Inf(1), func(m core.Match) {
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
// contract (DESIGN.md §4.12), behind a multi-shape image's dead set and
// after a failed insert: its base floors exactly the live shapes past the
// dead set, with floors under their distances, and reports their copies;
// an insert with an invalid shape returns no successor and leaves the
// version as it was; and the query's counter sees fewer copies reach the
// exact evaluator under the top-3 cutoff than under none. That a delete
// leaves the version before it as it was is imageLog.deleted's contract
// (TestSearchViewIsASnapshot).
func TestDeltaExactSearchContract(t *testing.T) {
	d := newTestDelta(t)
	for i := 0; i < 6; i++ {
		d = mustInsert(t, d, i, square(float64(i)), tri(float64(i)), tri(float64(i)+0.5))
	}
	dead := map[int]bool{6: true, 7: true, 8: true} // image 2's shapes
	if next, err := d.Insert(7, []geom.Poly{square(7), geom.NewPolyline(geom.Pt(0, 0))}); err == nil || next != nil {
		t.Fatalf("an insert with an invalid shape returned (%v, %v)", next, err)
	}
	if n := len(d.DB().Graphs()); n != 6 || d.Base().NumShapes() != 18 || len(d.quads) != 18 {
		t.Fatalf("images=%d shapes=%d; the failed insert left a trace", n, d.Base().NumShapes())
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
		if !dead[id] {
			liveCopies += len(b.EntriesOfShape(id))
		}
	}
	floors := map[int]float64{}
	copies, _, err := b.Floors(context.Background(), pq, dead, func(id int, floor float64) { floors[id] = floor })
	if err != nil || len(floors) != 15 || copies != liveCopies {
		t.Fatalf("Floors listed %d shapes, %d copies (%v); the delta holds 15, %d", len(floors), copies, err, liveCopies)
	}
	var all []float64
	for id, floor := range floors {
		m, ok, err := b.ShapeDistancePreparedBounded(id, pq, math.Inf(1))
		if err != nil || !ok || b.Shape(id).Image == 2 || floor > m.DistVertex {
			t.Fatalf("shape %d of image %d: %+v (%v, %v) under floor %g", id, b.Shape(id).Image, m, ok, err, floor)
		}
		all = append(all, m.DistVertex)
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
