package geosir

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/synth"
)

// The model harness. A search answer is the top k by h_avg (§2), so a
// brute-force scan over the live shapes settles every answer. The harness
// holds every way the engine holds a base to one reference that shares no
// code with the two passes (DESIGN.md §4.9): an Engine rebuilt from the
// live images, read only through core.ScanMatcher (ModeExact, ModeAuto),
// the unbounded ranking of its hash bucket (ModeApproximate) and
// brute-force image scoring (ModeSketch).
//
// Its rows are the targets of one model: an Engine ("engine");
// ShardedEngines of 1, 2 and 7 shards ("shards"); each one's snapshot
// directory reloaded on the heap and mapped, beside the engine that wrote
// it ("reloaded"); a live 7-shard engine frozen over 70% of the images
// with 30% inserted ("live-inserted"), then with a frozen image, a delta
// image and every frozen image of one shard deleted ("live-deleted"), then
// mid-compaction, a sealed and an active delta at once
// ("live-mid-compaction"), then compacted ("live-compacted"), then after a
// fold of no live image while the active delta took writes, beside its
// directory reloaded, heap and mapped, with the WAL replayed
// ("live-refolded"). Each target answers under ExecAuto at GOMAXPROCS 1
// and 2 (widths 1 and 2) and under ExecSequential at 2. The checks, each owned by the tests named:
//   - answers (TestExecEquivalence, TestShardedEquivalence,
//     TestShardedMmapEquivalence, TestIngestEquivalence,
//     TestTombstonedSearchMatchesRebuild, one row each;
//     TestIngestDeleteEquivalence, the last three rows;
//     TestShardedSearchDeterministic, the shards row re-run): the model's
//     exact and approximate matches byte for byte, the model's shape ids
//     mapped by the reservation rule (reserved), ann:approx the target's
//     own parts' ANN candidates and live delta
//     shapes ranked (annApproxUnshared), Converged exactly when k fits the
//     live shapes, and the same response, Stats included, at every exec
//     width and GOMAXPROCS, from a group's every target (a shard count's
//     built, heap and mapped engines; the refolded engine and its reloads);
//   - ModeAuto answers as ModeExact and the model, never from the hash
//     table (TestAutoIsExact, every row);
//   - both stages under every listing order of bucketOrders
//     (TestBucketOrderInvariance, every row);
//   - pass 1 floors every live shape exactly once (TestBoundFirstEquivalence,
//     every row, and the α = 0.6 sliver engine on every check);
//   - sketches as brute-force image scoring ranks them
//     (TestSketchAgainstBruteForce, the static rows;
//     TestSketchFrozenEqualsLive, the live rows);
//   - a query of more segments than a field cell's list can name
//     (TestManySegmentQueryIsScanTopK) and k past the live shapes
//     (TestShortBucketExactIsScanTopK) answer as the model, every row.
// Every test also holds each target's sizes to the model's and k = 0 to
// ErrBadK.

// model is the reference for one set of live images: an Engine built from
// them alone and, per query, every live shape ranked by the exhaustive scan.
type model struct {
	eng    *Engine
	ranked [][]Match // per query, every live shape by (distance, id)
	bucket [][]Match // per query, the shapes of the query's hash bucket so ranked
	sketch []SketchMatch
}

func newModel(t *testing.T, eng *Engine, queries, sketch []Shape) *model {
	t.Helper()
	m := &model{eng: eng}
	base := m.eng.Base()
	scan := core.NewScanMatcher(base)
	rank := func(q Shape) []Match {
		ms, err := scan.Match(q, base.NumShapes())
		if err != nil {
			t.Fatal(err)
		}
		out := make([]Match, len(ms))
		for i, s := range ms {
			out[i] = Match{ShapeID: s.ShapeID, ImageID: base.Shape(s.ShapeID).Image, Distance: s.DistVertex, ContinuousDistance: s.DistContinuous}
		}
		return out
	}
	for _, q := range queries {
		all := rank(q)
		m.ranked = append(m.ranked, all)
		// The bucket is the query's hash curves, widened once if they hold
		// nothing; its shapes keep the scan's distances and lose the
		// continuous re-read, which only the exact stage makes.
		pq, err := core.PrepareQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		quad := m.eng.family.Characteristic(pq.Entry().Poly.Pts)
		ids := m.eng.HashTable().Lookup(quad, 0)
		if len(ids) == 0 {
			ids = m.eng.HashTable().Lookup(quad, 1)
		}
		var bucket []Match
		for _, s := range all {
			if slices.Contains(ids, s.ShapeID) {
				s.ContinuousDistance, s.Approximate = 0, true
				bucket = append(bucket, s)
			}
		}
		m.bucket = append(m.bucket, bucket)
	}
	// A sketch ranks each image by the mean, over the sketch's shapes, of
	// its nearest shape's distance.
	perImage := map[int][]float64{}
	for si, q := range sketch {
		for _, s := range rank(q) {
			ds := perImage[s.ImageID]
			if ds == nil {
				ds = make([]float64, len(sketch))
				for i := range ds {
					ds[i] = math.Inf(1)
				}
				perImage[s.ImageID] = ds
			}
			ds[si] = min(ds[si], s.Distance)
		}
	}
	for img, ds := range perImage {
		var sum float64
		for _, d := range ds {
			sum += d
		}
		m.sketch = append(m.sketch, SketchMatch{ImageID: img, Score: sum / float64(len(ds)), PerShape: ds})
	}
	slices.SortFunc(m.sketch, func(a, b SketchMatch) int {
		return cmp.Or(cmp.Compare(a.Score, b.Score), cmp.Compare(a.ImageID, b.ImageID))
	})
	return m
}

// top is the first k of a ranking.
func top[S ~[]E, E any](s S, k int) S { return s[:min(k, len(s))] }

// reserved maps the ids an Engine over kept gives its shapes to the ids a
// live engine sent every image of sent, in that order, gives them: each
// image, deleted or not, reserves its shapes' ids in the order it was sent
// (DESIGN.md §4.12). kept lists the live images in the order they were
// sent, so the map is monotone and keeps the model's tie order.
func reserved(sent, kept []synth.Image) (ids []int) {
	gid := 0
	for _, im := range sent {
		if slices.ContainsFunc(kept, func(k synth.Image) bool { return k.ID == im.ID }) {
			for i := range im.Shapes {
				ids = append(ids, gid+i)
			}
		}
		gid += len(im.Shapes)
	}
	return ids
}

// target is one way of holding the model's base. Targets of one group hold
// the same parts, so their answers agree on Stats as well.
type target struct {
	name, group string
	s           interface {
		Searcher
		searchView() searchView
		NumImages() int
		NumShapes() int
	}
}

// modelFixture is the harness's base and queries: a small base with the
// paper's statistics, a shape stored twice (a tie across images, and
// across the frozen shards and the delta of a live engine), and rectangles
// stored twice and nearly so; near queries (distortion 0.01–0.02) whose
// sources the live engine deletes, a far one (0.05), an unmatched star and
// centrally symmetric queries, which tie a stored copy and its half-turn
// twin; and apart from them a query of more segments than a field cell's
// list can name.
type modelFixture struct {
	images          []synth.Image
	queries, sketch []Shape
	many            Shape
	nearFirst       Shape // the first query distorted by 0.002
	deleted         []int // the sources of the first and third queries: a frozen and a delta image
}

func newModelFixture(t *testing.T) modelFixture {
	images, _, sketch := equivBase(t)
	rect := func(w, h float64) Shape {
		return NewPolygon(Pt(0, 0), Pt(w, 0), Pt(w, h), Pt(0, h))
	}
	images = append(images,
		synth.Image{ID: 9001, Shapes: []Shape{images[0].Shapes[0].Clone()}},
		synth.Image{ID: 9002, Shapes: []Shape{rect(4, 1), rect(3, 1)}},
		synth.Image{ID: 9003, Shapes: []Shape{rect(4, 1)}},
		synth.Image{ID: 9004, Shapes: []Shape{rect(4, 1.1)}})
	frozen, inserted := splitBase(images)
	delFrozen, delDelta := frozen[len(frozen)/2], inserted[len(inserted)/2]
	rng := rand.New(rand.NewSource(47))
	near := func(s Shape, d float64) Shape {
		if q := synth.Distort(rng, s, d); q.Validate() == nil {
			return q
		}
		return s.Clone()
	}
	queries := []Shape{
		near(delFrozen.Shapes[0], 0.01),
		images[0].Shapes[0],
		near(delDelta.Shapes[0], 0.01),
		near(images[3].Shapes[0], 0.02),
		near(images[5].Shapes[0], 0.05),
		synth.Star(rng, 7, 0.3),
		NewPolygon(near(images[7].Shapes[0], 0.01).Resample(300)...),
		rect(4, 1.05),
		NewPolygon(Pt(0, 0), Pt(2, -1), Pt(4, 0), Pt(2, 1)),
		NewPolyline(Pt(0, 0), Pt(3, 1)),
	}
	many := queries[6]
	if n := many.NumEdges(); n <= math.MaxUint8 {
		t.Fatalf("the many-segment query has %d segments", n)
	}
	queries = slices.Delete(queries, 6, 7)
	if r := newModel(t, buildSingle(t, images), queries[1:2], nil).ranked[0]; r[0].Distance != r[1].Distance {
		t.Fatalf("the twin query ties no two shapes: %+v", r[:2])
	}
	ties, parts := 0, buildSingle(t, images).searchView().parts
	for _, q := range queries[len(queries)-2:] {
		ties += copyTies(t, parts[0], q)
	}
	if ties == 0 {
		t.Fatal("no shape of the rhombus's or the segment's bucket ties on two of its copies")
	}
	return modelFixture{images, queries, sketch, many, near(queries[0], 0.002), []int{delFrozen.ID, delDelta.ID}}
}

// copyTies counts the shapes of the query's hash bucket in part p whose
// distance to the query two of their normalized copies realize, to the
// bit: a centrally symmetric query ties a stored copy with its half-turn
// twin.
func copyTies(t *testing.T, p part, q Shape) (ties int) {
	t.Helper()
	pq, err := core.PrepareQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range hashBuckets([]part{p}, pq)[0] {
		best, n := math.Inf(1), 0
		for _, ei := range p.base.EntriesOfShape(id) {
			cp := p.base.Entry(ei).Poly
			d := (core.AvgMinDistVertices(cp, pq.Oracle()) + core.AvgMinDistVertices(pq.Entry().Poly, core.NewBoundaryDist(cp))) / 2
			switch {
			case d < best:
				best, n = d, 1
			case d == best:
				n++
			}
		}
		if n > 1 {
			ties++
		}
	}
	return ties
}

// property is a check checkModel holds a target to.
type property uint8

const (
	propAnswers property = 1 << iota // exact and approximate matches, Converged, Stats at every width
	propAuto                         // ModeAuto answers as ModeExact and the model, never hashing
	propOrders                       // both stages under every listing order
	propPass1                        // pass 1 floors every live shape once
	propSketch                       // sketches ranked as brute-force image scoring ranks them
	propAll     = propAnswers | propAuto | propOrders | propPass1 | propSketch
)

// modelRow is a row of targets runModel builds.
type modelRow string

const (
	rowEngine        modelRow = "engine"
	rowShards        modelRow = "shards"
	rowReloaded      modelRow = "reloaded"
	rowLiveInserted  modelRow = "live-inserted"
	rowLiveDeleted   modelRow = "live-deleted"
	rowLiveMid       modelRow = "live-mid-compaction"
	rowLiveCompacted modelRow = "live-compacted"
	rowLiveRefolded  modelRow = "live-refolded"
)

var (
	allRows    = []modelRow{rowEngine, rowShards, rowReloaded, rowLiveInserted, rowLiveDeleted, rowLiveMid, rowLiveCompacted, rowLiveRefolded}
	staticRows = allRows[:3]
	liveRows   = allRows[3:]
)

// modelRun is one test of the harness: the rows it builds, the checks it
// holds their targets to, its queries (the fixture's when nil) and its k
// for a base of live shapes (1 and 3 when nil). Each target is asked
// rounds times (at least once).
type modelRun struct {
	rows    []modelRow // nil: every row
	checks  property
	queries []Shape
	ks      func(live int) []int
	rounds  int
}

// runModel builds the rows run names and holds each row's targets to the
// model of its live images, one subtest per row. It fails when a row it
// was asked for did not run.
func runModel(t *testing.T, fx modelFixture, run modelRun) {
	ctx := context.Background()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	queries := fx.queries
	if run.queries != nil {
		queries = run.queries
	}
	rows := run.rows
	if rows == nil {
		rows = allRows
	}
	want := func(rs ...modelRow) bool {
		return slices.ContainsFunc(rs, func(r modelRow) bool { return slices.Contains(rows, r) })
	}
	ran := map[modelRow]bool{}
	defer func() {
		for _, r := range rows {
			if !ran[r] && !t.Failed() {
				t.Errorf("row %q was asked for and did not run", r)
			}
		}
	}()
	// checkRow holds targets sent the images of sent to the model of kept.
	checkRow := func(row modelRow, sent, kept []synth.Image, targets ...target) {
		ran[row] = true
		t.Run(string(row), func(t *testing.T) {
			var asked []target
			for range max(run.rounds, 1) {
				asked = append(asked, targets...)
			}
			m, ids := newModel(t, buildSingle(t, kept), queries, fx.sketch), reserved(sent, kept)
			for _, ms := range slices.Concat(m.ranked, m.bucket) {
				for i := range ms {
					ms[i].ShapeID = ids[ms[i].ShapeID]
				}
			}
			checkModel(t, m, asked, queries, fx.sketch, run)
		})
	}
	// reload opens a snapshot directory under mode, closed at cleanup.
	reload := func(label, dir string, mode LoadMode) *ShardedEngine {
		re, rec, err := loadShardedDir(dir, mode)
		if err != nil || !rec.Complete() {
			t.Fatalf("%s %v: %v, %+v", label, mode, err, rec)
		}
		t.Cleanup(func() {
			if err := re.Close(); err != nil {
				t.Error(err)
			}
		})
		if st := re.StorageStats(); st.LoadMode != servedLoadMode(mode) || (st.LoadMode == "mmap") != (st.MappedBytes > 0) {
			t.Fatalf("%s %v: served as %+v", label, mode, st)
		}
		return re
	}

	if want(rowEngine) {
		checkRow(rowEngine, fx.images, fx.images, target{"engine", "engine", buildSingle(t, fx.images)})
	}
	if want(rowShards, rowReloaded) {
		var sharded, reloaded []target
		for _, shards := range []int{1, 2, 7} {
			se := buildShardedFrom(t, fx.images, shards)
			group := fmt.Sprintf("shards=%d", shards)
			sharded = append(sharded, target{group, group, se})
			if !want(rowReloaded) {
				continue
			}
			reloaded = append(reloaded, target{group, group, se})
			dir := filepath.Join(t.TempDir(), "snap")
			if err := se.SaveDir(dir); err != nil {
				t.Fatal(err)
			}
			for _, mode := range []LoadMode{LoadModeHeap, LoadModeMmap} {
				reloaded = append(reloaded, target{fmt.Sprintf("%s %v", group, mode), group, reload(group, dir, mode)})
			}
		}
		if want(rowShards) {
			checkRow(rowShards, fx.images, fx.images, sharded...)
		}
		if want(rowReloaded) {
			checkRow(rowReloaded, fx.images, fx.images, reloaded...)
		}
	}
	if !want(liveRows...) {
		return
	}

	// The live engine, and what the next compaction's built stage does.
	const liveShards = 7
	frozen, inserted := splitBase(fx.images)
	var kept []synth.Image
	var live *ShardedEngine
	var atBuilt func()
	live = buildLive(t, frozen, inserted, liveShards, IngestConfig{CrashStage: func(stage string) error {
		if f := atBuilt; stage == "built" && f != nil {
			atBuilt = nil
			f()
		}
		return nil
	}})
	if want(rowLiveInserted) {
		checkRow(rowLiveInserted, fx.images, fx.images, target{"live", "inserted", live})
	}
	deleted := slices.Clone(fx.deleted)
	for _, im := range frozen {
		if core.ShardFor(im.ID, liveShards) == liveShards-1 && !slices.Contains(deleted, im.ID) {
			deleted = append(deleted, im.ID)
		}
	}
	for _, id := range deleted {
		if err := live.DeleteImage(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	v := live.searchView()
	if !slices.ContainsFunc(v.parts, func(p part) bool { return p.liveShapes() == 0 }) {
		t.Fatal("no part of the live view is wholly tombstoned")
	}
	if n := deadOnCurves(t, v.parts, fx.queries[0]); n == 0 {
		t.Fatal("no tombstoned shape lies on the first query's hash curves")
	}
	kept = slices.DeleteFunc(slices.Clone(fx.images), func(im synth.Image) bool { return slices.Contains(deleted, im.ID) })
	if want(rowLiveDeleted) {
		checkRow(rowLiveDeleted, fx.images, kept, target{"live", "deleted", live})
	}
	// The first compaction's built stage inserts one more image, a copy of
	// the fourth query and a shape near the first, into the active delta
	// beside the sealed one it folds; the second compaction folds it.
	mid := synth.Image{ID: 9005, Shapes: []Shape{fx.queries[3].Clone(), fx.nearFirst}}
	sent := append(slices.Clone(fx.images), mid) // every image the live engine is sent, in order
	atBuilt = func() {
		if err := live.InsertImage(ctx, mid.ID, mid.Shapes); err != nil {
			t.Fatal(err)
		}
		if st := live.IngestStats(); st.SealedShapes == 0 || st.DeltaShapes == 0 {
			t.Fatalf("mid-compaction wants a sealed and an active delta: %+v", st)
		}
		kept = append(kept, mid)
		if want(rowLiveMid) {
			checkRow(rowLiveMid, sent, kept, target{"live", "mid-compaction", live})
		}
	}
	for range 2 {
		if err := live.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	if st := live.IngestStats(); atBuilt != nil || st.DeltaShapes != 0 || st.SealedShapes != 0 || st.Compactions != 2 {
		t.Fatalf("after two compactions: %+v (the built stage ran: %v)", st, atBuilt == nil)
	}
	if want(rowLiveCompacted) {
		checkRow(rowLiveCompacted, sent, kept, target{"live", "compacted", live})
	}
	if !want(rowLiveRefolded) {
		return
	}
	// The third folds a delta whose one image, a copy of the third query,
	// was deleted: it adds no shard, and the active delta, which took the
	// fifth query's copy and that image again, deleted, at the built stage,
	// moves down into the sealed delta's slot. The engine's directory
	// reloads, heap and mapped, with its WAL replayed into the same delta.
	gone, late := synth.Image{ID: 9006, Shapes: []Shape{fx.queries[2].Clone()}}, synth.Image{ID: 9007, Shapes: []Shape{fx.queries[4].Clone()}}
	if err := errors.Join(live.InsertImage(ctx, gone.ID, gone.Shapes), live.DeleteImage(ctx, gone.ID)); err != nil {
		t.Fatal(err)
	}
	atBuilt = func() {
		if err := errors.Join(live.InsertImage(ctx, late.ID, late.Shapes), live.InsertImage(ctx, gone.ID, gone.Shapes), live.DeleteImage(ctx, gone.ID)); err != nil {
			t.Fatal(err)
		}
	}
	shards := live.NumShards()
	if err := live.Compact(); err != nil || live.NumShards() != shards || live.IngestStats().DeltaImages != 1 {
		t.Fatalf("a fold of no live image: %v; %d shards, was %d; %+v", err, live.NumShards(), shards, live.IngestStats())
	}
	dir := live.ing.Load().cfg.Dir
	if err := live.CloseIngest(); err != nil {
		t.Fatal(err)
	}
	targets := []target{{"live", "refolded", live}}
	for _, mode := range []LoadMode{LoadModeHeap, LoadModeMmap} {
		re := reload("live", dir, mode)
		enableIngest(t, re, dir, IngestConfig{})
		targets = append(targets, target{fmt.Sprintf("live %v", mode), "refolded", re})
	}
	checkRow(rowLiveRefolded, append(sent, gone, late, gone), append(kept, late), targets...)
}

// deadOnCurves counts the tombstoned shapes of frozen parts on the query's
// hash curves.
func deadOnCurves(t *testing.T, parts []part, q Shape) (dead int) {
	t.Helper()
	pq, err := core.PrepareQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	quad := parts[0].family.Characteristic(pq.Entry().Poly.Pts)
	for _, p := range parts {
		if p.ann != nil {
			for _, id := range p.lookup(quad, 0) {
				if p.dead[id] {
					dead++
				}
			}
		}
	}
	return dead
}

func TestExecEquivalence(t *testing.T) {
	runModel(t, newModelFixture(t), modelRun{rows: []modelRow{rowEngine}, checks: propAnswers})
}

func TestShardedEquivalence(t *testing.T) {
	runModel(t, newModelFixture(t), modelRun{rows: []modelRow{rowShards}, checks: propAnswers})
}

func TestShardedMmapEquivalence(t *testing.T) {
	runModel(t, newModelFixture(t), modelRun{rows: []modelRow{rowReloaded}, checks: propAnswers})
}

// TestShardedSearchDeterministic asks every sharded engine each request
// three times over, so a goroutine-timing fault that answers differently
// once differs from the group's first answer.
func TestShardedSearchDeterministic(t *testing.T) {
	runModel(t, newModelFixture(t), modelRun{rows: []modelRow{rowShards}, checks: propAnswers, rounds: 3})
}

func TestIngestEquivalence(t *testing.T) {
	runModel(t, newModelFixture(t), modelRun{rows: []modelRow{rowLiveInserted}, checks: propAnswers})
}

func TestTombstonedSearchMatchesRebuild(t *testing.T) {
	runModel(t, newModelFixture(t), modelRun{rows: []modelRow{rowLiveDeleted}, checks: propAnswers})
}

func TestIngestDeleteEquivalence(t *testing.T) {
	runModel(t, newModelFixture(t), modelRun{rows: []modelRow{rowLiveMid, rowLiveCompacted, rowLiveRefolded}, checks: propAnswers})
}

func TestAutoIsExact(t *testing.T) {
	runModel(t, newModelFixture(t), modelRun{checks: propAuto})
}

func TestBucketOrderInvariance(t *testing.T) {
	fx := newModelFixture(t)
	runModel(t, fx, modelRun{checks: propOrders, queries: append(slices.Clone(fx.queries), fx.many)})
}

func TestSketchAgainstBruteForce(t *testing.T) {
	runModel(t, newModelFixture(t), modelRun{rows: staticRows, checks: propSketch})
}

func TestSketchFrozenEqualsLive(t *testing.T) {
	runModel(t, newModelFixture(t), modelRun{rows: liveRows, checks: propSketch})
}

func TestManySegmentQueryIsScanTopK(t *testing.T) {
	fx := newModelFixture(t)
	runModel(t, fx, modelRun{checks: propAnswers | propAuto, queries: []Shape{fx.many}})
}

// TestShortBucketExactIsScanTopK asks the first query for every live
// shape and for two more, k past every hash bucket: the answer is the
// whole ranking, and Converged only for the first.
func TestShortBucketExactIsScanTopK(t *testing.T) {
	fx := newModelFixture(t)
	runModel(t, fx, modelRun{checks: propAnswers | propAuto, queries: fx.queries[:1], ks: func(live int) []int { return []int{live, live + 2} }})
}

// TestBoundFirstEquivalence holds pass 1 on every row, and an Engine
// normalized at α = 0.6 to every check: there stored copies are
// normalized about pairs as short as 0.4 of the diameter and leave the
// lune, and the sliver's far corner lands at x ≈ 2, outside the distance
// field's box, where the field must say nothing. Its twin ties it at the
// k-th slot for k = 1.
func TestBoundFirstEquivalence(t *testing.T) {
	fx := newModelFixture(t)
	runModel(t, fx, modelRun{checks: propPass1, queries: append(slices.Clone(fx.queries), fx.many)})
	t.Run("wide-alpha", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
		opts := DefaultOptions()
		opts.Alpha = 0.6
		sliver := NewPolygon(Pt(0, 0), Pt(10, 0), Pt(5, 1))
		images := append(synth.GenerateBase(synth.PaperSpec(0.0004, 97)),
			synth.Image{ID: 9001, Shapes: []Shape{sliver}}, synth.Image{ID: 9002, Shapes: []Shape{sliver.Clone()}})
		build := func() *Engine {
			eng := New(opts)
			for _, im := range images {
				if err := eng.AddImage(im.ID, im.Shapes); err != nil {
					t.Fatal(err)
				}
			}
			if err := eng.Freeze(); err != nil {
				t.Fatal(err)
			}
			return eng
		}
		rng := rand.New(rand.NewSource(101))
		queries := append([]Shape{sliver, synth.Distort(rng, sliver, 0.01)}, synth.Queries(rng, images[:len(images)-2], 2, 0.01)...)
		checkModel(t, newModel(t, build(), queries, queries[:2]), []target{{"engine", "wide", build()}}, queries, queries[:2],
			modelRun{checks: propAll, ks: func(live int) []int { return []int{1, 3, live + 2} }})
	})
}

// checkModel holds each target to the model on run's checks. Each query is
// asked for each k of run; the sketch for k = 3 and past the live images,
// and its ANN tier for k = 3. At GOMAXPROCS 1 the sequential and the auto
// plan are one worker, so only the auto plan runs there; at 2 the auto plan
// of an idle engine fans out over two workers and the sequential one runs
// beside it. The listing orders run once per group, at GOMAXPROCS 2.
func checkModel(t *testing.T, m *model, targets []target, queries, sketch []Shape, run modelRun) {
	ctx := context.Background()
	live, copies := m.eng.NumShapes(), m.eng.NumEntries()
	ks := []int{1, 3}
	if run.ks != nil {
		ks = run.ks(live)
	}
	// seen is each group's first answer to a request, which every later
	// answer of the group must repeat.
	seen := map[string]*SearchResponse{}
	// annRef is the ann:approx reference of a group's parts, which its
	// targets share.
	annRef := map[string][]Match{}
	same := func(label string, resp *SearchResponse) {
		t.Helper()
		if first, ok := seen[label]; !ok {
			seen[label] = resp
		} else if !reflect.DeepEqual(first, resp) {
			t.Fatalf("%s: answers\n%+v\nand before\n%+v", label, resp, first)
		}
	}
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		execs := []ExecPolicy{ExecAuto}
		if procs > 1 {
			execs = append(execs, ExecSequential)
		}
		ordered := map[string]bool{}
		for _, tg := range targets {
			at := fmt.Sprintf("%s procs=%d", tg.name, procs)
			if tg.s.NumShapes() != live || tg.s.NumImages() != m.eng.NumImages() {
				t.Fatalf("%s: %d shapes in %d images, the model %d in %d", at, tg.s.NumShapes(), tg.s.NumImages(), live, m.eng.NumImages())
			}
			for _, req := range []SearchRequest{{Query: queries[0]}, {Sketch: sketch, Mode: ModeSketch}} {
				if _, err := tg.s.Search(ctx, req); !errors.Is(err, ErrBadK) {
					t.Fatalf("%s k=0 %v: %v, want ErrBadK", at, req.Mode, err)
				}
			}
			orders := run.checks&propOrders != 0 && procs > 1 && !ordered[tg.group]
			ordered[tg.group] = true
			for qi, q := range queries {
				if run.checks&propPass1 != 0 {
					checkPass1(t, fmt.Sprintf("%s q%d", at, qi), tg.s.searchView().parts, q, live, copies)
				}
				for _, k := range ks {
					label := fmt.Sprintf("%s q%d k=%d", at, qi, k)
					exact, approx := top(m.ranked[qi], k), top(m.bucket[qi], k)
					ref := fmt.Sprintf("%s q%d k=%d", tg.group, qi, k)
					if _, ok := annRef[ref]; !ok && run.checks&propAnswers != 0 {
						annRef[ref] = annApproxUnshared(t, label, tg.s.searchView().parts, q, k)
					}
					if v := tg.s.searchView(); orders && k <= live {
						for _, o := range bucketOrders() {
							for _, width := range []int{1, len(v.parts)} {
								e, a := o.stages(t, v, q, k, width)
								l := fmt.Sprintf("%s order=%s width=%d", label, o.name, width)
								assertMatchesEqual(t, l+" exact stage", exact, e)
								assertMatchesEqual(t, l+" hashing stage", approx, a)
							}
						}
					}
					if run.checks&(propAnswers|propAuto) == 0 {
						continue
					}
					for xi, x := range execs {
						at := fmt.Sprintf("%s exec=%v", label, x)
						req := SearchRequest{Query: q, K: k, Exec: x}
						search := func(mode Mode, ann AnnMode) *SearchResponse {
							req.Mode, req.Ann = mode, ann
							resp := mustSearch(t, tg.s, req)
							same(fmt.Sprintf("%s q%d k=%d %v ann=%v", tg.group, qi, k, mode, ann), resp)
							return resp
						}
						ex := search(ModeExact, AnnOff)
						assertMatchesEqual(t, at+" exact", exact, ex.Matches)
						if st := ex.Stats; st.Converged != (k <= live) || st.VerticesCounted != copies || st.UsedHashing {
							t.Fatalf("%s exact: %+v; want converged=%v, %d copies floored, no hashing", at, st, k <= live, copies)
						}
						if run.checks&propAuto != 0 {
							if auto := search(ModeAuto, AnnOff); !reflect.DeepEqual(auto, ex) {
								t.Fatalf("%s: ModeAuto answers\n%+v\nModeExact\n%+v", at, auto, ex)
							}
						}
						if run.checks&propAnswers != 0 {
							ap := search(ModeApproximate, AnnOff)
							assertMatchesEqual(t, at+" approximate", approx, ap.Matches)
							if !ap.Stats.UsedHashing {
								t.Fatalf("%s approximate: the hash table did not answer: %+v", at, ap.Stats)
							}
							// ModeApproximate takes ModeAuto's ann:approx path; it
							// is asked on the auto plan, which runs at both
							// GOMAXPROCS, alone.
							modes := []Mode{ModeAuto}
							if xi == 0 {
								modes = append(modes, ModeApproximate)
							}
							for _, mode := range modes {
								assertMatchesEqual(t, fmt.Sprintf("%s %v ann:approx", at, mode), annRef[ref], search(mode, AnnApprox).Matches)
							}
						}
					}
				}
			}
			if run.checks&propSketch == 0 {
				continue
			}
			for _, k := range []int{3, len(m.sketch) + 2} {
				for _, x := range execs {
					label := fmt.Sprintf("%s sketch k=%d exec=%v", at, k, x)
					req := SearchRequest{Sketch: sketch, K: k, Mode: ModeSketch, Exec: x}
					resp := mustSearch(t, tg.s, req)
					assertSketchEqual(t, label, top(m.sketch, k), resp.SketchMatches)
					if resp.Stats.Candidates <= 0 {
						t.Fatalf("%s: %d candidates reported, want the copies evaluated", label, resp.Stats.Candidates)
					}
					same(fmt.Sprintf("%s sketch k=%d", tg.group, k), resp)
					if k == 3 {
						req.Ann = AnnApprox
						same(fmt.Sprintf("%s sketch k=%d ann", tg.group, k), mustSearch(t, tg.s, req))
					}
				}
			}
		}
	}
}

// checkPass1 lists the exact search's pass 1 over parts, on one worker and
// on one per part: every live shape once, none tombstoned, each of its
// copies floored once.
func checkPass1(t *testing.T, label string, parts []part, q Shape, live, copies int) {
	t.Helper()
	ctx := context.Background()
	pq, err := core.PrepareQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, width := range []int{1, len(parts)} {
		h, st, err := listAll(ctx, parts, width, func(i int, dst []bucketShape) ([]bucketShape, Stats, error) {
			return parts[i].floors(ctx, pq, int32(i), dst)
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		listed := map[partShape]bool{}
		for _, c := range h {
			s := partShape{c.part, c.id}
			if listed[s] || parts[c.part].dead[int(c.id)] {
				t.Fatalf("%s width=%d: shape %d of part %d listed twice or tombstoned", label, width, c.id, c.part)
			}
			listed[s] = true
		}
		if len(listed) != live || st.VerticesCounted != copies {
			t.Fatalf("%s width=%d: %d shapes listed, %d copies floored; %d live shapes have %d", label, width, len(listed), st.VerticesCounted, live, copies)
		}
	}
}

// bucketOrder is one visiting order of a stage's listing.
type bucketOrder struct {
	name string
	perm func(ids []int)
	flat bool
}

func bucketOrders() []bucketOrder {
	reverse := slices.Reverse[[]int]
	shuffle := func(seed int64) func([]int) {
		return func(ids []int) {
			rand.New(rand.NewSource(seed)).Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		}
	}
	return []bucketOrder{
		{"table", nil, true},
		{"reversed", reverse, true},
		{"shuffled-1", shuffle(1), true},
		{"shuffled-2", shuffle(2), true},
		{"shuffled-3", shuffle(3), true},
		{"floor", nil, false},
		{"floor over reversed", reverse, false}, // equal floors the other way round
	}
}

// stages runs the two single-shape stages over the view's parts with
// their listings in this order, on width goroutines: the exact stage
// (exactSearch's listing, every live shape floored) and the hashing stage
// (the query's hash bucket, permuted by perm, each shape floored) — every
// floor read as 0 when flat, so pass 2 pops by part and id. It returns
// their matches.
func (o bucketOrder) stages(t *testing.T, v searchView, q Shape, k, width int) (exact, approx []Match) {
	t.Helper()
	ctx := context.Background()
	pq, err := core.PrepareQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	flatten := func(shapes []bucketShape) []bucketShape {
		for i := range shapes {
			if o.flat {
				shapes[i].floor = 0
			}
		}
		return shapes
	}
	exact, _, err = refine(ctx, v.parts, pq, k, width, true, func(i int, dst []bucketShape) ([]bucketShape, Stats, error) {
		shapes, st, err := v.parts[i].floors(ctx, pq, int32(i), dst)
		return flatten(shapes), st, err
	})
	if err != nil {
		t.Fatal(err)
	}
	buckets := hashBuckets(v.parts, pq)
	approx, _, err = refine(ctx, v.parts, pq, k, width, false, func(i int, dst []bucketShape) ([]bucketShape, Stats, error) {
		if o.perm != nil {
			o.perm(buckets[i])
		}
		return flatten(floored(&v.parts[i], buckets[i], pq, int32(i), dst)), Stats{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return exact, approx
}
