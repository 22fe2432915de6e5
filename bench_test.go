package geosir

// Benchmark harness: one benchmark per figure/claim of the paper's
// evaluation (see DESIGN.md §3 for the experiment index) plus the
// ablations DESIGN.md §4 calls out. Run with:
//
//	go test -bench=. -benchmem
//
// Figure-level series are also printed by cmd/experiments; the benchmarks
// here measure the steady-state cost of each reproduced pipeline and
// report the figure's headline quantity as a custom metric.

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/extindex"
	"repro/internal/extstore"
	"repro/internal/geohash"
	"repro/internal/geom"
	"repro/internal/mmap"
	"repro/internal/query"
	"repro/internal/rangesearch"
	"repro/internal/synth"
)

// The shared fixture is built once per `go test -bench` process.
var (
	benchOnce    sync.Once
	benchFixture *experiments.Fixture
	benchErr     error
)

func sharedFixture(b *testing.B) *experiments.Fixture {
	b.Helper()
	benchOnce.Do(func() {
		cfg := experiments.DefaultConfig()
		cfg.Scale = 0.01 // 100 images ≈ 5k normalized copies
		benchFixture, benchErr = experiments.BuildFixture(cfg)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchFixture
}

// --- Figure 1: similarity criterion discrimination -----------------------

func BenchmarkFig1_Measures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig1()
		if !r.AvgPicksB {
			b.Fatal("average measure no longer prefers B")
		}
	}
}

// --- Figure 2: distortion robustness vs the Mehrotra–Gary baseline -------

func BenchmarkFig2_GeoSIRRetrieval(b *testing.B) {
	f := sharedFixture(b)
	rng := rand.New(rand.NewSource(42))
	shapes := f.Base.Shapes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := shapes[rng.Intn(len(shapes))]
		q := synth.Distort(rng, src.Poly, 0.02)
		if q.Validate() != nil {
			continue
		}
		if _, _, err := f.Base.Match(q, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2_MGRetrieval(b *testing.B) {
	f := sharedFixture(b)
	mg, err := core.NewMGIndex(f.Base.Shapes())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	shapes := f.Base.Shapes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := shapes[rng.Intn(len(shapes))]
		q := synth.Distort(rng, src.Poly, 0.02)
		if q.Validate() != nil {
			continue
		}
		if _, err := mg.Match(q, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Query hot path: engine-level retrieval APIs --------------------------

// benchEngine builds a small engine (≈50 images) for the engine-level
// query benchmarks, once per process.
var (
	benchEngOnce sync.Once
	benchEng     *Engine
	benchEngErr  error
)

func sharedEngine(b *testing.B) *Engine {
	b.Helper()
	benchEngOnce.Do(func() {
		cfg := experiments.DefaultConfig()
		cfg.Scale = 0.005
		f, err := experiments.BuildFixture(cfg)
		if err != nil {
			benchEngErr = err
			return
		}
		eng := New(DefaultOptions())
		for _, img := range f.Images {
			if err := eng.AddImage(img.ID, img.Shapes); err != nil {
				benchEngErr = err
				return
			}
		}
		benchEngErr = eng.Freeze()
		benchEng = eng
	})
	if benchEngErr != nil {
		b.Fatal(benchEngErr)
	}
	return benchEng
}

// benchSketch distorts the shapes of one base image into a query sketch.
func benchSketch(eng *Engine, n int) []Shape {
	rng := rand.New(rand.NewSource(33))
	shapes := eng.Base().Shapes()
	img := shapes[0].Image
	var sketch []Shape
	for _, s := range shapes {
		if s.Image != img || len(sketch) == n {
			continue
		}
		q := synth.Distort(rng, s.Poly, 0.01)
		if q.Validate() != nil {
			q = s.Poly
		}
		sketch = append(sketch, q)
	}
	for len(sketch) < n {
		s := shapes[rng.Intn(len(shapes))]
		q := synth.Distort(rng, s.Poly, 0.01)
		if q.Validate() != nil {
			q = s.Poly
		}
		sketch = append(sketch, q)
	}
	return sketch
}

func BenchmarkSearchSketch(b *testing.B) {
	eng := sharedEngine(b)
	sketch := benchSketch(eng, 4)
	for _, exec := range []ExecPolicy{ExecSequential, ExecAuto} {
		b.Run(exec.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				req := SearchRequest{Sketch: sketch, K: 3, Mode: ModeSketch, Exec: exec}
				if _, err := eng.Search(context.Background(), req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSearchApproximate(b *testing.B) {
	eng := sharedEngine(b)
	rng := rand.New(rand.NewSource(34))
	shapes := eng.Base().Shapes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := shapes[rng.Intn(len(shapes))]
		q := synth.Distort(rng, src.Poly, 0.02)
		if q.Validate() != nil {
			continue
		}
		if _, err := eng.Search(context.Background(), SearchRequest{Query: q, K: 3, Mode: ModeApproximate}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 5: solving the equal-area hash-curve family ------------------

func BenchmarkFig5_HashCurveSolve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := geohash.NewFamily(50); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 7: I/O per query across storage layouts ----------------------

func BenchmarkFig7_IOPerQuery(b *testing.B) {
	f := sharedFixture(b)
	for _, layout := range extstore.Layouts() {
		b.Run(string(layout), func(b *testing.B) {
			var lastIO float64
			for i := 0; i < b.N; i++ {
				rows, err := experiments.Fig7(f, 2, 100)
				if err != nil {
					b.Fatal(err)
				}
				lastIO = rows[1].IO[layout] // k = 2
			}
			b.ReportMetric(lastIO, "io/query")
		})
	}
}

// --- Figure 8: buffer-size sweep ------------------------------------------

func BenchmarkFig8_BufferSweep(b *testing.B) {
	f := sharedFixture(b)
	for _, kb := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("buf%dKB", kb), func(b *testing.B) {
			var lastIO float64
			for i := 0; i < b.N; i++ {
				rows, err := experiments.Fig8(f, []int{kb})
				if err != nil {
					b.Fatal(err)
				}
				lastIO = rows[0].IO[extstore.LayoutMean]
			}
			b.ReportMetric(lastIO, "io/query")
		})
	}
}

// --- §4 rehash cost --------------------------------------------------------

func BenchmarkLayout_Rehash(b *testing.B) {
	f := sharedFixture(b)
	for _, layout := range extstore.Layouts() {
		b.Run(string(layout), func(b *testing.B) {
			var cmps int
			for i := 0; i < b.N; i++ {
				store, err := extstore.NewStore(f.Records, extstore.LayoutLex, 8)
				if err != nil {
					b.Fatal(err)
				}
				st, err := store.Rehash(layout)
				if err != nil {
					b.Fatal(err)
				}
				cmps = st.Comparisons
			}
			b.ReportMetric(float64(cmps), "comparisons")
		})
	}
}

// --- Figure 10: selectivity law -------------------------------------------

func BenchmarkFig10_Selectivity(b *testing.B) {
	// A star base with Zipf-graded complexity (the Figure 10 domain).
	images := synth.ZipfStarImages(synth.ZipfStarSpec{
		Shapes: 400, MinC: 3, MaxC: 12, Noise: 0.015, Seed: 5,
	})
	opts := core.DefaultOptions()
	opts.Alpha = 0.065
	base := core.NewBase(opts)
	for _, img := range images {
		var err error
		if base, err = base.Append(img.ID, img.Shapes[:1]); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(9))
	b.ResetTimer()
	var matches int
	for i := 0; i < b.N; i++ {
		q := synth.Star(rng, 3+i%10, 0.015)
		ms, _, err := base.SimilarShapes(context.Background(), q, 0.03)
		if err != nil {
			b.Fatal(err)
		}
		matches = len(ms)
	}
	b.ReportMetric(float64(matches), "matches")
}

// --- §2.5: retrieval scaling (polylog claim) ------------------------------

// benchmarkMatchAtScale times the exact search as it is served —
// Engine.Search in ModeExact: every stored shape floored by the query's
// distance field, then shapes scored in floor order until the next floor
// lies above the k-th best — over bases of growing size, and reports what
// the base-size question needs: the share of stored copies that reach the
// exact evaluator, every evaluation of the request counted (~0.0119 on 200
// images, ~215 copies a search), and the time per stored copy.
func benchmarkMatchAtScale(b *testing.B, scale float64) {
	images := synth.GenerateBase(synth.PaperSpec(scale, 1))
	eng := buildSingle(b, images)
	queries := synth.Queries(rand.New(rand.NewSource(2)), images, 64, 0.01)
	entries := float64(eng.db.Base().NumEntries())
	ctx := context.Background()
	b.ResetTimer()
	var candidates int
	for i := 0; i < b.N; i++ {
		resp, err := eng.Search(ctx, SearchRequest{Query: queries[i%len(queries)], K: 5, Mode: ModeExact})
		if err != nil {
			b.Fatal(err)
		}
		candidates += resp.Stats.Candidates
	}
	b.ReportMetric(float64(candidates)/float64(b.N)/entries, "candidates/entry")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/entries, "ns/entry")
}

func BenchmarkMatch_Scaling_50images(b *testing.B)  { benchmarkMatchAtScale(b, 0.005) }
func BenchmarkMatch_Scaling_100images(b *testing.B) { benchmarkMatchAtScale(b, 0.01) }
func BenchmarkMatch_Scaling_200images(b *testing.B) { benchmarkMatchAtScale(b, 0.02) }

// BenchmarkSearchDistance times the search as it is served — Search,
// k = 5, over the 200-image base — by how far the query's neighbours lie:
// 64 fixed queries a row, stored shapes distorted 0.01 and 0.05, and
// unmatched stars (3–12 points, noise 0.3), on one Engine, and the 0.01 row
// again on 8 shards (the serving default). One op is the row's whole list,
// so -benchtime=1x runs every query. A row reports ns and the copies that
// reached the exact evaluator per query, and B/op; ModeExact's cost follows
// the k-th neighbour's distance. Each row's approximate twin also holds
// ModeApproximate to ModeExact's answers, worked out off the clock:
// recall@5, the mean 5th-distance ratio over the answers with five
// (ratio@5), and the answers with fewer (short).
func BenchmarkSearchDistance(b *testing.B) {
	images := synth.GenerateBase(synth.PaperSpec(0.02, 1))
	eng := buildSingle(b, images)
	rng := rand.New(rand.NewSource(2))
	stars := make([]Shape, 64)
	for i := range stars {
		stars[i] = synth.Star(rng, 3+rng.Intn(10), 0.3)
	}
	near := synth.Queries(rng, images, 64, 0.01)
	const k = 5
	for _, row := range []struct {
		name    string
		s       Searcher
		queries []Shape
	}{
		{"distortion0.01", eng, near},
		{"distortion0.05", eng, synth.Queries(rng, images, 64, 0.05)},
		{"star", eng, stars},
		{"8shards/distortion0.01", buildShardedFrom(b, images, 8), near},
	} {
		for _, mode := range []Mode{ModeExact, ModeApproximate} {
			b.Run(row.name+map[Mode]string{ModeApproximate: "/approximate"}[mode], func(b *testing.B) {
				candidates := 0
				search := func(mode Mode) (answers [][]Match) {
					for _, q := range row.queries {
						resp, err := row.s.Search(context.Background(), SearchRequest{Query: q, K: k, Mode: mode})
						if err != nil {
							b.Fatal(err)
						}
						answers, candidates = append(answers, resp.Matches), candidates+resp.Stats.Candidates
					}
					return answers
				}
				var exact, answers [][]Match
				if mode == ModeApproximate {
					exact, candidates = search(ModeExact), 0 // off the clock and uncounted
				}
				b.ReportAllocs()
				b.ResetTimer()
				for range b.N {
					answers = search(mode)
				}
				queries := float64(b.N * len(row.queries))
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/queries, "ns/query")
				b.ReportMetric(float64(candidates)/queries, "candidates/query")
				if exact == nil {
					return
				}
				found, ratio, full := 0, 0.0, 0
				for qi, got := range answers {
					for _, m := range got {
						if slices.ContainsFunc(exact[qi], func(e Match) bool { return e.ShapeID == m.ShapeID }) {
							found++
						}
					}
					if len(got) == k {
						ratio += got[k-1].Distance / exact[qi][k-1].Distance
						full++
					}
				}
				b.ReportMetric(float64(found)/float64(k*len(answers)), "recall@5")
				b.ReportMetric(ratio/float64(full), "ratio@5")
				b.ReportMetric(float64(len(answers)-full), "short")
			})
		}
	}
}

// BenchmarkOpenV3 times opening the 200-image demo base's GSIR3 snapshot
// as LoadAnyMode opens each file (loadShardFile), heap-decoded and mapped:
// the in-process number beside the ledger's open_ms. B/op is what one open
// allocates; the file is in the page cache after the first.
func BenchmarkOpenV3(b *testing.B) {
	eng := buildSingle(b, synth.GenerateBase(synth.PaperSpec(0.02, 1)))
	path := filepath.Join(b.TempDir(), "demo200.gsir3")
	if err := eng.SaveFile(path); err != nil {
		b.Fatal(err)
	}
	for _, mode := range []LoadMode{LoadModeHeap, LoadModeMmap} {
		b.Run(mode.String(), func(b *testing.B) {
			if mode == LoadModeMmap && (!mmap.Supported() || !mmap.CanCast()) {
				b.Skip("mmap serving unsupported on this platform/build")
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e, rec, err := loadShardFile(path, mode)
				if err != nil || !rec.Complete() {
					b.Fatal(rec, err)
				}
				e.Close()
			}
		})
	}
}

// BenchmarkBucketScoring times the hashing stage's two passes over one
// part — the query's hash bucket floored, then refined in floor order
// (refine; DESIGN.md §4.9), the stage behind ModeApproximate — over the
// 200-image base and its 64 queries, bucket
// lookup and distance field outside the clock, and reports what the floor
// order is for: how many of the bucket's shapes were scored in full (they
// came back with a distance) and how many normalized copies reached the
// exact evaluator, per query.
func BenchmarkBucketScoring(b *testing.B) {
	images := synth.GenerateBase(synth.PaperSpec(0.02, 1))
	eng := buildSingle(b, images)
	p := eng.searchView().parts[0]
	ctx := context.Background()
	var evaluated atomic.Int64
	type prepared struct {
		pq     *core.PreparedQuery
		bucket []int
	}
	bucketPass := func(q prepared) error {
		_, _, err := refine(ctx, []part{p}, q.pq, 5, 1, false, func(_ int, dst []bucketShape) ([]bucketShape, Stats, error) {
			return floored(&p, q.bucket, q.pq, 0, dst), Stats{}, nil
		})
		return err
	}
	var qs []prepared
	var bucket, inFull int
	for _, q := range synth.Queries(rand.New(rand.NewSource(2)), images, 64, 0.01) {
		pq, err := core.PrepareQuery(q)
		if err != nil {
			b.Fatal(err)
		}
		pq.AttachEvalCounter(&evaluated)
		ids := hashBuckets([]part{p}, pq)[0]
		// The passes are deterministic: this run builds the query's
		// distance field and is the one counted.
		if _, err := rank(ctx, floored(&p, ids, pq, 0, nil), 5, func(c bucketShape, cut float64) (Match, int, bool) {
			m, entry, ok := p.scoreBounded(int(c.id), pq, cut)
			if ok {
				inFull++
			}
			return m, entry, ok
		}); err != nil {
			b.Fatal(err)
		}
		bucket += len(ids)
		qs = append(qs, prepared{pq, ids})
	}
	copies := evaluated.Load()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		if err := bucketPass(q); err != nil {
			b.Fatal(err)
		}
	}
	n := float64(len(qs))
	b.ReportMetric(float64(bucket)/n, "bucket/query")
	b.ReportMetric(float64(inFull)/n, "scored/query")
	b.ReportMetric(float64(copies)/n, "copies/query")
}

// BenchmarkSearchLive times ModeAuto searches on a live base: 8 shards over
// demo-200, then 200 fresh images (5 shapes of ~20 vertices each, from 16
// prototypes of their own) inserted with a compaction after every 40 but
// the last — so the newest 40 sit in the delta — then 20 of them deleted,
// spread over the compacted shards and the delta. Queries copied from a
// fresh image ("fresh") have their match in one small part, the others'
// shapes far from them; queries from the base ("base") have theirs spread
// over the 8 shards. It reports candidates per search besides the time.
func BenchmarkSearchLive(b *testing.B) {
	ctx := context.Background()
	base := synth.GenerateBase(synth.PaperSpec(0.02, 1))
	se := NewSharded(DefaultOptions(), 8)
	for _, im := range base {
		if err := se.AddImage(im.ID, im.Shapes); err != nil {
			b.Fatal(err)
		}
	}
	if err := se.Freeze(); err != nil {
		b.Fatal(err)
	}
	if err := se.EnableIngest(IngestConfig{Dir: b.TempDir(), CompactThreshold: -1, NoSync: true}); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { se.CloseIngest() })
	fresh := synth.GenerateBase(synth.BaseSpec{Images: 200, MeanShapes: 5, MeanVertices: 20, Prototypes: 16,
		Distortion: 0.015, OpenFraction: 0.25, Seed: 7})
	for i := range fresh {
		fresh[i].ID += 10000
		if err := se.InsertImage(ctx, fresh[i].ID, fresh[i].Shapes); err != nil {
			b.Fatal(err)
		}
		if (i+1)%40 == 0 && i+1 < len(fresh) {
			if err := se.Compact(); err != nil {
				b.Fatal(err)
			}
		}
	}
	var live []synth.Image
	for i, im := range fresh {
		if i%10 == 9 {
			if err := se.DeleteImage(ctx, im.ID); err != nil {
				b.Fatal(err)
			}
		} else {
			live = append(live, im)
		}
	}
	rng := rand.New(rand.NewSource(11))
	for _, c := range []struct {
		name   string
		images []synth.Image
	}{{"fresh", live}, {"base", base}} {
		queries := synth.Queries(rng, c.images, 64, 0.01)
		b.Run(c.name, func(b *testing.B) {
			var candidates int
			for i := 0; i < b.N; i++ {
				resp := mustSearch(b, se, SearchRequest{Query: queries[i%len(queries)], K: 5})
				candidates += resp.Stats.Candidates
			}
			b.ReportMetric(float64(candidates)/float64(b.N), "candidates/search")
		})
	}
}

// --- §3: geometric hashing -------------------------------------------------

func BenchmarkGeoHash_Characteristic(b *testing.B) {
	f := sharedFixture(b)
	shapes := f.Base.Shapes()
	entries := make([]core.Entry, 0, len(shapes))
	for _, s := range shapes {
		if e, err := core.NormalizeCanonical(s.Poly); err == nil {
			entries = append(entries, e)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := entries[i%len(entries)]
		_ = f.Family.Characteristic(e.Poly.Pts)
	}
}

func BenchmarkGeoHash_Lookup(b *testing.B) {
	f := sharedFixture(b)
	table := geohash.NewTable(f.Family)
	for _, s := range f.Base.Shapes() {
		e, err := core.NormalizeCanonical(s.Poly)
		if err != nil {
			continue
		}
		if err := table.Insert(s.ID, f.Family.Characteristic(e.Poly.Pts)); err != nil {
			b.Fatal(err)
		}
	}
	quads := make([]geohash.Quadruple, 64)
	rng := rand.New(rand.NewSource(4))
	for i := range quads {
		s := f.Base.Shape(rng.Intn(f.Base.NumShapes()))
		e, _ := core.NormalizeCanonical(s.Poly)
		quads[i] = f.Family.Characteristic(e.Poly.Pts)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = table.Lookup(quads[i%len(quads)], 1)
	}
}

// --- §5.4: query plans -------------------------------------------------------

func BenchmarkQueryPlans(b *testing.B) {
	f := sharedFixture(b)
	var checks int
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Plans(f)
		if err != nil {
			b.Fatal(err)
		}
		checks = rows[0].PlannedChecks
	}
	b.ReportMetric(float64(checks), "checks")
}

// BenchmarkTopological times one topoQueryA read — an index driver, a
// per-image check and a relation driver — over demo-200, with bindings
// drawn as distorted copies of base shapes: on one Engine, on 8 frozen
// shards, and on 8 shards whose live delta holds 20 inserted images and a
// tombstone.
func BenchmarkTopological(b *testing.B) {
	ctx := context.Background()
	base := synth.GenerateBase(synth.PaperSpec(0.02, 1))
	cut := len(base) * 9 / 10
	live := NewSharded(DefaultOptions(), 8)
	for _, im := range base[:cut] {
		if err := live.AddImage(im.ID, im.Shapes); err != nil {
			b.Fatal(err)
		}
	}
	if err := live.Freeze(); err != nil {
		b.Fatal(err)
	}
	if err := live.EnableIngest(IngestConfig{Dir: b.TempDir(), CompactThreshold: -1, NoSync: true}); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { live.CloseIngest() })
	for _, im := range base[cut:] {
		if err := live.InsertImage(ctx, im.ID, im.Shapes); err != nil {
			b.Fatal(err)
		}
	}
	if err := live.DeleteImage(ctx, base[cut].ID); err != nil {
		b.Fatal(err)
	}
	sharded := NewSharded(DefaultOptions(), 8)
	for _, im := range base {
		if err := sharded.AddImage(im.ID, im.Shapes); err != nil {
			b.Fatal(err)
		}
	}
	if err := sharded.Freeze(); err != nil {
		b.Fatal(err)
	}
	qs := synth.Queries(rand.New(rand.NewSource(5)), base, 48, 0.01)
	var binds []map[string]Shape
	for i := 0; i+2 < len(qs); i += 3 {
		binds = append(binds, map[string]Shape{"a": qs[i], "b": qs[i+1], "c": qs[i+2]})
	}
	for _, c := range []struct {
		name string
		eng  interface {
			Query(context.Context, string, map[string]Shape) ([]int, string, error)
		}
	}{{"engine", buildSingle(b, base)}, {"8shards", sharded}, {"8shards-live", live}} {
		b.Run(c.name, func(b *testing.B) {
			images := 0
			for i := 0; i < b.N; i++ {
				ids, _, err := c.eng.Query(ctx, topoQueryA, binds[i%len(binds)])
				if err != nil {
					b.Fatal(err)
				}
				images += len(ids)
			}
			b.ReportMetric(float64(images)/float64(b.N), "images/read")
		})
	}
}

// --- Ablations (DESIGN.md §4) ----------------------------------------------

func BenchmarkAblation_RangeBackend(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	pts := make([]geom.Point, 20000)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64(), rng.Float64()*1.6-0.8)
	}
	tris := make([]geom.Triangle, 64)
	for i := range tris {
		c := geom.Pt(rng.Float64(), rng.Float64()*1.6-0.8)
		tris[i] = geom.Tri(c, c.Add(geom.Pt(0.05, 0)), c.Add(geom.Pt(0, 0.05)))
	}
	for _, kind := range []rangesearch.Kind{rangesearch.KindBrute, rangesearch.KindKDTree, rangesearch.KindLayered} {
		backend := rangesearch.New(kind, pts)
		b.Run(string(kind), func(b *testing.B) {
			n := 0
			for i := 0; i < b.N; i++ {
				backend.ReportTriangle(tris[i%len(tris)], func(int) { n++ })
			}
			_ = n
		})
	}
}

func BenchmarkAblation_AlphaBeta(b *testing.B) {
	for _, cfg := range []struct {
		alpha, beta float64
	}{
		{0.0, 0.25}, {0.065, 0.25}, {0.065, 0.1}, {0.065, 0.4}, {0.15, 0.25},
	} {
		name := fmt.Sprintf("alpha%.3f_beta%.2f", cfg.alpha, cfg.beta)
		b.Run(name, func(b *testing.B) {
			c := experiments.DefaultConfig()
			c.Scale = 0.005
			c.CoreOpts.Alpha = cfg.alpha
			c.CoreOpts.Beta = cfg.beta
			f, err := experiments.BuildFixture(c)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := f.Base.Match(f.Queries[i%len(f.Queries)], 1); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(f.Base.NumEntries()), "copies")
		})
	}
}

func BenchmarkAblation_Growth(b *testing.B) {
	for _, g := range []float64{1.3, 2, 3} {
		b.Run(fmt.Sprintf("growth%.1f", g), func(b *testing.B) {
			c := experiments.DefaultConfig()
			c.Scale = 0.005
			c.CoreOpts.GrowthFactor = g
			f, err := experiments.BuildFixture(c)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var iters int
			for i := 0; i < b.N; i++ {
				_, st, err := f.Base.Match(f.Queries[i%len(f.Queries)], 1)
				if err != nil {
					b.Fatal(err)
				}
				iters = st.Iterations
			}
			b.ReportMetric(float64(iters), "fattenings")
		})
	}
}

func BenchmarkAblation_Sampling(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	a := synth.Star(rng, 8, 0.02)
	c := synth.Star(rng, 8, 0.02)
	for _, samples := range []int{16, 64, 256, 1024} {
		b.Run(fmt.Sprintf("samples%d", samples), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = core.AvgMinDistSym(a, c, samples)
			}
		})
	}
}

// --- Selectivity estimation -----------------------------------------------

func BenchmarkSelectivity_SignificantVertices(b *testing.B) {
	f := sharedFixture(b)
	for i := 0; i < b.N; i++ {
		_ = query.SignificantVertices(f.Queries[i%len(f.Queries)])
	}
}

// --- External-memory index (§4 auxiliary structures) ------------------------

func BenchmarkExtIndex_TriangleQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(20))
	pts := make([]geom.Point, 50000)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64(), rng.Float64()*1.6-0.8)
	}
	tree, err := extindex.Build(pts, 64)
	if err != nil {
		b.Fatal(err)
	}
	tris := make([]geom.Triangle, 64)
	for i := range tris {
		c := geom.Pt(rng.Float64(), rng.Float64()*1.6-0.8)
		tris[i] = geom.Tri(c, c.Add(geom.Pt(0.03, 0)), c.Add(geom.Pt(0, 0.03)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tree.CountTriangle(tris[i%len(tris)]); err != nil {
			b.Fatal(err)
		}
	}
	st := tree.Stats()
	if st.PoolMisses+st.PoolHits > 0 {
		b.ReportMetric(float64(st.PoolMisses)/float64(b.N), "block-reads/query")
	}
}
