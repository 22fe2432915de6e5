package geosir

// ANN candidate-tier benchmarks: recall vs speedup of approximate mode
// against the exact kernel on the demo base. Each approximate benchmark
// reports:
//
//	recall   — mean fraction of the exact top-k recovered
//	speedup  — exact mean latency / approximate mean latency
//
// Under -short the base is 60 images instead of 400, so `make
// bench-smoke` can run a fast pass without paying for the full demo base.

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/synth"
)

const annBenchK = 5

type annBenchState struct {
	eng     *Engine
	queries []Shape
	sketch  []Shape
	// Exact ground truth and mean latency, measured once over the
	// workload so every approximate benchmark shares the same baseline.
	truth       []map[int]bool
	exactMean   time.Duration
	sketchTruth map[int]bool
	sketchMean  time.Duration
	err         error
}

var (
	annBenchOnce sync.Once
	annBench     annBenchState
)

func annBenchImages() int {
	if testing.Short() {
		return 60
	}
	return 400
}

func annBenchFixture(b *testing.B) *annBenchState {
	b.Helper()
	annBenchOnce.Do(func() {
		images := annBenchImages()
		spec := synth.PaperSpec(float64(images)/10000, 7)
		spec.Images = images
		base := synth.GenerateBase(spec)
		eng := New(DefaultOptions())
		for _, im := range base {
			if err := eng.AddImage(im.ID, im.Shapes); err != nil {
				annBench.err = err
				return
			}
		}
		if err := eng.Freeze(); err != nil {
			annBench.err = err
			return
		}
		rng := rand.New(rand.NewSource(19))
		queries := synth.Queries(rng, base, 32, 0.01)
		// Sketch: two lightly distorted shapes from one image.
		var sketch []Shape
		for _, im := range base {
			if len(im.Shapes) >= 2 {
				sketch = []Shape{
					synth.Distort(rng, im.Shapes[0], 0.01),
					synth.Distort(rng, im.Shapes[1], 0.01),
				}
				break
			}
		}
		if sketch == nil || sketch[0].Validate() != nil || sketch[1].Validate() != nil {
			annBench.err = errNoSketch
			return
		}

		ctx := context.Background()
		truth := make([]map[int]bool, len(queries))
		t0 := time.Now()
		for qi, q := range queries {
			resp, err := eng.Search(ctx, SearchRequest{Query: q, K: annBenchK, Mode: ModeExact})
			if err != nil {
				annBench.err = err
				return
			}
			truth[qi] = make(map[int]bool, len(resp.Matches))
			for _, m := range resp.Matches {
				truth[qi][m.ShapeID] = true
			}
		}
		exactMean := time.Since(t0) / time.Duration(len(queries))

		t0 = time.Now()
		sresp, err := eng.Search(ctx, SearchRequest{Sketch: sketch, K: annBenchK, Mode: ModeSketch})
		if err != nil {
			annBench.err = err
			return
		}
		sketchMean := time.Since(t0)
		sketchTruth := make(map[int]bool, len(sresp.SketchMatches))
		for _, m := range sresp.SketchMatches {
			sketchTruth[m.ImageID] = true
		}

		annBench = annBenchState{
			eng: eng, queries: queries, sketch: sketch,
			truth: truth, exactMean: exactMean,
			sketchTruth: sketchTruth, sketchMean: sketchMean,
		}
	})
	if annBench.err != nil {
		b.Fatal(annBench.err)
	}
	return &annBench
}

var errNoSketch = errors.New("no usable sketch in the generated base")

// BenchmarkAnnFig2Exact is the exact-kernel baseline over the same
// distorted-copy workload the approximate benchmark runs, so one run
// shows both sides of the tradeoff.
func BenchmarkAnnFig2Exact(b *testing.B) {
	f := annBenchFixture(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := f.queries[i%len(f.queries)]
		if _, err := f.eng.Search(ctx, SearchRequest{Query: q, K: annBenchK, Mode: ModeExact}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnnFig2Approx runs the Fig2-style distorted-copy workload
// through the ANN-approximate path and reports recall against the exact
// top-k plus speedup over the exact mean latency.
func BenchmarkAnnFig2Approx(b *testing.B) {
	f := annBenchFixture(b)
	ctx := context.Background()
	b.ResetTimer()
	var hits, wanted int
	for i := 0; i < b.N; i++ {
		qi := i % len(f.queries)
		resp, err := f.eng.Search(ctx, SearchRequest{
			Query: f.queries[qi], K: annBenchK, Mode: ModeAuto, Ann: AnnApprox,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range resp.Matches {
			if f.truth[qi][m.ShapeID] {
				hits++
			}
		}
		wanted += len(f.truth[qi])
	}
	b.StopTimer()
	if wanted > 0 {
		b.ReportMetric(float64(hits)/float64(wanted), "recall")
	}
	if mean := b.Elapsed() / time.Duration(b.N); mean > 0 {
		b.ReportMetric(float64(f.exactMean)/float64(mean), "speedup")
	}
}

// BenchmarkAnnSketchApprox runs the multi-shape sketch workload through
// the ANN candidate tier (per-shape table construction probes the index
// instead of scanning every stored shape) and reports image-level
// recall plus speedup over the exact sketch latency.
func BenchmarkAnnSketchApprox(b *testing.B) {
	f := annBenchFixture(b)
	ctx := context.Background()
	b.ResetTimer()
	var hits, wanted int
	for i := 0; i < b.N; i++ {
		resp, err := f.eng.Search(ctx, SearchRequest{
			Sketch: f.sketch, K: annBenchK, Mode: ModeSketch, Ann: AnnApprox,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range resp.SketchMatches {
			if f.sketchTruth[m.ImageID] {
				hits++
			}
		}
		wanted += len(f.sketchTruth)
	}
	b.StopTimer()
	if wanted > 0 {
		b.ReportMetric(float64(hits)/float64(wanted), "recall")
	}
	if mean := b.Elapsed() / time.Duration(b.N); mean > 0 {
		b.ReportMetric(float64(f.sketchMean)/float64(mean), "speedup")
	}
}
