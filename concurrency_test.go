package geosir

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/synth"
)

// buildSketch returns a small multi-shape sketch resembling one of the
// engine's images.
func buildSketch() []Shape {
	return []Shape{square(0, 0, 19), triangle(5, 5, 2.9)}
}

// TestConcurrentQueries drives Search in all four modes on one frozen
// engine from many goroutines at once — the contract DESIGN.md's
// concurrency model promises. Run under -race it also proves the pooled
// scratch state and frozen oracles are properly isolated per query. Every
// goroutine must observe exactly the same results as a sequential
// reference. GOMAXPROCS is raised to 4, so the sketch's reference, asked
// alone, fans out over its two shapes, and a concurrent ask fans out
// while fewer than three requests are in flight.
func TestConcurrentQueries(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	eng := buildEngine(t)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(21))
	var reqs []SearchRequest
	for i := 0; i < 8; i++ {
		src := eng.Base().Shape(rng.Intn(eng.NumShapes())).Poly
		q := synth.Distort(rng, src, 0.01)
		if q.Validate() != nil {
			q = src
		}
		mode := []Mode{ModeAuto, ModeExact, ModeApproximate}[i%3]
		reqs = append(reqs, SearchRequest{Query: q, K: 2, Mode: mode})
	}
	reqs = append(reqs, SearchRequest{Sketch: buildSketch(), K: 3, Mode: ModeSketch})

	// Sequential reference answers.
	refs := make([]*SearchResponse, len(reqs))
	for i, req := range reqs {
		refs[i] = mustSearch(t, eng, req)
	}

	const goroutines = 16
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for off := range reqs {
					i := (g + off) % len(reqs)
					got, err := eng.Search(ctx, reqs[i])
					if err != nil {
						t.Errorf("goroutine %d request %d: %v", g, i, err)
						return
					}
					if !reflect.DeepEqual(got.Matches, refs[i].Matches) || !reflect.DeepEqual(got.SketchMatches, refs[i].SketchMatches) {
						t.Errorf("goroutine %d request %d (%v): got %+v, want %+v", g, i, reqs[i].Mode, got, refs[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
