package geosir

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/synth"
)

// topoQueryer is the topological read both engine kinds serve.
type topoQueryer interface {
	Query(ctx context.Context, src string, binds map[string]Shape) ([]int, string, error)
}

// topoAnswer is one query's full result: images and plan string.
type topoAnswer struct {
	IDs  []int
	Plan string
}

func runTopo(t *testing.T, eng topoQueryer, src string, binds map[string]Shape) topoAnswer {
	t.Helper()
	ids, plan, err := eng.Query(context.Background(), src, binds)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	return topoAnswer{ids, plan}
}

// topoFixture returns the equivalence suite's base served by one Engine
// and by 1, 2 and 7 shards, and 60 bindable distorted copies of its
// shapes.
func topoFixture(t *testing.T) (map[string]topoQueryer, []Shape) {
	t.Helper()
	images, _, _ := equivBase(t)
	engines := map[string]topoQueryer{"engine": buildSingle(t, images)}
	for _, n := range []int{1, 2, 7} {
		engines[fmt.Sprintf("%d shards", n)] = buildShardedFrom(t, images, n)
	}
	var shapes []Shape
	for _, q := range synth.Queries(rand.New(rand.NewSource(47)), images, 80, 0.01) {
		if q.Validate() == nil && len(shapes) < 60 {
			shapes = append(shapes, q)
		}
	}
	if len(shapes) < 60 {
		t.Fatalf("only %d valid query shapes", len(shapes))
	}
	return engines, shapes
}

// topoQueryA is a query with an index driver and per-image checks, so its
// plan string carries a selectivity estimate.
const topoQueryA = "similar(a) AND NOT overlap(b, c, any) OR contain(b, a, any)"

// TestTopologicalPlanIgnoresHistory: a topological read is a function of
// (engine, query) only. Query A's images and plan string are the same
// after 50 other queries as before them, on an Engine and on 1, 2 and 7
// shards.
func TestTopologicalPlanIgnoresHistory(t *testing.T) {
	engines, shapes := topoFixture(t)
	bindsA := map[string]Shape{"a": shapes[0], "b": shapes[1], "c": shapes[2]}
	for name, eng := range engines {
		before := runTopo(t, eng, topoQueryA, bindsA)
		for _, q := range shapes[10:] {
			runTopo(t, eng, "similar(x)", map[string]Shape{"x": q})
		}
		if after := runTopo(t, eng, topoQueryA, bindsA); !reflect.DeepEqual(after, before) {
			t.Errorf("%s: after 50 queries A = %+v, before %+v", name, after, before)
		}
	}
}

// TestConcurrentTopologicalQuery: Engine.Query and ShardedEngine.Query
// take no lock and share no mutable state, so 16 goroutines querying an
// Engine and 7 shards at once (run under -race) each see the sequential
// answers.
func TestConcurrentTopologicalQuery(t *testing.T) {
	all, shapes := topoFixture(t)
	engines := map[string]topoQueryer{"engine": all["engine"], "7 shards": all["7 shards"]}
	srcs := []string{topoQueryA, "overlap(c, a, any)"}
	binds := map[string]Shape{"a": shapes[0], "b": shapes[1], "c": shapes[2]}
	want := map[string]topoAnswer{}
	for name, eng := range engines {
		for _, src := range srcs {
			want[name+"|"+src] = runTopo(t, eng, src, binds)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for name, eng := range engines {
				for _, src := range srcs {
					ids, plan, err := eng.Query(context.Background(), src, binds)
					if got := (topoAnswer{ids, plan}); err != nil || !reflect.DeepEqual(got, want[name+"|"+src]) {
						t.Errorf("%s %s: concurrent (%+v, %v), sequential %+v", name, src, got, err, want[name+"|"+src])
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestTopologicalQueryCancelled: a cancelled or expired ctx fails Query
// with ctx's error on every engine kind, on an index-driven query and on
// one that checks every image without the index.
func TestTopologicalQueryCancelled(t *testing.T) {
	engines, shapes := topoFixture(t)
	binds := map[string]Shape{"a": shapes[0], "b": shapes[1], "c": shapes[2]}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, stop := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer stop()
	for name, eng := range engines {
		for _, src := range []string{topoQueryA, "NOT similar(a)"} {
			for _, ctx := range []context.Context{cancelled, expired} {
				ids, _, err := eng.Query(ctx, src, binds)
				if !errors.Is(err, ctx.Err()) || ids != nil {
					t.Errorf("%s %s: (%v, %v), want ctx's error %v", name, src, ids, err, ctx.Err())
				}
			}
		}
	}
}
