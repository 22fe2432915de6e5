package geosir

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
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
// answers — and on a live 7-shard engine whose writer meanwhile inserts
// and deletes an image holding the bound shapes, each read answers from
// one view: the sequential answer with the image, or the one without it.
func TestConcurrentTopologicalQuery(t *testing.T) {
	all, shapes := topoFixture(t)
	images, _, _ := equivBase(t)
	live := buildShardedFrom(t, images, 7)
	enableIngest(t, live, t.TempDir(), IngestConfig{})
	engines := map[string]topoQueryer{"engine": all["engine"], "7 shards": all["7 shards"], "live": live}
	srcs := []string{topoQueryA, "overlap(c, a, any)", "NOT similar(a)"}
	binds := map[string]Shape{"a": shapes[0], "b": shapes[1], "c": shapes[2]}
	const toggled = 1 << 20
	ctx := context.Background()
	toggle := func(insert bool) {
		if insert {
			if err := live.InsertImage(ctx, toggled, shapes[:3]); err != nil {
				t.Error(err)
			}
		} else if err := live.DeleteImage(ctx, toggled); err != nil {
			t.Error(err)
		}
	}
	want := map[string][]topoAnswer{}
	for _, insert := range []bool{false, true} {
		for name, eng := range engines {
			for _, src := range srcs {
				want[name+"|"+src] = append(want[name+"|"+src], runTopo(t, eng, src, binds))
			}
		}
		toggle(!insert)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			toggle(i%2 == 0)
		}
	}()
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for name, eng := range engines {
				for _, src := range srcs {
					ids, plan, err := eng.Query(context.Background(), src, binds)
					got, w := topoAnswer{ids, plan}, want[name+"|"+src]
					if err != nil || !reflect.DeepEqual(got, w[0]) && !reflect.DeepEqual(got, w[1]) {
						t.Errorf("%s %s: concurrent (%+v, %v), sequential %+v", name, src, got, err, w)
					}
				}
			}
		}()
	}
	wg.Wait()
	if w := want["live|NOT similar(a)"]; reflect.DeepEqual(w[0], w[1]) {
		t.Errorf("the toggled image does not change the live answers: %+v", w)
	}
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

// topoBinds draws query bindings a, b, c from one image's shapes (so its
// overlap and contain edges come into play), one triple per image.
func topoBinds(images ...synth.Image) []map[string]Shape {
	var out []map[string]Shape
	for _, im := range images {
		n := len(im.Shapes)
		out = append(out, map[string]Shape{"a": im.Shapes[0], "b": im.Shapes[1%n], "c": im.Shapes[2%n]})
	}
	return out
}

// topoSrcs are the reads the live = rebuilt check sweeps: an indexed
// driver with per-image checks, the index alone, the universe filtered,
// and two relation drivers — the equivalence base has no overlap edge, so
// disjoint is the one that walks the image graphs.
var topoSrcs = []string{topoQueryA, "similar(a)", "NOT similar(a)", "overlap(a, b, any)", "disjoint(a, b, any)"}

// TestTopologicalLiveEqualsRebuilt: a live engine's topological read
// answers from its whole view — frozen shards behind their tombstones and
// the live delta — so its image ids equal those of an engine rebuilt over
// the live images, before and after a compaction. The history holds a
// frozen tombstone, delta inserts and a delta delete, an image deleted
// and re-inserted (with other shapes) inside one delta, and a frozen image
// deleted and re-inserted live. A part skips dead shapes before they name
// an image; filtering dead image ids afterwards would drop the re-inserted
// ids, and reading dead shapes would return their images for their old
// shapes.
func TestTopologicalLiveEqualsRebuilt(t *testing.T) {
	images, _, _ := equivBase(t)
	frozenImgs, liveImgs := splitBase(images)
	ctx := context.Background()
	tomb, frozenRe := frozenImgs[1], frozenImgs[3]
	deltaDel, deltaRe := liveImgs[2], liveImgs[4]
	// The re-inserts take another image's shapes: the deleted ones'.
	reshaped := map[int][]Shape{frozenRe.ID: deltaDel.Shapes, deltaRe.ID: tomb.Shapes}
	var want []synth.Image
	for _, im := range images {
		if shapes, ok := reshaped[im.ID]; ok {
			im.Shapes = shapes
		}
		if im.ID != tomb.ID && im.ID != deltaDel.ID {
			want = append(want, im)
		}
	}
	ref := buildSingle(t, want)
	binds := topoBinds(frozenImgs[0], frozenImgs[5], liveImgs[0], liveImgs[len(liveImgs)-1], tomb, frozenRe, deltaDel, deltaRe)

	for _, shards := range []int{1, 7} {
		se := buildShardedFrom(t, frozenImgs, shards)
		enableIngest(t, se, t.TempDir(), IngestConfig{})
		step := func(what string, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("shards=%d: %s: %v", shards, what, err)
			}
		}
		step("delete frozen", se.DeleteImage(ctx, tomb.ID))
		step("delete frozen to re-insert", se.DeleteImage(ctx, frozenRe.ID))
		for _, im := range liveImgs {
			step("insert", se.InsertImage(ctx, im.ID, im.Shapes))
		}
		step("re-insert frozen", se.InsertImage(ctx, frozenRe.ID, reshaped[frozenRe.ID]))
		step("delete delta", se.DeleteImage(ctx, deltaDel.ID))
		step("delete delta to re-insert", se.DeleteImage(ctx, deltaRe.ID))
		step("re-insert delta", se.InsertImage(ctx, deltaRe.ID, reshaped[deltaRe.ID]))

		for _, compacted := range []bool{false, true} {
			if compacted {
				step("compact", se.Compact())
			}
			if se.NumImages() != ref.NumImages() {
				t.Fatalf("shards=%d compacted=%v: %d images, rebuilt %d", shards, compacted, se.NumImages(), ref.NumImages())
			}
			sawLive := false
			for bi, b := range binds {
				for _, src := range topoSrcs {
					got, w := runTopo(t, se, src, b).IDs, runTopo(t, ref, src, b).IDs
					if !slices.Equal(got, w) {
						t.Errorf("shards=%d compacted=%v binds %d %s: %v, rebuilt %v", shards, compacted, bi, src, got, w)
					}
					for _, id := range got {
						sawLive = sawLive || id == liveImgs[0].ID || id == frozenRe.ID || id == deltaRe.ID
					}
				}
			}
			if !sawLive {
				t.Errorf("shards=%d compacted=%v: no read returned a live-inserted image", shards, compacted)
			}
		}
	}
}

// TestTopologicalShardedPlanEqualsEngine: a frozen 7-shard engine sums
// its parts' plans into the single Engine's plan string — the same drivers,
// estimates and counts — on topoFixture's reads.
func TestTopologicalShardedPlanEqualsEngine(t *testing.T) {
	engines, shapes := topoFixture(t)
	single, sharded := engines["engine"], engines["7 shards"]
	for i := 0; i+2 < len(shapes); i += 3 {
		binds := map[string]Shape{"a": shapes[i], "b": shapes[i+1], "c": shapes[i+2]}
		for _, src := range topoSrcs {
			if got, want := runTopo(t, sharded, src, binds), runTopo(t, single, src, binds); !slices.Equal(got.IDs, want.IDs) || got.Plan != want.Plan {
				t.Errorf("shapes %d.. %s: 7 shards %+v, engine %+v", i, src, got, want)
			}
		}
	}
}
