package geosir

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/synth"
)

// TestSentinelErrors pins the errors.Is contract of the unified API:
// every state and argument failure surfaces one of the exported
// sentinels, on both engine kinds and in every mode.
func TestSentinelErrors(t *testing.T) {
	ctx := context.Background()
	q := square(0, 0, 1)

	t.Run("NotFrozen", func(t *testing.T) {
		eng := New(DefaultOptions())
		if _, err := eng.Search(ctx, SearchRequest{Query: q, K: 1}); !errors.Is(err, ErrNotFrozen) {
			t.Fatalf("Engine.Search unfrozen: got %v, want ErrNotFrozen", err)
		}
		if _, err := eng.Search(ctx, SearchRequest{Sketch: []Shape{q}, K: 1, Mode: ModeSketch}); !errors.Is(err, ErrNotFrozen) {
			t.Fatalf("Engine.Search sketch unfrozen: got %v, want ErrNotFrozen", err)
		}
		if _, _, err := eng.Query(context.Background(), "similar(a)", map[string]Shape{"a": q}); !errors.Is(err, ErrNotFrozen) {
			t.Fatalf("Query unfrozen: got %v, want ErrNotFrozen", err)
		}
		se := NewSharded(DefaultOptions(), 2)
		if _, err := se.Search(ctx, SearchRequest{Query: q, K: 1}); !errors.Is(err, ErrNotFrozen) {
			t.Fatalf("ShardedEngine.Search unfrozen: got %v, want ErrNotFrozen", err)
		}
	})

	t.Run("Frozen", func(t *testing.T) {
		eng := buildEngine(t)
		if err := eng.AddImage(99, []Shape{q}); !errors.Is(err, ErrFrozen) {
			t.Fatalf("AddImage after Freeze: got %v, want ErrFrozen", err)
		}
		se := NewSharded(DefaultOptions(), 2)
		if err := se.AddImage(1, []Shape{q}); err != nil {
			t.Fatal(err)
		}
		if err := se.Freeze(); err != nil {
			t.Fatal(err)
		}
		if err := se.AddImage(99, []Shape{q}); !errors.Is(err, ErrFrozen) {
			t.Fatalf("sharded AddImage after Freeze: got %v, want ErrFrozen", err)
		}
	})

	t.Run("BadK", func(t *testing.T) {
		eng := buildEngine(t)
		for _, k := range []int{0, -3} {
			if _, err := eng.Search(ctx, SearchRequest{Query: q, K: k}); !errors.Is(err, ErrBadK) {
				t.Fatalf("Search k=%d: got %v, want ErrBadK", k, err)
			}
		}
		if _, err := eng.Search(ctx, SearchRequest{Sketch: []Shape{q}, K: 0, Mode: ModeSketch}); !errors.Is(err, ErrBadK) {
			t.Fatalf("Search sketch k=0: got %v, want ErrBadK", err)
		}
	})

	t.Run("EmptyQuery", func(t *testing.T) {
		eng := buildEngine(t)
		for _, mode := range []Mode{ModeAuto, ModeExact, ModeApproximate} {
			if _, err := eng.Search(ctx, SearchRequest{K: 1, Mode: mode}); !errors.Is(err, ErrEmptyQuery) {
				t.Fatalf("Search %v with no query: got %v, want ErrEmptyQuery", mode, err)
			}
		}
		if _, err := eng.Search(ctx, SearchRequest{K: 1, Mode: ModeSketch}); !errors.Is(err, ErrEmptyQuery) {
			t.Fatalf("Search sketch with no sketch: got %v, want ErrEmptyQuery", err)
		}
	})

	t.Run("InvalidShape", func(t *testing.T) {
		// An invalid shape is rejected (no sentinel: the geometry error is
		// passed up) at any fan-out width, wherever it sits in the sketch.
		eng := buildEngine(t)
		bad := NewPolyline(Pt(0, 0))
		if _, err := eng.Search(ctx, SearchRequest{Query: bad, K: 1}); err == nil {
			t.Fatal("Search with an invalid query succeeded")
		}
		for _, exec := range []ExecPolicy{ExecSequential, ExecFanout} {
			req := SearchRequest{Sketch: []Shape{q, bad}, K: 1, Mode: ModeSketch, Exec: exec, MaxWorkers: 2}
			if _, err := eng.Search(ctx, req); err == nil {
				t.Fatalf("Search %v with an invalid sketch shape succeeded", exec)
			}
		}
	})

	t.Run("ValidationOrder", func(t *testing.T) {
		// Frozen-state errors outrank argument errors, so callers can
		// rely on ErrNotFrozen from a mis-sequenced setup regardless of
		// the request's shape.
		eng := New(DefaultOptions())
		if _, err := eng.Search(ctx, SearchRequest{K: 0}); !errors.Is(err, ErrNotFrozen) {
			t.Fatalf("unfrozen + bad k: got %v, want ErrNotFrozen", err)
		}
		frozen := buildEngine(t)
		if _, err := frozen.Search(ctx, SearchRequest{K: 0}); !errors.Is(err, ErrBadK) {
			t.Fatalf("bad k + empty query: got %v, want ErrBadK", err)
		}
	})
}

// TestSearchContextCancelled verifies a cancelled context wins over
// every other validation.
func TestSearchContextCancelled(t *testing.T) {
	eng := buildEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Search(ctx, SearchRequest{Query: square(0, 0, 1), K: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	sketch := SearchRequest{Sketch: buildSketch(), K: 3, Mode: ModeSketch, Exec: ExecFanout, MaxWorkers: 2}
	if _, err := eng.Search(ctx, sketch); !errors.Is(err, context.Canceled) {
		t.Fatalf("sketch: got %v, want context.Canceled", err)
	}
}

// errAfterCtx is a context that reads cancelled from its after+1-th Err
// call on: a cancel that lands at a known point of a single-goroutine
// search.
type errAfterCtx struct {
	context.Context
	calls, after int
}

func (c *errAfterCtx) Err() error {
	if c.calls++; c.calls > c.after {
		return context.Canceled
	}
	return nil
}

// TestExactScanCancelled cancels a single Engine's ModeExact search in its
// floor pass: the request's entry check, the fan-out's claim of the part
// and the pass's first check have passed, and its second — 32 shapes in —
// sees the cancel.
func TestExactScanCancelled(t *testing.T) {
	images, queries, _ := equivBase(t)
	eng := buildSingle(t, images)
	if eng.NumShapes() <= 32 {
		t.Fatalf("want a search over more than 32 shapes (have %d)", eng.NumShapes())
	}
	ctx := &errAfterCtx{Context: context.Background(), after: 3}
	resp, err := eng.Search(ctx, SearchRequest{Query: queries[0], K: 1, Mode: ModeExact})
	if !errors.Is(err, context.Canceled) || resp != nil {
		t.Fatalf("got (%v, %v), want context.Canceled and no response", resp, err)
	}
	if ctx.calls != ctx.after+1 {
		t.Fatalf("the search consulted its context %d times, want the cancel seen on call %d", ctx.calls, ctx.after+1)
	}
}

// TestSketchTableCancelled cancels a single Engine's one-shape sketch
// inside its table, with the ANN tier off (the fixed-cutoff scan of every
// live shape) and under AnnApprox (the ANN candidates, at least 96): the
// request's entry check, the sketch's own, the fan-out's claim of the part
// and the table's first check have passed, and its second — 32 shapes in
// — sees the cancel.
func TestSketchTableCancelled(t *testing.T) {
	images, queries, _ := equivBase(t)
	eng := buildSingle(t, images)
	if eng.NumShapes() <= 96 {
		t.Fatalf("want a table over more than 96 shapes (have %d)", eng.NumShapes())
	}
	for _, ann := range []AnnMode{AnnOff, AnnApprox} {
		ctx := &errAfterCtx{Context: context.Background(), after: 4}
		resp, err := eng.Search(ctx, SearchRequest{Sketch: []Shape{queries[0]}, K: 1, Mode: ModeSketch, Ann: ann, Exec: ExecSequential})
		if !errors.Is(err, context.Canceled) || resp != nil {
			t.Fatalf("ann %v: got (%v, %v), want context.Canceled and no response", ann, resp, err)
		}
		if ctx.calls != ctx.after+1 {
			t.Fatalf("ann %v: the sketch consulted its context %d times, want the cancel seen on call %d", ann, ctx.calls, ctx.after+1)
		}
	}
}

// TestSeedPassCancelled cancels a single Engine's search while a pass that
// scores is under way — the refine pass of ModeExact, the hashing stage's
// bucket pass of ModeApproximate: with k the bucket's size no k-th exists
// to stop either early, so after the checks in front of it (the request's
// entry, the fan-out's claim of the part and, for ModeExact, the floor
// pass's, one per 32 shapes) and its own first one, its second — 32 shapes
// in — sees the cancel.
func TestSeedPassCancelled(t *testing.T) {
	images := synth.GenerateBase(synth.PaperSpec(0.005, 41))
	eng := buildSingle(t, images)
	parts := eng.searchView().parts
	var req SearchRequest
	for _, q := range synth.Queries(rand.New(rand.NewSource(43)), images, 8, 0.01) {
		pq, err := core.PrepareQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(hashBuckets(parts, pq)[0]); n > 32 {
			req = SearchRequest{Query: q, K: n}
			break
		}
	}
	if req.K == 0 {
		t.Fatal("no query with more than 32 shapes in its bucket")
	}
	for _, tc := range []struct {
		mode   Mode
		before int // context checks ahead of the pass
	}{{ModeExact, 2 + (eng.NumShapes()+31)/32}, {ModeApproximate, 2}} {
		req.Mode = tc.mode
		ctx := &errAfterCtx{Context: context.Background(), after: tc.before + 1}
		resp, err := eng.Search(ctx, req)
		if !errors.Is(err, context.Canceled) || resp != nil {
			t.Fatalf("%v: got (%v, %v), want context.Canceled and no response", tc.mode, resp, err)
		}
		if ctx.calls != ctx.after+1 {
			t.Fatalf("%v: the search consulted its context %d times, want the cancel seen on call %d", tc.mode, ctx.calls, ctx.after+1)
		}
	}
}

func TestModeStringParseRoundTrip(t *testing.T) {
	for _, mode := range []Mode{ModeAuto, ModeExact, ModeApproximate, ModeSketch} {
		got, err := ParseMode(mode.String())
		if err != nil {
			t.Fatalf("ParseMode(%q): %v", mode.String(), err)
		}
		if got != mode {
			t.Fatalf("ParseMode(%q) = %v, want %v", mode.String(), got, mode)
		}
	}
	if m, err := ParseMode(""); err != nil || m != ModeAuto {
		t.Fatalf("ParseMode(\"\") = %v, %v; want ModeAuto", m, err)
	}
	if _, err := ParseMode("fuzzy"); err == nil {
		t.Fatal("ParseMode accepted an unknown mode")
	}
}

// TestPrepareOncePerRequest pins that a request normalizes its query (and
// builds its oracle and envelope) once, however many parts then search
// it: a ModeApproximate request looks up and scores every part's hash
// bucket with the one prepared query, and an AnnApprox request on 7 shards
// probes every shard's ANN index with it. A sketch prepares each of its
// shapes once.
func TestPrepareOncePerRequest(t *testing.T) {
	images, queries, sketch := equivBase(t)
	single := buildSingle(t, images)
	sharded := buildShardedFrom(t, images, 7)
	for _, tc := range []struct {
		name    string
		eng     Searcher
		req     SearchRequest
		want    int
		hashing bool
	}{
		{"engine approximate", single, SearchRequest{Query: queries[0], K: 3, Mode: ModeApproximate}, 1, true},
		{"7 shards approximate", sharded, SearchRequest{Query: queries[0], K: 3, Mode: ModeApproximate}, 1, true},
		{"7 shards ann approx", sharded, SearchRequest{Query: queries[1], K: 3, Ann: AnnApprox}, 1, false},
		{"7 shards sketch", sharded, SearchRequest{Sketch: sketch, K: 3, Mode: ModeSketch, Ann: AnnApprox}, len(sketch), false},
	} {
		prepared := 0
		tc.req.onPrepare = func() { prepared++ }
		resp, err := tc.eng.Search(context.Background(), tc.req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if resp.Stats.UsedHashing != tc.hashing {
			t.Fatalf("%s: UsedHashing = %v, want %v", tc.name, resp.Stats.UsedHashing, tc.hashing)
		}
		if tc.req.Ann != AnnOff && !resp.Stats.UsedANN {
			t.Fatalf("%s: the ANN tier did not engage", tc.name)
		}
		if prepared != tc.want {
			t.Errorf("%s: the query was prepared %d times, want %d", tc.name, prepared, tc.want)
		}
	}
}

// TestAutoIsExact pins ModeAuto's contract: it answers what ModeExact
// answers, and the hash table never answers it. On demo-200 the queries
// are 30 unmatched stars (3–12 points, noise 0.3: no stored shape lies
// near them), 30 stored shapes distorted 0.02, and one k larger than the
// live shapes; the engines are an Engine, 8 shards, and 8 shards with a
// live delta (an inserted image and a tombstoned frozen one).
func TestAutoIsExact(t *testing.T) {
	ctx := context.Background()
	images := synth.GenerateBase(synth.PaperSpec(0.02, 1))
	rng := rand.New(rand.NewSource(41))
	var queries []Shape
	for range 30 {
		queries = append(queries, synth.Star(rng, 3+rng.Intn(10), 0.3))
	}
	queries = append(queries, synth.Queries(rng, images, 30, 0.02)...)
	live := buildShardedFrom(t, images, 8)
	enableIngest(t, live, t.TempDir(), IngestConfig{})
	if err := live.DeleteImage(ctx, images[0].ID); err != nil {
		t.Fatal(err)
	}
	if err := live.InsertImage(ctx, 9001, []Shape{synth.Distort(rng, queries[30], 0.005)}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		eng  interface {
			Searcher
			NumShapes() int
		}
	}{
		{"engine", buildSingle(t, images)},
		{"8 shards", buildShardedFrom(t, images, 8)},
		{"8 shards live", live},
	} {
		diverged := 0
		for qi, q := range queries {
			ks := []int{5}
			if qi == 30 {
				ks = append(ks, tc.eng.NumShapes()+1)
			}
			for _, k := range ks {
				exact := mustSearch(t, tc.eng, SearchRequest{Query: q, K: k, Mode: ModeExact})
				auto := mustSearch(t, tc.eng, SearchRequest{Query: q, K: k, Mode: ModeAuto})
				if auto.Stats.UsedHashing || !reflect.DeepEqual(auto.Matches, exact.Matches) {
					diverged++
					t.Errorf("%s q%d k=%d: ModeAuto (used hashing %v) diverges from ModeExact", tc.name, qi, k, auto.Stats.UsedHashing)
				}
			}
		}
		if diverged > 0 {
			t.Errorf("%s: %d of %d requests diverge", tc.name, diverged, len(queries)+1)
		}
	}
}
