package geosir

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/synth"
)

// searcher is the engine surface the ANN equivalence suite needs; both
// Engine and ShardedEngine satisfy it.
type searcher interface {
	Search(ctx context.Context, req SearchRequest) (*SearchResponse, error)
	NumShapes() int
}

// TestAnnVerifyEquivalence pins the contract the tier keeps in ModeExact:
// exactness wins, so a ModeExact request with Ann set to AnnApprox returns
// exactly what the same request with the tier off does — matches, order
// and Stats — on the single Engine and on ShardedEngine at shard counts
// {1, 2, 7}, for k ∈ {0, 1, 3, many}. Run under -race this also exercises
// the fan-out concurrency.
func TestAnnVerifyEquivalence(t *testing.T) {
	images, queries, _ := equivBase(t)
	ctx := context.Background()

	type namedEngine struct {
		name string
		eng  searcher
	}
	engines := []namedEngine{{"single", buildSingle(t, images)}}
	for _, shards := range []int{1, 2, 7} {
		engines = append(engines, namedEngine{fmt.Sprintf("sharded-%d", shards), buildShardedFrom(t, images, shards)})
	}

	for _, e := range engines {
		many := e.eng.NumShapes() + 5

		// k = 0 fails identically with and without the tier.
		_, errOff := e.eng.Search(ctx, SearchRequest{Query: queries[0], K: 0, Mode: ModeExact})
		_, errOn := e.eng.Search(ctx, SearchRequest{Query: queries[0], K: 0, Mode: ModeExact, Ann: AnnApprox})
		if !errors.Is(errOff, ErrBadK) || !errors.Is(errOn, ErrBadK) {
			t.Fatalf("%s: k=0 errors diverge: off %v, approx %v", e.name, errOff, errOn)
		}

		for _, k := range []int{1, 3, many} {
			for qi, q := range queries {
				want, err := e.eng.Search(ctx, SearchRequest{Query: q, K: k, Mode: ModeExact})
				if err != nil {
					t.Fatalf("%s q%d k=%d off: %v", e.name, qi, k, err)
				}
				got, err := e.eng.Search(ctx, SearchRequest{Query: q, K: k, Mode: ModeExact, Ann: AnnApprox})
				if err != nil {
					t.Fatalf("%s q%d k=%d approx: %v", e.name, qi, k, err)
				}
				assertMatchesEqual(t, fmt.Sprintf("%s q%d k=%d exact/approx", e.name, qi, k), want.Matches, got.Matches)
				if got.Stats != want.Stats {
					t.Fatalf("%s q%d k=%d: stats %+v, tier off %+v", e.name, qi, k, got.Stats, want.Stats)
				}
			}
		}
	}
}

// TestSeededExactBuildsNoRank pins that an exact search pays for no ANN
// work: under AnnApprox, ModeExact computes no signature and probes
// nothing — and the stats say so — and the matches are the tier-off
// search's, for k within the base and past it.
func TestSeededExactBuildsNoRank(t *testing.T) {
	images, queries, _ := equivBase(t)
	ctx := context.Background()
	single, sharded := buildSingle(t, images), buildShardedFrom(t, images, 7)
	for _, e := range []struct {
		name string
		eng  searcher
	}{{"single", single}, {"sharded-7", sharded}} {
		for _, k := range []int{1, 3, e.eng.NumShapes() + 5} {
			for qi, q := range queries {
				want, err := e.eng.Search(ctx, SearchRequest{Query: q, K: k, Mode: ModeExact})
				if err != nil {
					t.Fatalf("%s q%d k=%d off: %v", e.name, qi, k, err)
				}
				signs := annSigns.Load()
				got, err := e.eng.Search(ctx, SearchRequest{Query: q, K: k, Mode: ModeExact, Ann: AnnApprox})
				if err != nil {
					t.Fatalf("%s q%d k=%d approx: %v", e.name, qi, k, err)
				}
				if signed := annSigns.Load() - signs; signed != 0 {
					t.Fatalf("%s q%d k=%d: an exact search signed %d query shapes", e.name, qi, k, signed)
				}
				assertMatchesEqual(t, e.name+"/exact/approx", want.Matches, got.Matches)
				if st := got.Stats; st.UsedANN || st.ANNProbes != 0 || st.ANNCandidates != 0 {
					t.Fatalf("%s q%d k=%d: an exact search reports ANN work: %+v", e.name, qi, k, st)
				}
			}
		}
	}
}

// annRecallBase builds the deterministic recall fixture: a seeded
// paper-statistics base and distorted-copy queries whose true top-k is
// taken from the exact engine.
func annRecallBase(t *testing.T) ([]synth.Image, []Shape) {
	t.Helper()
	spec := synth.PaperSpec(0.02, 97)
	spec.Images = 200
	images := synth.GenerateBase(spec)
	queries := synth.Queries(rand.New(rand.NewSource(101)), images, 24, 0.01)
	for i, q := range queries {
		if q.Validate() != nil {
			t.Fatalf("query %d invalid", i)
		}
	}
	return images, queries
}

// recallAtK runs every query through exact search (ground truth) and
// the ANN-approximate path, and returns the mean fraction of true top-k
// shape ids the approximate result recovered.
func recallAtK(t *testing.T, eng searcher, queries []Shape, k int) float64 {
	t.Helper()
	ctx := context.Background()
	var sum float64
	for qi, q := range queries {
		truth, err := eng.Search(ctx, SearchRequest{Query: q, K: k, Mode: ModeExact})
		if err != nil {
			t.Fatalf("exact q%d: %v", qi, err)
		}
		approx, err := eng.Search(ctx, SearchRequest{Query: q, K: k, Mode: ModeAuto, Ann: AnnApprox})
		if err != nil {
			t.Fatalf("approx q%d: %v", qi, err)
		}
		if !approx.Stats.UsedANN {
			t.Fatalf("approx q%d: ANN tier did not engage", qi)
		}
		if len(truth.Matches) == 0 {
			continue
		}
		want := make(map[int]bool, len(truth.Matches))
		for _, m := range truth.Matches {
			want[m.ShapeID] = true
		}
		hit := 0
		for _, m := range approx.Matches {
			if want[m.ShapeID] {
				hit++
			}
		}
		sum += float64(hit) / float64(len(truth.Matches))
	}
	return sum / float64(len(queries))
}

// TestAnnApproxRecallFloor pins approximate-mode quality on a seeded
// base: everything is deterministic (generator seeds, MinHash seed,
// probe floors), so the measured recall is a constant of the code and a
// drop below the floor is a real regression, not flake. The floor is
// deliberately below the measured value to leave headroom for benign
// parameter retunes; BenchmarkAnn* report the full recall/speedup
// tradeoff.
func TestAnnApproxRecallFloor(t *testing.T) {
	images, queries := annRecallBase(t)
	const k = 5
	const floor = 0.90

	single := buildSingle(t, images)
	got := recallAtK(t, single, queries, k)
	t.Logf("single-engine recall@%d = %.4f", k, got)
	if got < floor {
		t.Fatalf("single-engine recall@%d = %.4f, want >= %.2f", k, got, floor)
	}

	// Sharded approximate search applies the per-shard probe floor in
	// every shard, so its candidate union is at least as wide as the
	// single engine's: recall must not fall below the same floor.
	se := buildShardedFrom(t, images, 3)
	got = recallAtK(t, se, queries, k)
	t.Logf("sharded recall@%d = %.4f", k, got)
	if got < floor {
		t.Fatalf("sharded recall@%d = %.4f, want >= %.2f", k, got, floor)
	}
}

// TestAnnProbesEachPartUnderItsParams pins the signing contract of an
// AnnApprox request: every part's index is of the one signature family, so
// a request signs each query shape once (annSign) — a single-shape request
// once, a sketch once per sketch shape — whatever the part count, and
// probes every part with that one signature. Each part's listing and its
// Stats under it equal those under the part's own Index.Signature, for
// ModeApproximate, ModeAuto and ModeSketch, and the matches are the long
// way's.
func TestAnnProbesEachPartUnderItsParams(t *testing.T) {
	images, queries, sketch := equivBase(t)
	ctx := context.Background()
	se := buildShardedFrom(t, images, 4)
	v := se.searchView()
	const k = 3
	for qi, q := range append(queries, sketch...) {
		label := fmt.Sprintf("q%d", qi)
		pq, err := core.PrepareQuery(q)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		sig := annSign(pq.Entry().Poly)
		for i, p := range v.parts {
			own := p.ann().Signature(pq.Entry().Poly)
			if !slices.Equal(own, sig) {
				t.Fatalf("%s part %d: signs the query %v, the request %v", label, i, own, sig)
			}
			got, gst, err := p.annFloors(ctx, pq, sig, k, int32(i), nil)
			if err != nil {
				t.Fatalf("%s part %d: %v", label, i, err)
			}
			want, wst, _ := p.annFloors(ctx, pq, own, k, int32(i), nil)
			if !slices.Equal(got, want) || gst != wst {
				t.Fatalf("%s part %d: listing %v %+v, under its own signature %v %+v", label, i, got, gst, want, wst)
			}
			gotT, gst, err := p.sketchTable(ctx, pq, sig, k)
			if err != nil {
				t.Fatalf("%s part %d sketch: %v", label, i, err)
			}
			wantT, wst, _ := p.sketchTable(ctx, pq, own, k)
			if !maps.Equal(gotT, wantT) || gst != wst {
				t.Fatalf("%s part %d: sketch table %v %+v, under its own signature %v %+v", label, i, gotT, gst, wantT, wst)
			}
		}
		want := annApproxUnshared(t, label, v.parts, q, k)
		for _, mode := range []Mode{ModeApproximate, ModeAuto} {
			before := annSigns.Load()
			got, err := se.Search(ctx, SearchRequest{Query: q, K: k, Mode: mode, Ann: AnnApprox})
			if err != nil {
				t.Fatalf("%s %v: %v", label, mode, err)
			}
			if signed := annSigns.Load() - before; signed != 1 {
				t.Fatalf("%s %v: the request signed its query %d times over %d parts, want once", label, mode, signed, len(v.parts))
			}
			assertMatchesEqual(t, fmt.Sprintf("%s %v", label, mode), want, got.Matches)
		}
	}
	perShape := make([]map[int]float64, len(sketch))
	for si, q := range sketch {
		pq, err := core.PrepareQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		perShape[si] = map[int]float64{}
		for _, p := range v.parts {
			table, _, _ := p.sketchTable(ctx, pq, p.ann().Signature(pq.Entry().Poly), k)
			maps.Copy(perShape[si], table)
		}
	}
	before := annSigns.Load()
	got, err := se.Search(ctx, SearchRequest{Sketch: sketch, K: k, Mode: ModeSketch, Ann: AnnApprox})
	if err != nil {
		t.Fatal(err)
	}
	if signed := annSigns.Load() - before; signed != int64(len(sketch)) {
		t.Fatalf("the sketch request signed %d shapes over %d parts, want its %d once each", signed, len(v.parts), len(sketch))
	}
	assertSketchEqual(t, "sketch", scoreSketchTables(perShape, k), got.SketchMatches)
}

// annApproxUnshared is the ann:approx answer worked out the long way,
// without the stage's listing (annFloors): a frozen part's live candidates,
// probed with a signature of its own, and a delta's every live shape,
// scored under +Inf, ranked, cut to k.
func annApproxUnshared(t *testing.T, label string, parts []part, q Shape, k int) []Match {
	t.Helper()
	pq, err := core.PrepareQuery(q)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	var ms []Match
	for _, p := range parts {
		var listed []int
		if p.ann != nil {
			listed, _ = p.annCandidates(p.ann().Signature(pq.Entry().Poly), annMinShapes(k))
		} else {
			for id := range p.base.NumShapes() {
				listed = append(listed, id)
			}
		}
		for _, id := range listed {
			if m, _, ok := p.scoreBounded(id, pq, math.Inf(1)); ok && !p.dead[id] {
				ms = append(ms, m)
			}
		}
	}
	slices.SortFunc(ms, func(a, b Match) int {
		return cmp.Or(cmp.Compare(a.Distance, b.Distance), cmp.Compare(a.ShapeID, b.ShapeID))
	})
	return ms[:min(k, len(ms))]
}
