package geosir

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/synth"
)

// searcher is the engine surface the ANN equivalence suite needs; both
// Engine and ShardedEngine satisfy it.
type searcher interface {
	Search(ctx context.Context, req SearchRequest) (*SearchResponse, error)
	NumShapes() int
}

// TestAnnVerifyEquivalence is the property the verify-mode contract
// rests on: with Ann set to AnnVerify the candidate tier may only
// reorder work inside the exact kernel, so Search must return
// byte-identical matches and ordering to the same request with the tier
// off — on the single Engine and on ShardedEngine at shard counts
// {1, 2, 7}, for every mode, k ∈ {0, 1, 3, many}, and the sketch path.
// ModeExact with AnnApprox degrades to verify (the mode's exactness
// contract wins), so it is held to the same identity. Stats are
// deliberately not compared: UsedANN and the probe counters legitimately
// differ. Run under -race this also exercises the fan-out concurrency.
func TestAnnVerifyEquivalence(t *testing.T) {
	images, queries, sketch := equivBase(t)
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
		_, errOff := e.eng.Search(ctx, SearchRequest{Query: queries[0], K: 0})
		_, errOn := e.eng.Search(ctx, SearchRequest{Query: queries[0], K: 0, Ann: AnnVerify})
		if !errors.Is(errOff, ErrBadK) || !errors.Is(errOn, ErrBadK) {
			t.Fatalf("%s: k=0 errors diverge: off %v, verify %v", e.name, errOff, errOn)
		}

		for _, k := range []int{1, 3, many} {
			for qi, q := range queries {
				for _, mode := range []Mode{ModeAuto, ModeExact, ModeApproximate} {
					want, err := e.eng.Search(ctx, SearchRequest{Query: q, K: k, Mode: mode})
					if err != nil {
						t.Fatalf("%s q%d k=%d %v off: %v", e.name, qi, k, mode, err)
					}
					got, err := e.eng.Search(ctx, SearchRequest{Query: q, K: k, Mode: mode, Ann: AnnVerify})
					if err != nil {
						t.Fatalf("%s q%d k=%d %v verify: %v", e.name, qi, k, mode, err)
					}
					assertMatchesEqual(t, e.name+"/"+mode.String()+"/verify", want.Matches, got.Matches)
					if mode == ModeExact {
						got, err = e.eng.Search(ctx, SearchRequest{Query: q, K: k, Mode: mode, Ann: AnnApprox})
						if err != nil {
							t.Fatalf("%s q%d k=%d exact approx: %v", e.name, qi, k, err)
						}
						assertMatchesEqual(t, e.name+"/exact/approx-degraded", want.Matches, got.Matches)
					}
				}
			}
			want, err := e.eng.Search(ctx, SearchRequest{Sketch: sketch, K: k, Mode: ModeSketch})
			if err != nil {
				t.Fatalf("%s sketch k=%d off: %v", e.name, k, err)
			}
			got, err := e.eng.Search(ctx, SearchRequest{Sketch: sketch, K: k, Mode: ModeSketch, Ann: AnnVerify})
			if err != nil {
				t.Fatalf("%s sketch k=%d verify: %v", e.name, k, err)
			}
			assertSketchEqual(t, e.name+"/sketch/verify", want.SketchMatches, got.SketchMatches)
		}
	}
}

// TestSeededExactBuildsNoRank pins that an exact search pays for no ANN
// ordering: under AnnVerify the exact search orders its shapes by floor
// alone — no signature, no probe, and the stats say so — and the matches
// are the tier-off search's, for k within the base and past it.
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
				got, err := e.eng.Search(ctx, SearchRequest{Query: q, K: k, Mode: ModeExact, Ann: AnnVerify})
				if err != nil {
					t.Fatalf("%s q%d k=%d verify: %v", e.name, qi, k, err)
				}
				assertMatchesEqual(t, e.name+"/exact/verify", want.Matches, got.Matches)
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
