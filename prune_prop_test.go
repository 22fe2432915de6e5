package geosir

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/synth"
)

// TestSharedBoundDeterministic is the property test for the cross-shard
// shared top-k bound (DESIGN.md §4.9): the bound makes each shard's
// *work* depend on scheduling — which shard publishes first decides what
// the others skip — so this test re-runs the same ModeExact and
// ModeApproximate queries many times on multi-shard engines with real
// fan-out concurrency and demands the matches stay byte-identical to
// each other and to the single unsharded engine. Run under -race this
// also checks the bound's atomics.
func TestSharedBoundDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("property soak")
	}
	images, queries, _ := equivBase(t)
	single := buildSingle(t, images)
	ctx := context.Background()
	const k = 4
	const rounds = 6

	for _, mode := range []Mode{ModeExact, ModeApproximate} {
		want := make([][]Match, len(queries))
		for qi, q := range queries {
			resp, err := single.Search(ctx, SearchRequest{Query: q, K: k, Mode: mode})
			if err != nil {
				t.Fatalf("%s single q%d: %v", mode, qi, err)
			}
			want[qi] = resp.Matches
		}
		for _, shards := range []int{2, 7} {
			se := buildShardedFrom(t, images, shards)
			for round := 0; round < rounds; round++ {
				for qi, q := range queries {
					resp, err := se.Search(ctx, SearchRequest{Query: q, K: k, Mode: mode, Exec: ExecFanout, MaxWorkers: 4})
					if err != nil {
						t.Fatalf("%s shards=%d round %d q%d: %v", mode, shards, round, qi, err)
					}
					if !reflect.DeepEqual(resp.Matches, want[qi]) {
						t.Fatalf("%s shards=%d round %d q%d: matches diverge from single engine\ngot:  %+v\nwant: %+v",
							mode, shards, round, qi, resp.Matches, want[qi])
					}
				}
			}
		}
	}
}

// exactUnseeded is the exact scatter as it runs without a hash-tier seed
// (under a fresh bound, or the given one): the reference a bound-first
// Search must reproduce.
func exactUnseeded(t *testing.T, label string, parts []part, q Shape, k, width int, shared *core.SharedBound) ([]Match, Stats) {
	t.Helper()
	pq, err := core.PrepareQuery(q)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	ms, st, err := exactScatter(context.Background(), parts, pq, k, width, shared, nil)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	return ms, st
}

// autoFrom is the ModeAuto answer that follows from an unseeded exact
// phase (its merged matches and stats): the exact matches when every part
// converged on a match within τ, the hashing answer otherwise.
func autoFrom(t *testing.T, label string, v searchView, q Shape, k int, exact []Match, st Stats) []Match {
	t.Helper()
	if st.Converged && exactGoodEnough(exact, v.tau) {
		return exact
	}
	pq, err := core.PrepareQuery(q)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	approx, _, err := approxScatter(context.Background(), v.parts, pq, hashBuckets(v.parts, pq), k, 1, AnnOff)
	if err != nil {
		t.Fatalf("%s hashing: %v", label, err)
	}
	if len(approx) == 0 {
		return exact
	}
	return approx
}

// TestSharedBoundTombstoneProperty is the seeded property test of the
// shared bound (DESIGN.md §4.9) over everything that used to switch it
// off or starve a shard's own top-k: random bases,
// shard counts {2, 7, 8}, k ∈ {1, 5, many}, tombstones {none, some, a
// whole shard's worth} and bounds pre-tightened to the tightest legal
// value (the true merged k-th best) and looser ones. The merged matches
// of every shared run — raced fan-out, width-1 walk, pre-tightened —
// must be byte-identical to the unseeded run, and equal (global ids
// shift across a rebuild, so on image, distances and order) to a single
// Engine rebuilt from the live images. Queries include copies of
// tombstoned shapes, so dead shapes would top the lists if they leaked.
func TestSharedBoundTombstoneProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property soak")
	}
	ctx := context.Background()
	for _, seed := range []int64{71, 72} {
		images := synth.GenerateBase(synth.PaperSpec(0.002, seed))
		for _, shards := range []int{2, 7, 8} {
			for _, scenario := range []string{"none", "some", "shard"} {
				dead := func(i int, im synth.Image) bool {
					switch scenario {
					case "some":
						return i%4 == 1
					case "shard":
						return core.ShardFor(im.ID, shards) == shards-1
					}
					return false
				}
				se := buildShardedFrom(t, images, shards)
				enableIngest(t, se, t.TempDir(), IngestConfig{})
				var kept, gone []synth.Image
				for i, im := range images {
					if !dead(i, im) {
						kept = append(kept, im)
						continue
					}
					gone = append(gone, im)
					if err := se.DeleteImage(ctx, im.ID); err != nil {
						t.Fatalf("DeleteImage(%d): %v", im.ID, err)
					}
				}
				ref := buildSingle(t, kept)
				rng := rand.New(rand.NewSource(seed + int64(shards)))
				queries := synth.Queries(rng, kept, 2, 0.01)
				if len(gone) > 0 {
					queries = append(queries, synth.Queries(rng, gone, 1, 0.005)...)
				}
				v := se.searchView()
				ks := []int{1, 5}
				if seed == 71 {
					ks = append(ks, se.NumShapes()+3) // unconverged and slow: one base is enough
				}
				for _, k := range ks {
					for qi, q := range queries {
						label := fmt.Sprintf("seed=%d shards=%d dead=%s k=%d q=%d", seed, shards, scenario, k, qi)
						want, wst := exactUnseeded(t, label, v.parts, q, k, 1, nil)
						rebuilt, err := ref.Search(ctx, SearchRequest{Query: q, K: k, Mode: ModeExact})
						if err != nil {
							t.Fatalf("%s rebuilt: %v", label, err)
						}
						if len(rebuilt.Matches) != len(want) {
							t.Fatalf("%s: %d matches, rebuilt engine has %d", label, len(want), len(rebuilt.Matches))
						}
						for i, w := range rebuilt.Matches {
							g := want[i]
							if g.ImageID != w.ImageID || g.Distance != w.Distance || g.ContinuousDistance != w.ContinuousDistance {
								t.Fatalf("%s: match %d diverges from the rebuilt engine\ngot:  %+v\nwant: %+v", label, i, g, w)
							}
						}
						wantAuto := autoFrom(t, label, v, q, k, want, wst)
						for _, exec := range []ExecPolicy{ExecFanout, ExecSequential} {
							got, err := se.Search(ctx, SearchRequest{Query: q, K: k, Mode: ModeExact, Exec: exec})
							if err != nil {
								t.Fatalf("%s %v: %v", label, exec, err)
							}
							assertMatchesEqual(t, fmt.Sprintf("%s %v", label, exec), want, got.Matches)
							got, err = se.Search(ctx, SearchRequest{Query: q, K: k, Exec: exec})
							if err != nil {
								t.Fatalf("%s auto %v: %v", label, exec, err)
							}
							assertMatchesEqual(t, fmt.Sprintf("%s auto %v", label, exec), wantAuto, got.Matches)
						}
						if len(want) < k {
							continue // no k-th best to pre-tighten to
						}
						for _, c := range []struct {
							slack float64
							width int
						}{{1, 1}, {1, 3}, {1.0001, 1}, {1.5, 3}} {
							sb := core.NewSharedBound()
							sb.Tighten(want[k-1].Distance * c.slack)
							got, st := exactUnseeded(t, label+" pre-tightened", v.parts, q, k, c.width, sb)
							assertMatchesEqual(t, fmt.Sprintf("%s bound×%g width=%d (converged=%v)", label, c.slack, c.width, st.Converged), want, got)
						}
					}
				}
			}
		}
	}
}
