package geosir

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/synth"
)

// TestShardedSearchDeterministic pins that a sharded search answers as one
// engine does, whatever its goroutines do: the same ModeExact and
// ModeApproximate queries, re-run many times on 2- and 7-shard engines with
// real fan-out concurrency, return matches byte-identical to each other and
// to the single unsharded engine's. Pass 1 lists the shards concurrently and
// pass 2 refines their shapes from one heap under the view's running k-th
// best (DESIGN.md §4.9); run under -race this also checks that the listings
// reach the refine pass safely.
func TestShardedSearchDeterministic(t *testing.T) {
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

// exactUnseeded is the exact answer over the parts worked out the long
// way, the reference the exact search must reproduce: every shape the
// parts list is scored by its part under one cutoff — +Inf, or a bound the
// caller has pre-tightened — and the survivors are sorted by (distance,
// id), cut to k and re-read for their continuous measure. No floor orders
// or stops anything. Converged is k ≤ the shapes listed.
func exactUnseeded(t *testing.T, label string, parts []part, q Shape, k int, cut float64) ([]Match, Stats) {
	t.Helper()
	ctx := context.Background()
	pq, err := core.PrepareQuery(q)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	type hit struct {
		m     Match
		c     bucketShape
		entry int
	}
	var hits []hit
	listed := 0
	for pi, p := range parts {
		shapes, _, err := p.floors(ctx, pq, int32(pi), nil)
		if err != nil {
			t.Fatalf("%s: part %d: %v", label, pi, err)
		}
		listed += len(shapes)
		for _, c := range shapes {
			if m, entry, ok := p.scoreBounded(int(c.id), pq, cut); ok {
				m.Approximate = false
				hits = append(hits, hit{m, c, entry})
			}
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		a, b := hits[i].m, hits[j].m
		return a.Distance < b.Distance || a.Distance == b.Distance && a.ShapeID < b.ShapeID
	})
	ms := make([]Match, min(k, len(hits)))
	for i := range ms {
		h := hits[i]
		ms[i] = h.m
		ms[i].ContinuousDistance, _ = parts[h.c.part].base.Continuous(h.entry, pq, new([]geom.Point))
	}
	return ms, Stats{Converged: k <= listed}
}

// TestTombstonedSearchMatchesRebuild is the seeded property test of the
// exact search over a sharded engine with deleted images: over random bases,
// shard counts {2, 7, 8}, k ∈ {1, 5, many} and tombstones {none, some, a
// whole shard's worth}, the exact search over the view answers on image,
// distances and order as a single engine rebuilt from the live images
// (global ids shift across a rebuild); the served ModeExact and ModeAuto
// searches, fanned out and sequential, both return its matches byte for
// byte — ModeAuto answers what ModeExact answers, k past the live shapes
// included;
// and a refine pass started under a bound pre-tightened to the true k-th
// best, or looser, returns them too. Queries include copies of tombstoned
// shapes, so dead shapes would top the lists if they leaked.
func TestTombstonedSearchMatchesRebuild(t *testing.T) {
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
						want, _ := exactUnseeded(t, label, v.parts, q, k, math.Inf(1))
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
							assertMatchesEqual(t, fmt.Sprintf("%s auto %v", label, exec), want, got.Matches)
						}
						if len(want) < k {
							continue // no k-th best to pre-tighten to
						}
						for _, slack := range []float64{1, 1.0001, 1.5} {
							got, st := exactUnseeded(t, label+" pre-tightened", v.parts, q, k, want[k-1].Distance*slack)
							assertMatchesEqual(t, fmt.Sprintf("%s bound×%g (converged=%v)", label, slack, st.Converged), want, got)
						}
					}
				}
			}
		}
	}
}
