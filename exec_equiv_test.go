package geosir

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/sched"
)

// TestExecEquivalence is the suite the scheduler's exactness claim
// rests on: the planned fan-out width changes only how fast an answer
// arrives, never the answer. Over the same seeded random base, an
// engine must return byte-identical matches and ordering under
// ExecSequential, ExecFanout, a capped ExecFanout, and ExecAuto — for
// the single Engine and shard counts {1, 2, 7}, every mode,
// k ∈ {1, many}, and every ann mode. A single-shape request's Stats are
// the same at every width too: only a stage's listing fans out, and its
// refine pass runs on the request's goroutine over a total order. Run
// under -race this exercises the fan-out concurrency against the inline
// path.
func TestExecEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("exec equivalence suite is deliberately exhaustive; skipped in -short")
	}
	images, queries, sketch := equivBase(t)
	ctx := context.Background()

	variants := []struct {
		name string
		set  func(*SearchRequest)
	}{
		{"sequential", func(r *SearchRequest) { r.Exec = ExecSequential }},
		{"fanout-cap2", func(r *SearchRequest) { r.Exec = ExecFanout; r.MaxWorkers = 2 }},
		{"auto", func(r *SearchRequest) { r.Exec = ExecAuto }},
	}

	for _, shards := range []int{0, 1, 2, 7} {
		var se searcher
		if shards == 0 { // the Engine
			se = buildSingle(t, images)
		} else {
			se = buildShardedFrom(t, images, shards)
		}
		many := se.NumShapes() + 5
		for _, mode := range []Mode{ModeAuto, ModeExact, ModeApproximate} {
			for _, ann := range []AnnMode{AnnOff, AnnApprox} {
				for _, k := range []int{1, many} {
					for qi, q := range queries[:2] {
						base := SearchRequest{Query: q, K: k, Mode: mode, Ann: ann, Exec: ExecFanout}
						want, err := se.Search(ctx, base)
						if err != nil {
							t.Fatalf("shards=%d mode=%v ann=%d k=%d q=%d fanout: %v", shards, mode, ann, k, qi, err)
						}
						for _, v := range variants {
							req := SearchRequest{Query: q, K: k, Mode: mode, Ann: ann}
							v.set(&req)
							got, err := se.Search(ctx, req)
							if err != nil {
								t.Fatalf("shards=%d mode=%v ann=%d k=%d q=%d %s: %v", shards, mode, ann, k, qi, v.name, err)
							}
							label := fmt.Sprintf("shards=%d mode=%v ann=%d k=%d q=%d %s", shards, mode, ann, k, qi, v.name)
							assertMatchesEqual(t, label, want.Matches, got.Matches)
							if got.Stats != want.Stats {
								t.Errorf("%s: stats %+v, at full width %+v", label, got.Stats, want.Stats)
							}
						}
					}
				}
			}
		}
		for _, k := range []int{1, 5} {
			base := SearchRequest{Sketch: sketch, K: k, Mode: ModeSketch, Exec: ExecFanout}
			want, err := se.Search(ctx, base)
			if err != nil {
				t.Fatalf("shards=%d sketch k=%d fanout: %v", shards, k, err)
			}
			for _, v := range variants {
				req := SearchRequest{Sketch: sketch, K: k, Mode: ModeSketch}
				v.set(&req)
				got, err := se.Search(ctx, req)
				if err != nil {
					t.Fatalf("shards=%d sketch k=%d %s: %v", shards, k, v.name, err)
				}
				assertSketchEqual(t, fmt.Sprintf("shards=%d sketch k=%d %s", shards, k, v.name), want.SketchMatches, got.SketchMatches)
			}
		}
	}
}

// TestExecAutoLoadGauge proves the load signal steers the plan: an idle
// request over several shards fans out, while a request arriving with
// the engine saturated is planned sequentially — and both return the
// same matches.
func TestExecAutoLoadGauge(t *testing.T) {
	images, queries, _ := equivBase(t)
	se := buildShardedFrom(t, images, 4)
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	ctx := context.Background()
	req := SearchRequest{Query: queries[0], K: 3, Mode: ModeExact}

	before := se.SchedStats()
	if before.InFlight != 0 {
		t.Fatalf("idle gauge = %d, want 0", before.InFlight)
	}
	idle, err := se.Search(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	after := se.SchedStats()
	if after.PlansFanout != before.PlansFanout+1 || after.PlansSequential != before.PlansSequential {
		t.Fatalf("idle request planned (%d fanout, %d sequential) → (%d, %d); want a fan-out plan",
			before.PlansFanout, before.PlansSequential, after.PlansFanout, after.PlansSequential)
	}

	// Saturate the gauge as 64 concurrent requests would, then search.
	releases := make([]func(), 64)
	for i := range releases {
		releases[i] = se.sched.Enter()
	}
	before = se.SchedStats()
	if before.InFlight != 64 {
		t.Fatalf("held gauge = %d, want 64", before.InFlight)
	}
	loaded, err := se.Search(ctx, req)
	for _, release := range releases {
		release()
	}
	if err != nil {
		t.Fatal(err)
	}
	after = se.SchedStats()
	if after.PlansSequential != before.PlansSequential+1 || after.PlansFanout != before.PlansFanout {
		t.Fatalf("loaded request planned (%d fanout, %d sequential) → (%d, %d); want a sequential plan",
			before.PlansFanout, before.PlansSequential, after.PlansFanout, after.PlansSequential)
	}
	if got := se.SchedStats().InFlight; got != 0 {
		t.Fatalf("gauge after releases = %d, want 0", got)
	}
	assertMatchesEqual(t, "idle vs loaded", idle.Matches, loaded.Matches)
}

// TestExecPlan pins how a request's knobs resolve to a scheduler plan.
func TestExecPlan(t *testing.T) {
	cases := []struct {
		name    string
		req     SearchRequest
		wantPol sched.Policy
		wantCap int
	}{
		{"zero request", SearchRequest{}, sched.Auto, 0},
		{"auto capped", SearchRequest{MaxWorkers: 2}, sched.Auto, 2},
		{"fanout capped", SearchRequest{Exec: ExecFanout, MaxWorkers: 5}, sched.Fanout, 5},
		{"sequential", SearchRequest{Exec: ExecSequential, MaxWorkers: 9}, sched.Sequential, 9},
	}
	for _, tc := range cases {
		pol, maxw := tc.req.execPlan()
		if pol != tc.wantPol || maxw != tc.wantCap {
			t.Errorf("%s: execPlan() = (%v, %d), want (%v, %d)", tc.name, pol, maxw, tc.wantPol, tc.wantCap)
		}
	}
}

// TestParseExecPolicy round-trips the wire names.
func TestParseExecPolicy(t *testing.T) {
	for _, pol := range []ExecPolicy{ExecAuto, ExecFanout, ExecSequential} {
		got, err := ParseExecPolicy(pol.String())
		if err != nil || got != pol {
			t.Errorf("ParseExecPolicy(%q) = (%v, %v), want (%v, nil)", pol.String(), got, err, pol)
		}
	}
	if got, err := ParseExecPolicy(""); err != nil || got != ExecAuto {
		t.Errorf("ParseExecPolicy(\"\") = (%v, %v), want (ExecAuto, nil)", got, err)
	}
	if _, err := ParseExecPolicy("bogus"); err == nil {
		t.Error("ParseExecPolicy(\"bogus\") succeeded, want error")
	}
}
