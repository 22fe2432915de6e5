package sched

import (
	"runtime"
	"sync"
	"testing"
)

func TestWidthAtTable(t *testing.T) {
	cases := []struct {
		name              string
		parts             int
		pol               Policy
		load, cores, want int
	}{
		// Degenerate part counts never fan out.
		{"one part", 1, Auto, 1, 8, 1},
		{"zero parts", 0, Auto, 1, 8, 1},

		// Sequential is unconditional.
		{"sequential idle", 8, Sequential, 1, 8, 1},
		{"sequential one core", 8, Sequential, 1, 1, 1},

		// Auto at idle spends min(parts, cores).
		{"auto idle few shards", 2, Auto, 1, 8, 2},
		{"auto idle many shards", 16, Auto, 1, 8, 8},
		{"auto idle one core", 8, Auto, 1, 1, 1},

		// Auto under load shares cores across requests.
		{"auto two requests", 8, Auto, 2, 8, 4},
		{"auto saturated", 8, Auto, 8, 8, 1},
		{"auto oversubscribed", 8, Auto, 64, 8, 1},
		{"auto load rounds down", 7, Auto, 3, 8, 2},

		// Defensive clamps.
		{"zero cores", 8, Auto, 1, 0, 1},
		{"zero load treated as one", 8, Auto, 0, 8, 8},
	}
	for _, tc := range cases {
		if got := WidthAt(tc.parts, tc.pol, tc.load, tc.cores); got != tc.want {
			t.Errorf("%s: WidthAt(%d, %v, load=%d, cores=%d) = %d, want %d",
				tc.name, tc.parts, tc.pol, tc.load, tc.cores, got, tc.want)
		}
	}
}

func TestEnterReleaseGauge(t *testing.T) {
	var p Planner
	if got := p.InFlight(); got != 0 {
		t.Fatalf("fresh gauge = %d, want 0", got)
	}
	r1 := p.Enter()
	r2 := p.Enter()
	if got := p.InFlight(); got != 2 {
		t.Fatalf("gauge after two Enter = %d, want 2", got)
	}
	r1()
	r1() // double release must be a no-op
	if got := p.InFlight(); got != 1 {
		t.Fatalf("gauge after release (x2) = %d, want 1", got)
	}
	r2()
	if got := p.InFlight(); got != 0 {
		t.Fatalf("gauge after all released = %d, want 0", got)
	}
}

// TestWidthRecordsPlans: a lone Auto request on 4 cores plans width 4
// and counts as a fan-out, a Sequential one width 1 and a sequential plan.
func TestWidthRecordsPlans(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	var p Planner
	if w := p.Width(8, Auto); w != 4 {
		t.Fatalf("Auto width = %d, want 4", w)
	}
	if w := p.Width(8, Sequential); w != 1 {
		t.Fatalf("Sequential width = %d, want 1", w)
	}
	st := p.Stats()
	if st.PlansFanout != 1 || st.PlansSequential != 1 {
		t.Fatalf("plan counters = %+v, want 1 fanout / 1 sequential", st)
	}
}

func TestPlannerConcurrent(t *testing.T) {
	var p Planner
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			release := p.Enter()
			defer release()
			_ = p.Width(8, Auto)
			_ = p.InFlight()
			_ = p.Stats()
		}()
	}
	wg.Wait()
	if got := p.InFlight(); got != 0 {
		t.Fatalf("gauge after concurrent churn = %d, want 0", got)
	}
	st := p.Stats()
	if st.PlansFanout+st.PlansSequential != 32 {
		t.Fatalf("plan counters sum = %d, want 32", st.PlansFanout+st.PlansSequential)
	}
}
