package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/bench/load"
)

// The benchmark addresses its files from the repo root.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

type contract struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// TestContractMatchesCode keeps BENCHMARK.json and the ledgers the code
// emits the same list, name by name and unit by unit.
func TestContractMatchesCode(t *testing.T) {
	var c contract
	if err := readJSON("BENCHMARK.json", &c); err != nil {
		t.Fatal(err)
	}
	if c.RunSeconds != load.RunSeconds {
		t.Errorf("run_seconds %d, counts calibrated for %d", c.RunSeconds, load.RunSeconds)
	}
	if len(c.Workloads) != len(load.Specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(c.Workloads), len(load.Specs))
	}
	for i, w := range c.Workloads {
		if s := load.Specs[i]; w.Name != s.Name || w.Why != s.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), code has %q (%q)", i, w.Name, w.Why, s.Name, s.Why)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want [][2]string) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in code", kind, len(got), len(want))
			return
		}
		for i, g := range got {
			if g.Name != want[i][0] || g.Unit != want[i][1] {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s], code has %s [%s]", kind, i, g.Name, g.Unit, want[i][0], want[i][1])
			}
		}
	}
	same("end_to_end", c.EndToEnd, load.EndToEndNames)
	same("per_layer", c.PerLayer, load.LayerNames)
}

// TestSmoke runs all four workloads end to end at demo-20 with a
// twentieth of the calibrated traffic: every end-to-end metric must come
// out with its unit and nonzero, every answer must check, and the sharded
// answers must equal the single-shard ones.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four daemons")
	}
	digests := map[string]string{}
	for _, spec := range load.Specs {
		run, err := load.Execute(load.Config{
			Spec: spec.Scaled(1), Seed: 7, Seconds: 1, Images: 20,
			WorkDir: filepath.Join(t.TempDir(), spec.Name), SetupReps: 1,
		})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if err := run.Env.Close(); err != nil {
			t.Errorf("%s: closing the daemon: %v", spec.Name, err)
		}
		r := run.Report
		if !r.Correct || r.Failed > 0 || r.Attempted == 0 {
			t.Errorf("%s: correct %t, failed %d of %d: %v", spec.Name, r.Correct, r.Failed, r.Attempted, r.Problems)
		}
		for _, nu := range load.EndToEndNames {
			m, ok := r.EndToEnd[nu[0]]
			if !ok || m.Unit != nu[1] || m.Value <= 0 {
				t.Errorf("%s: metric %s = %+v (present %t), want a positive value in %s", spec.Name, nu[0], m, ok, nu[1])
			}
		}
		if r.InputDigest == "" || r.ResultDigest == "" {
			t.Errorf("%s: missing digest", spec.Name)
		}
		digests[spec.Name] = r.ResultDigest
	}
	if digests["exact_1shard"] != digests["exact_8shard"] {
		t.Errorf("exact_8shard answers differ from exact_1shard: %s vs %s", digests["exact_8shard"], digests["exact_1shard"])
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	set := func(name string, p50 float64) string {
		s := &Set{Seed: 1, Correct: true, Reports: map[string]*load.Report{}}
		for _, spec := range load.Specs {
			r := &load.Report{Workload: spec.Name, InputDigest: "d", EndToEnd: load.Metrics{}}
			for _, nu := range load.EndToEndNames {
				r.EndToEnd.Set(nu[0], 100, nu[1])
			}
			r.EndToEnd.Set("search_p50_ms", p50, "ms")
			s.Reports[spec.Name] = r
		}
		path := filepath.Join(dir, name)
		if err := load.WriteJSON(path, s); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := set("a.json", 100)
	if err := compareFiles(base, set("same.json", 104)); err != nil {
		t.Errorf("a 4%% move inside the bound: %v", err)
	}
	if err := compareFiles(base, set("worse.json", 140)); err == nil {
		t.Error("a 40% slowdown was not reported as worse")
	}
}
