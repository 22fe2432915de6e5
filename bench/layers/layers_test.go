package main

import (
	"encoding/json"
	"os"
	"testing"

	"repro/bench/load"
)

func TestMain(m *testing.M) {
	if err := os.Chdir("../.."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// TestSmoke traces all four workloads at demo-20: the replay must agree
// with the engines it re-executes, write its spans, and fill the whole
// per-layer ledger.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four daemons")
	}
	for _, spec := range load.Specs {
		if err := run(spec.Name, 7, 1, 20); err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		raw, err := os.ReadFile(load.ReportPath(spec.Name, true))
		if err != nil {
			t.Fatal(err)
		}
		var r load.Report
		if err := json.Unmarshal(raw, &r); err != nil {
			t.Fatal(err)
		}
		if !r.Correct || r.Failed > 0 {
			t.Errorf("%s: correct %t, failed %d: %v", spec.Name, r.Correct, r.Failed, r.Problems)
		}
		for _, nu := range load.LayerNames {
			if m, ok := r.PerLayer[nu[0]]; !ok || m.Unit != nu[1] {
				t.Errorf("%s: metric %s = %+v (present %t), want unit %s", spec.Name, nu[0], m, ok, nu[1])
			}
		}
		if fi, err := os.Stat("bench/out/" + spec.Name + ".trace.jsonl"); err != nil || fi.Size() == 0 {
			t.Errorf("%s: no span file: %v", spec.Name, err)
		}
	}
}
