package load

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// OutDir receives the report, set, repeat and trace files, relative to
// the repo root the benchmark runs from.
const OutDir = "bench/out"

// ReportPath is where a workload's report lands.
func ReportPath(workload string, traced bool) string {
	if traced {
		return filepath.Join(OutDir, workload+".layers.json")
	}
	return filepath.Join(OutDir, workload+".json")
}

// WriteJSON writes v indented, creating the directory.
func WriteJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Finish prints the ledger m by name and unit, writes the report file and
// ends standard output with the contract's one-line result.
func Finish(r *Report, m Metrics, names [][2]string) error {
	w := os.Stdout
	fmt.Fprintf(w, "workload %s  seed %d  seconds %g  traced %t\n", r.Workload, r.Seed, r.Seconds, r.Traced)
	h := r.Host
	fmt.Fprintf(w, "  host: commit %s  %s  nproc %d  GOMAXPROCS %d  %s  loadavg %.2f  noisy_host %t\n",
		h.Commit, h.GoVersion, h.NumCPU, h.GOMAXPROCS, h.CPUModel, h.LoadAvg1, h.NoisyHost)
	fmt.Fprintf(w, "  flush policy: %s\n", r.FlushPolicy)
	fmt.Fprintf(w, "  input_digest  %s\n  result_digest %s\n", r.InputDigest, r.ResultDigest)
	for _, nu := range names {
		fmt.Fprintf(w, "  %-38s %16.4f %s\n", nu[0], m[nu[0]].Value, m[nu[0]].Unit)
	}
	if !r.Traced {
		fmt.Fprintf(w, "  as the clock read them (host_speed %.4f):", r.Raw["host_speed"].Value)
		for _, nu := range names {
			if v, ok := r.Raw[nu[0]]; ok {
				fmt.Fprintf(w, " %s=%.4f", nu[0], v.Value)
			}
		}
		fmt.Fprintln(w)
	}
	keys := make([]string, 0, len(r.Samples))
	for k := range r.Samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprint(w, "  samples:")
	for _, k := range keys {
		fmt.Fprintf(w, " %s=%d", k, r.Samples[k])
	}
	fmt.Fprintf(w, "\n  attempted %d  failed %d  correct %t\n", r.Attempted, r.Failed, r.Correct)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
	if err := WriteJSON(ReportPath(r.Workload, r.Traced), r); err != nil {
		return err
	}
	return contractLine(w, r, m, names)
}

// contractLine prints the driver's result: exactly the keys correct,
// attempted, failed and metrics, the metrics being exactly the ledger
// asked for.
func contractLine(w io.Writer, r *Report, m Metrics, names [][2]string) error {
	out := struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   Metrics `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, Metrics{}}
	for _, nu := range names {
		v, ok := m[nu[0]]
		if !ok {
			return fmt.Errorf("metric %s was not measured", nu[0])
		}
		out.Metrics[nu[0]] = v
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
