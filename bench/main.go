// Command bench is GeoSIR's benchmark. With --workload it runs one
// workload in this process and ends with the contract's one-line JSON
// result; without, it runs a set: every workload in its own process,
// untraced and then traced, cross-checked. --repeat N runs N sets and
// records the noise band; --compare A B labels what moved between two of
// its own output files. Run it through bench/run.sh, from the repo root.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"

	"repro/bench/load"
)

// workDir holds the snapshot directories of running workloads.
const workDir = ".bench_build/data"

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload in this process (default: a set of all four, one process each)")
		seed     = flag.Int64("seed", 1, "traffic seed; the base is fixed")
		seconds  = flag.Float64("seconds", load.RunSeconds, "length the frozen request counts are scaled to")
		trace    = flag.Int("trace", -1, "0 end-to-end ledger, 1 per-layer ledger from the traced replay (default: 0 for one workload, both for a set)")
		repeat   = flag.Int("repeat", 0, "run this many sets on seeds seed, seed+1, ... and write the noise band")
		compare  = flag.Bool("compare", false, "compare two set or repeat files given as arguments")
	)
	flag.Parse()
	// Two clients on two cores, whatever the host has: the counts were
	// calibrated at this width.
	runtime.GOMAXPROCS(2)

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = errors.New("--compare takes two files")
		} else {
			err = compareFiles(flag.Arg(0), flag.Arg(1))
		}
	case *workload != "" && *trace == 1:
		err = runLayers(os.Args[1:])
	case *workload != "":
		err = runOne(*workload, *seed, *seconds)
	case *repeat > 0:
		err = runRepeat(*repeat, *seed, *seconds)
	default:
		_, err = runSet(*seed, *seconds, *trace != 0)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne is the contract's untraced run of one workload.
func runOne(name string, seed int64, seconds float64) error {
	spec, ok := load.SpecByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	dir := filepath.Join(workDir, fmt.Sprintf("%s-%d", name, os.Getpid()))
	defer os.RemoveAll(dir)
	run, err := load.Execute(load.Config{
		Spec: spec.Scaled(seconds), Seed: seed, Seconds: seconds, Images: load.BaseImages, WorkDir: dir, SetupReps: 5,
	})
	if err != nil {
		return err
	}
	if err := run.Env.Close(); err != nil {
		return err
	}
	return load.Finish(run.Report, run.Report.EndToEnd, load.EndToEndNames)
}

// runLayers hands a --trace 1 run to the layers binary run.sh built next
// to this one: apart, so that its imports of internal packages cannot
// break this one.
func runLayers(args []string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(filepath.Join(filepath.Dir(self), "layers"), args...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	return cmd.Run()
}

// Set is one run of all four workloads.
type Set struct {
	Seed    int64                   `json:"seed"`
	Seconds float64                 `json:"seconds"`
	Correct bool                    `json:"correct"`
	Checks  []string                `json:"checks"`
	Reports map[string]*load.Report `json:"reports"`
}

// runSet runs every workload in its own OS process, so peak RSS and CPU
// are per workload, then applies the checks that span workloads.
func runSet(seed int64, seconds float64, traced bool) (*Set, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	set := &Set{Seed: seed, Seconds: seconds, Correct: true, Reports: map[string]*load.Report{}}
	for _, spec := range load.Specs {
		for _, tr := range []bool{false, true} {
			if tr && !traced {
				continue
			}
			args := []string{"--workload", spec.Name, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0"}
			if tr {
				args[len(args)-1] = "1"
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return nil, fmt.Errorf("%s (trace %t): %w", spec.Name, tr, err)
			}
			var r load.Report
			if err := readJSON(load.ReportPath(spec.Name, tr), &r); err != nil {
				return nil, err
			}
			if !tr {
				set.Reports[spec.Name] = &r
				continue
			}
			// The traced run contributes its ledger and its verdict, never
			// an end-to-end number.
			u := set.Reports[spec.Name]
			u.PerLayer = r.PerLayer
			if !r.Correct {
				u.Correct = false
				u.Problems = append(u.Problems, r.Problems...)
			}
		}
	}
	set.check()
	path := filepath.Join(load.OutDir, fmt.Sprintf("set-%d.json", seed))
	if err := load.WriteJSON(path, set); err != nil {
		return nil, err
	}
	fmt.Printf("\nset seed %d: correct %t, written to %s\n", seed, set.Correct, path)
	for _, c := range set.Checks {
		fmt.Println("  " + c)
	}
	if !set.Correct {
		return set, errors.New("set failed its checks")
	}
	return set, nil
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// check applies the cross-workload checks: sharded answers byte-identical
// to single-engine answers over the shared query list, and the workloads
// showing what they were chosen to show.
func (s *Set) check() {
	note := func(ok bool, format string, args ...any) {
		verdict := "ok    "
		if !ok {
			verdict = "FAILED"
			s.Correct = false
		}
		s.Checks = append(s.Checks, verdict+" "+fmt.Sprintf(format, args...))
	}
	for _, spec := range load.Specs {
		r := s.Reports[spec.Name]
		note(r.Correct, "%s: own checks (failed %d of %d)", spec.Name, r.Failed, r.Attempted)
	}
	one, eight := s.Reports["exact_1shard"], s.Reports["exact_8shard"]
	note(one.ResultDigest == eight.ResultDigest, "exact_8shard result_digest equals exact_1shard's (sharded = single)")
	amp := eight.EndToEnd["cpu_ms_per_op"].Value / one.EndToEnd["cpu_ms_per_op"].Value
	s.Checks = append(s.Checks, fmt.Sprintf("info   set shard.amplification %.3f (cpu_ms_per_op %.3f / %.3f)",
		amp, eight.EndToEnd["cpu_ms_per_op"].Value, one.EndToEnd["cpu_ms_per_op"].Value))
	if eight.PerLayer == nil {
		return
	}
	note(amp >= 2, "shard amplification is there to remove (>= 2)")
	for _, spec := range load.Specs {
		m := s.Reports[spec.Name].PerLayer
		if spec.CacheBytes > 0 {
			note(m["qcache.hit_share"].Value > 0.5 && m["qcache.evictions"].Value > 0,
				"%s: cache used and overflowing (hit_share %.3f, evictions %.0f)", spec.Name, m["qcache.hit_share"].Value, m["qcache.evictions"].Value)
		} else {
			note(m["qcache.hit_share"].Value == 0 && m["qcache.evictions"].Value == 0 && m["qcache.bytes"].Value == 0,
				"%s: cache counters zero", spec.Name)
		}
		if spec.Ingest {
			note(m["ingest.compactions"].Value >= 3 && m["ingest.lost_acked_writes"].Value == 0,
				"%s: %.0f compactions, %.0f lost acknowledged writes", spec.Name, m["ingest.compactions"].Value, m["ingest.lost_acked_writes"].Value)
		}
	}
	note(one.PerLayer["trace.unaccounted_share"].Value <= 0.25,
		"exact_1shard trace reconciles (unaccounted_share %.3f <= 0.25)", one.PerLayer["trace.unaccounted_share"].Value)
}
