package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/bench/load"
)

// Band is one end-to-end metric of one workload over the sets of a
// repeat: the noise band a later comparison is read against.
type Band struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	// Spread is (q3 - q1) / median, the driver's acceptance statistic;
	// Range is (max - min) / median.
	Spread float64 `json:"spread"`
	Range  float64 `json:"range"`
}

// Repeat is the output of --repeat.
type Repeat struct {
	Seeds        []int64                    `json:"seeds"`
	Seconds      float64                    `json:"seconds"`
	InputDigests map[string][]string        `json:"input_digests"`
	Bands        map[string]map[string]Band `json:"bands"` // workload → metric
}

func newBand(unit string, vs []float64) Band {
	b := Band{Unit: unit, Values: vs, Median: load.Median(append([]float64(nil), vs...))}
	b.Q1, b.Q3 = load.Quartiles(vs)
	lo, hi := vs[0], vs[0]
	for _, v := range vs {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if b.Median != 0 {
		b.Spread, b.Range = (b.Q3-b.Q1)/b.Median, (hi-lo)/b.Median
	}
	return b
}

// runRepeat runs n untraced sets on consecutive seeds, as the driver
// does, and writes each end-to-end metric's band.
func runRepeat(n int, seed int64, seconds float64) error {
	var sets []*Set
	for i := 0; i < n; i++ {
		set, err := runSet(seed+int64(i), seconds, false)
		if err != nil {
			return err
		}
		sets = append(sets, set)
	}
	rep := bandsOf(sets)
	rep.Seconds = seconds
	path := filepath.Join(load.OutDir, fmt.Sprintf("repeat-%d.json", seed))
	if err := load.WriteJSON(path, rep); err != nil {
		return err
	}
	bounds, err := readBounds()
	if err != nil {
		return err
	}
	fmt.Printf("\nrepeat of %d sets, written to %s\n", n, path)
	fmt.Printf("%-22s %-26s %14s %9s %9s %7s\n", "workload", "metric", "median", "spread", "range", "bound")
	for _, spec := range load.Specs {
		for _, nu := range load.EndToEndNames {
			b := rep.Bands[spec.Name][nu[0]]
			flag := ""
			if b.Spread > bounds[nu[0]].Bound {
				flag = "  spread exceeds the bound: lengthen the workload or swap the metric"
			}
			fmt.Printf("%-22s %-26s %14.4f %9.4f %9.4f %7.2f%s\n", spec.Name, nu[0], b.Median, b.Spread, b.Range, bounds[nu[0]].Bound, flag)
		}
	}
	return nil
}

func bandsOf(sets []*Set) *Repeat {
	rep := &Repeat{InputDigests: map[string][]string{}, Bands: map[string]map[string]Band{}}
	for _, s := range sets {
		rep.Seeds = append(rep.Seeds, s.Seed)
	}
	for _, spec := range load.Specs {
		rep.Bands[spec.Name] = map[string]Band{}
		for _, s := range sets {
			rep.InputDigests[spec.Name] = append(rep.InputDigests[spec.Name], s.Reports[spec.Name].InputDigest)
		}
		for _, nu := range load.EndToEndNames {
			var vs []float64
			for _, s := range sets {
				vs = append(vs, s.Reports[spec.Name].EndToEnd[nu[0]].Value)
			}
			rep.Bands[spec.Name][nu[0]] = newBand(nu[1], vs)
		}
	}
	return rep
}

// bound is one end_to_end entry of BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// readBounds reads the regression bounds the benchmark fixed.
func readBounds() (map[string]bound, error) {
	var doc struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := readJSON("BENCHMARK.json", &doc); err != nil {
		return nil, err
	}
	out := map[string]bound{}
	for _, b := range doc.EndToEnd {
		out[b.Name] = b
	}
	return out, nil
}

// readBands loads a repeat file, or a set file as a repeat of one.
func readBands(path string) (*Repeat, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var probe struct {
		Bands json.RawMessage `json:"bands"`
	}
	if err := json.Unmarshal(raw, &probe); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if probe.Bands != nil {
		var rep Repeat
		return &rep, json.Unmarshal(raw, &rep)
	}
	var set Set
	if err := json.Unmarshal(raw, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, spec := range load.Specs {
		if set.Reports[spec.Name] == nil {
			return nil, fmt.Errorf("%s: neither a set nor a repeat file (no %s report)", path, spec.Name)
		}
	}
	return bandsOf([]*Set{&set}), nil
}

// compareFiles labels every end-to-end metric × workload between a
// baseline A and a candidate B by the choosing-metrics rule: a spread
// wider than the bound resolves nothing; otherwise worse means the median
// moved the wrong way by more than the bound, and better means it moved
// the right way by more than the spread between A's own runs (a single
// set has no spread, so the bound stands in for it).
func compareFiles(pathA, pathB string) error {
	a, err := readBands(pathA)
	if err != nil {
		return err
	}
	b, err := readBands(pathB)
	if err != nil {
		return err
	}
	bounds, err := readBounds()
	if err != nil {
		return err
	}
	counts := map[string]int{}
	fmt.Printf("%-22s %-26s %14s %14s %9s %9s %7s  %s\n", "workload", "metric", "A median", "B median", "change", "spread", "bound", "verdict")
	for _, spec := range load.Specs {
		da, db := a.InputDigests[spec.Name], b.InputDigests[spec.Name]
		sort.Strings(da)
		sort.Strings(db)
		if fmt.Sprint(da) != fmt.Sprint(db) {
			return fmt.Errorf("%s: input digests differ, the two files are not comparable", spec.Name)
		}
		for _, nu := range load.EndToEndNames {
			ba, bb, bd := a.Bands[spec.Name][nu[0]], b.Bands[spec.Name][nu[0]], bounds[nu[0]]
			worse := (bb.Median - ba.Median) / ba.Median // positive = got worse
			if bd.Better == "higher" {
				worse = -worse
			}
			spread := ba.Spread
			if bb.Spread > spread {
				spread = bb.Spread
			}
			gainFloor := spread
			if len(ba.Values) < 2 {
				gainFloor = bd.Bound
			}
			verdict := "same"
			switch {
			case spread > bd.Bound:
				verdict = "unresolved"
			case worse > bd.Bound:
				verdict = "worse"
			case -worse > gainFloor:
				verdict = "better"
			}
			counts[verdict]++
			fmt.Printf("%-22s %-26s %14.4f %14.4f %+8.2f%% %8.2f%% %6.0f%%  %s\n",
				spec.Name, nu[0], ba.Median, bb.Median, 100*(bb.Median-ba.Median)/ba.Median, 100*spread, 100*bd.Bound, verdict)
		}
	}
	fmt.Printf("same %d  better %d  worse %d  unresolved %d\n", counts["same"], counts["better"], counts["worse"], counts["unresolved"])
	if counts["worse"]+counts["unresolved"] > 0 {
		return errors.New("comparison has worse or unresolved metrics")
	}
	return nil
}
