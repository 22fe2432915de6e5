package load

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"

	geosir "repro"
)

// Config is one run of one workload.
type Config struct {
	Spec    Spec // already Scaled
	Seed    int64
	Seconds float64
	Images  int
	// WorkDir receives the snapshot directories; Execute creates it and
	// the caller removes it.
	WorkDir string
	// SetupReps is how many times the set-up runs; setup_s is the median.
	SetupReps int
	// Traced also fills the count half of the per-layer ledger.
	Traced bool
}

// Run is an executed workload with its daemon still serving, so the
// traced replay can go on against the same state.
type Run struct {
	Report  *Report
	Env     *Env
	Base    *Base
	Traffic *Traffic
	Phase   Phase
}

// openCycles is how many open→first-answer cycles open_ms is the median of.
const openCycles = 15

// Execute sets the workload up, plays its timed phase untraced, checks
// every answer and fills the end-to-end ledger.
func Execute(cfg Config) (*Run, error) {
	spec := cfg.Spec
	r := &Report{
		Workload: spec.Name, Why: spec.Why, Seed: cfg.Seed, Seconds: cfg.Seconds, Traced: cfg.Traced,
		Host: ReadHostInfo(), FlushPolicy: "read-only snapshot, no writes",
		Correct: true, Samples: map[string]int{}, EndToEnd: Metrics{}, Raw: Metrics{}, PerLayer: Metrics{},
	}
	if spec.Ingest {
		r.FlushPolicy = "WAL fsync per acknowledged write (IngestOptions.NoSync: false), manual compaction"
	}
	traffic := NewTraffic(spec, NewBase(cfg.Images), cfg.Seed)
	r.InputDigest = traffic.Digest

	var env *Env
	var base *Base
	var setup SetupTimes
	var setups []float64
	for rep := 0; rep < cfg.SetupReps; rep++ {
		if env != nil {
			if err := env.Close(); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(env.Dir); err != nil {
				return nil, err
			}
			// Drop the previous engine before building the next, so that the
			// resident-set peak is one set-up's, not a sum that depends on
			// when the collector happened to run.
			env, base = nil, nil
			debug.FreeOSMemory()
		}
		dir := filepath.Join(cfg.WorkDir, fmt.Sprintf("snapshot-%d", rep))
		var err error
		env, base, setup, err = SetUp(spec, cfg.Images, dir, traffic)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", rep, err)
		}
		setups = append(setups, setup.Seconds())
	}
	r.Samples["setup"] = len(setups)
	r.EndToEnd.Set("setup_s", Median(setups), "s")
	r.EndToEnd.Set("snapshot_bytes_per_image", float64(setup.SnapshotBytes)/float64(len(base.Images)), "B")

	meter := NewSpeedometer()
	opens, err := OpenCycles(env.Dir, traffic.Queries[0].Shape, geosir.LoadModeMmap, meter, openCycles)
	if err != nil {
		return nil, fmt.Errorf("open cycle: %w", err)
	}
	r.Samples["open"] = len(opens)
	r.EndToEnd.Set("open_ms", Median(opens)/meter.Speed().Mean, "ms")
	r.Raw.Set("open_ms", Median(opens), "ms")
	if cfg.Traced {
		for _, m := range []struct {
			name string
			mode geosir.LoadMode
		}{{"persist.open_heap_ms", geosir.LoadModeHeap}, {"persist.open_mmap_ms", geosir.LoadModeMmap}} {
			v, err := OpenCycles(env.Dir, geosir.Shape{}, m.mode, nil, 3)
			if err != nil {
				return nil, fmt.Errorf("open cycle: %w", err)
			}
			r.PerLayer.Set(m.name, Median(v), "ms")
		}
	}

	var phase Phase
	if spec.Ingest {
		phase = env.RunIngest(traffic)
	} else {
		phase = env.RunSearches(traffic)
	}
	statz, err := env.Statz()
	if err != nil {
		return nil, err
	}
	work := r.evaluate(traffic, phase, spec.Ingest)
	if cfg.Traced {
		r.layerCounts(phase, statz, setup, work)
	}
	if spec.Ingest {
		// Durability: restart the daemon on the directory (WAL replay) and
		// read every acknowledged write back.
		if err := env.Close(); err != nil {
			return nil, err
		}
		if env, err = Serve(spec, env.Dir); err != nil {
			return nil, fmt.Errorf("restart for read-back: %w", err)
		}
		lost, err := r.readBack(env, base, traffic, phase)
		if err != nil {
			return nil, err
		}
		after, err := env.Statz()
		if err != nil {
			return nil, err
		}
		if cfg.Traced {
			replayed := 0
			if after.Ingest != nil {
				replayed = after.Ingest.Replayed
			}
			r.ingestCounts(traffic, phase, statz, lost, replayed)
			if after.Snapshot != nil {
				r.PerLayer.Set("ingest.shards_end", float64(len(after.Snapshot.Shards)), "count")
			}
		}
	}
	if v := r.EndToEnd["recall_at_k"].Value; v < spec.MinRecall {
		r.Problem("recall_at_k %.4f below the workload's floor %.2f", v, spec.MinRecall)
	}
	if r.Failed > 0 {
		r.Correct = false
	}
	r.EndToEnd.Set("peak_rss_mb", PeakRSSMiB(), "MiB")
	return &Run{Report: r, Env: env, Base: base, Traffic: traffic, Phase: phase}, nil
}

// readBack asks the restarted daemon for every image an acknowledged
// write touched: kept inserts must be found at distance 0, deleted images
// must be gone. It returns the number of acknowledged writes the restart
// lost, which also count as failed operations, and sets the result digest
// (the final state is the only timing-free answer this workload has).
func (r *Report) readBack(env *Env, base *Base, t *Traffic, p Phase) (int, error) {
	acked := map[int]bool{} // write index → acknowledged
	for _, s := range p.Writes {
		acked[int(s.Query)] = s.Status == http.StatusOK
	}
	deleted := map[int]bool{} // image id → an acknowledged delete removed it
	for i, w := range t.Writes {
		if !w.Insert && acked[i] {
			deleted[w.ID] = true
		}
	}
	lost := 0
	first := map[queryKey]string{}
	check := func(id int, probe []byte, want bool) error {
		s := env.Search(probe)
		r.Attempted++
		if s.Status != http.StatusOK {
			r.Failed++
			r.Problem("read-back of image %d answered %d: %.120s", id, s.Status, s.Body)
			return nil
		}
		a, err := Decode(s.Body)
		if err != nil {
			return fmt.Errorf("read-back of image %d: %w", id, err)
		}
		first[queryKey{true, int32(len(first))}] = a.Canon
		found := false
		for _, m := range a.Matches {
			if m.ImageID == id && m.Distance < 1e-9 {
				found = true
			}
		}
		if found != want {
			lost++
			r.Failed++
			r.Problem("acknowledged write lost across restart: image %d present=%t, want %t", id, found, want)
		}
		return nil
	}
	for i, w := range t.Writes {
		if !w.Insert || !acked[i] {
			continue
		}
		if err := check(w.ID, w.Probe, !deleted[w.ID]); err != nil {
			return lost, err
		}
	}
	for _, im := range base.Images {
		if deleted[im.ID] {
			if err := check(im.ID, EncodeSearch(im.Shapes[0], "approximate", "", ""), false); err != nil {
				return lost, err
			}
		}
	}
	r.Samples["read_back"] = len(first)
	r.ResultDigest = digestAnswers(first)
	return lost, nil
}
