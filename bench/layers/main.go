// Command layers is the traced half of the GeoSIR benchmark: bench hands
// it every --trace 1 run. It plays a shortened untraced phase for the
// counts, then replays the head of the workload's query list with one
// client and re-executes each request layer by layer, in call-tree order,
// recording one span per call, and finally times the unit operations the
// kernel is made of. It is a binary of its own because it imports the
// internal packages it probes: when one of their signatures changes, this
// is the program that stops compiling, and the end-to-end ledger does not.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	geosir "repro"
	"repro/bench/load"
)

// phaseShare is the share of the calibrated traffic the traced run plays
// before the replay: enough for the counts (cache warm-up, four
// compactions) while the replay and probes still fit the run's time cap.
const phaseShare = 0.4

func main() {
	var (
		workload = flag.String("workload", "", "workload to trace")
		seed     = flag.Int64("seed", 1, "traffic seed")
		seconds  = flag.Float64("seconds", load.RunSeconds, "length the frozen request counts are scaled to")
		_        = flag.Int("trace", 1, "always 1 here")
	)
	flag.Parse()
	runtime.GOMAXPROCS(2)
	if err := run(*workload, *seed, *seconds, load.BaseImages); err != nil {
		fmt.Fprintln(os.Stderr, "bench/layers:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, images int) error {
	spec, ok := load.SpecByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	dir := filepath.Join(".bench_build/data", fmt.Sprintf("%s-layers-%d", name, os.Getpid()))
	defer os.RemoveAll(dir)
	scaled := spec.Scaled(seconds * phaseShare)
	scaled.TraceRequests = spec.Scaled(seconds).TraceRequests
	r, err := load.Execute(load.Config{
		Spec: scaled, Seed: seed, Seconds: seconds, Images: images, WorkDir: dir, SetupReps: 1, Traced: true,
	})
	if err != nil {
		return err
	}
	defer r.Env.Close()
	se, ok := r.Env.Srv.Serving().(*geosir.ShardedEngine)
	if !ok {
		return fmt.Errorf("daemon serves a %T, not a sharded engine", r.Env.Srv.Serving())
	}
	ref, err := reference(r.Base)
	if err != nil {
		return err
	}
	spans, err := replay(r, se, ref)
	if err != nil {
		return err
	}
	if err := writeSpans(filepath.Join(load.OutDir, name+".trace.jsonl"), spans); err != nil {
		return err
	}
	if err := probe(r, se); err != nil {
		return err
	}
	r.Report.FillLayers()
	return load.Finish(r.Report, r.Report.PerLayer, load.LayerNames)
}

// reference builds the base as one unsharded engine: what sharded answers
// must equal byte for byte, and the denominator of shard.amplification.
func reference(b *load.Base) (*geosir.Engine, error) {
	e := geosir.New(geosir.DefaultOptions())
	for _, im := range b.Images {
		if err := e.AddImage(im.ID, im.Shapes); err != nil {
			return nil, err
		}
	}
	return e, e.Freeze()
}
