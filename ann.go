package geosir

import (
	"fmt"

	"repro/internal/annindex"
	"repro/internal/core"
	"repro/internal/geom"
)

// AnnMode selects how the MinHash/LSH candidate tier (internal/annindex,
// built at Freeze) participates in a Search.
type AnnMode int

const (
	// AnnOff (the zero value) ignores the ANN tier entirely.
	AnnOff AnnMode = iota
	// AnnApprox answers ModeAuto/ModeApproximate/ModeSketch requests
	// from the ANN candidate set alone: probed buckets (extended to a
	// minimum candidate floor by a signature scan) are scored exactly by
	// the bounded evaluators, unprobed shapes are skipped. Sublinear in
	// the base's geometry at a measured recall (BenchmarkAnn*; the ledger's
	// recall_at_k on approx_zipf_cached).
	// ModeExact ignores it — its contract is exactness — and answers as
	// under AnnOff.
	AnnApprox
)

// String names the mode for logs and wire formats.
func (m AnnMode) String() string {
	switch m {
	case AnnOff:
		return "off"
	case AnnApprox:
		return "approx"
	}
	return fmt.Sprintf("ann(%d)", int(m))
}

// ParseAnnMode maps an ANN mode name back to its AnnMode value.
func ParseAnnMode(s string) (AnnMode, error) {
	switch s {
	case "", "off":
		return AnnOff, nil
	case "approx", "approximate":
		return AnnApprox, nil
	}
	return 0, fmt.Errorf("geosir: unknown ann mode %q", s)
}

// annMinShapes is the candidate floor of a single-shape AnnApprox
// search: enough shapes that the exact top-k has headroom to be found
// among the candidates.
func annMinShapes(k int) int {
	if n := 12 * k; n > 64 {
		return n
	}
	return 64
}

// annCapShapes bounds how many of the ranked candidates an approximate
// search evaluates. Probe returns the *whole* bucket union best-first —
// on bases dense with near-duplicates that union can approach the full
// shape count, which would silently degrade the approximate path back
// to a linear scan. The cap keeps the evaluated set proportional to the
// floor, preserving the sublinear claim; recall relies on agreement
// ranking putting the true neighbors in this prefix (BenchmarkAnn*).
func annCapShapes(minShapes int) int { return 2 * minShapes }

// annSketchMinShapes is the per-sketch-shape candidate floor. Sketch
// ranking drops images lacking a counterpart for any sketch shape, so
// each shape's candidates must cover the top images of the whole
// sketch; the floor is correspondingly wider.
func annSketchMinShapes(k int) int {
	if n := 16 * k; n > 96 {
		return n
	}
	return 96
}

// annPreload carries a persisted ANN section from Load to Freeze, where
// it is adopted (skipping signature computation) if it still matches
// the rebuilt entry count.
type annPreload struct {
	params annindex.Params
	sigs   []uint64
	n      int
}

// buildANN builds (or adopts the preloaded) candidate-generation index.
// Called under Freeze, after the core base froze; deterministic, so a
// rebuilt index is identical to a persisted one.
func (e *Engine) buildANN() {
	base := e.db.Base()
	n := base.NumEntries()
	if pre := e.annPre; pre != nil && pre.n == n {
		shapeOf := make([]int32, n)
		for i := 0; i < n; i++ {
			shapeOf[i] = int32(base.Entry(i).ShapeID)
		}
		e.ann = annindex.FromSignatures(pre.params, pre.sigs, shapeOf)
	} else {
		e.ann = annindex.Build(annindex.DefaultParams(), n, func(i int) (geom.Poly, int32) {
			en := base.Entry(i)
			return en.Poly, int32(en.ShapeID)
		})
	}
	e.annPre = nil
}

// annSignatures returns the signature family to persist: the frozen
// index's if one exists, a preloaded section's if the engine was loaded
// but never frozen, and otherwise a transient recomputation — so the
// snapshot encoding stays canonical whether or not Freeze ran.
func (e *Engine) annSignatures() (annindex.Params, []uint64, int) {
	if e.ann != nil {
		return e.ann.Params(), e.ann.Signatures(), e.ann.NumEntries()
	}
	if pre := e.annPre; pre != nil {
		return pre.params, pre.sigs, pre.n
	}
	base := e.db.Base()
	n := base.NumEntries()
	p := annindex.DefaultParams()
	sigs := annindex.ComputeSignatures(p, n, func(i int) geom.Poly { return base.Entry(i).Poly })
	return p, sigs, n
}

// ANNIndex exposes the candidate-generation index for advanced use
// (nil before Freeze).
func (e *Engine) ANNIndex() *annindex.Index { return e.ann }

// annStats is the accounting of one probe of the tier.
func annStats(probes, candidates int) Stats {
	return Stats{UsedANN: true, ANNProbes: probes, ANNCandidates: candidates}
}

// annCandidates is the candidate set of an approximate search: bucket
// probes plus the signature-scan floor of minShapes, best-first, capped
// (annCapShapes). It also returns the number of buckets probed.
func (e *Engine) annCandidates(pq *core.PreparedQuery, minShapes int) ([]int, int) {
	cand := e.ann.Probe(e.ann.Signature(pq.Entry().Poly), minShapes)
	shapes := cand.Shapes
	if max := annCapShapes(minShapes); len(shapes) > max {
		shapes = shapes[:max]
	}
	return shapes, cand.Probes
}

// addANN folds another stage's (or part's) ANN accounting and block reads
// into s.
func (s *Stats) addANN(o Stats) {
	s.UsedANN = s.UsedANN || o.UsedANN
	s.ANNProbes += o.ANNProbes
	s.ANNCandidates += o.ANNCandidates
	s.BlockReads += o.BlockReads
}
