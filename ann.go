package geosir

import (
	"fmt"
	"sync/atomic"

	"repro/internal/annindex"
	"repro/internal/geom"
)

// AnnMode selects how the MinHash/LSH candidate tier (internal/annindex,
// derived on an engine's first probe) participates in a Search.
type AnnMode int

const (
	// AnnOff (the zero value) ignores the ANN tier entirely.
	AnnOff AnnMode = iota
	// AnnApprox answers ModeAuto/ModeApproximate/ModeSketch requests
	// from the ANN candidate set alone: probed buckets (extended to a
	// minimum candidate floor by a signature scan) are scored exactly by
	// the bounded evaluators, unprobed shapes are skipped. Not sublinear:
	// the probe compares signatures over its whole bucket union (DESIGN.md
	// §4.10), at a measured recall (BenchmarkAnn*; the ledger's
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
// to a linear scan of the geometry. The cap keeps the exact work
// proportional to the floor; recall relies on agreement ranking putting
// the true neighbors in this prefix (BenchmarkAnn*).
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

// buildANN derives the engine's candidate-generation index from its frozen
// base: on the first ANNIndex call, never at Freeze or at a snapshot's open,
// and never stored — it is deterministic, so every derivation is the same.
func (e *Engine) buildANN() {
	base := e.db.Base()
	// A copy's shape is its meta: no copy is derived for it.
	shapeOf := make([]int32, base.NumEntries())
	for i := range shapeOf {
		shapeOf[i] = int32(base.EntryShape(i))
	}
	e.ann = annindex.Build(shapeOf, func(i int) geom.Poly { return base.Entry(i).Poly })
	annBuilds.Add(1)
}

// annBuilds and annSigns count the indexes derived and the query shapes
// signed in this process, for the tests that pin when each happens.
var annBuilds, annSigns atomic.Int64

// ANNIndex returns the candidate-generation index, derived on the first
// call (nil before Freeze). Safe for concurrent callers: one derives it,
// the others wait for it.
func (e *Engine) ANNIndex() *annindex.Index {
	if !e.frozen {
		return nil
	}
	e.annOnce.Do(e.buildANN)
	return e.ann
}

// annStats is the accounting of one probe of the tier.
func annStats(probes, candidates int) Stats {
	return Stats{UsedANN: true, ANNProbes: probes, ANNCandidates: candidates}
}

// annSign signs a query shape for the ANN tier, once per request (per
// sketch shape): every part's index is of the one signature family.
func annSign(poly geom.Poly) []uint64 {
	annSigns.Add(1)
	return annindex.Sign(poly)
}

// annCandidates is the candidate set of an approximate search over the
// part's ANN index for the query signature sig (annSign): bucket probes
// plus the signature-scan floor of minShapes, best-first, capped
// (annCapShapes). It also returns the number of buckets probed.
func (p *part) annCandidates(sig []uint64, minShapes int) ([]int, int) {
	cand := p.ann().Probe(sig, minShapes)
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
