package core

import (
	"math/rand"
	"testing"

	"repro/internal/rangesearch"
	"repro/internal/synth"
)

// TestMatchSoakAgainstScan cross-validates the fattening algorithm with
// its per-entry bounds against the exhaustive scan on a randomized base:
// whenever Match converges, its top-k must equal the oracle's (by
// distance; ties may permute ids).
func TestMatchSoakAgainstScan(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	for _, backend := range []rangesearch.Kind{rangesearch.KindKDTree, rangesearch.KindLayered} {
		rng := rand.New(rand.NewSource(99))
		opts := DefaultOptions()
		opts.Backend = backend
		opts.Alpha = 0.065
		b := NewBase(opts)
		images := synth.GenerateBase(synth.BaseSpec{
			Images: 40, MeanShapes: 3, MeanVertices: 14, Prototypes: 9,
			Distortion: 0.02, OpenFraction: 0.3, Seed: 7,
		})
		for _, img := range images {
			b = mustAppend(t, b, img.ID, img.Shapes...)
		}
		scan := NewScanMatcher(b)
		converged := 0
		for trial := 0; trial < 25; trial++ {
			src := b.Shape(rng.Intn(b.NumShapes())).Poly
			q := synth.Distort(rng, src, 0.03)
			if q.Validate() != nil {
				continue
			}
			k := 1 + rng.Intn(4)
			fast, st, err := b.Match(q, k)
			if err != nil {
				t.Fatal(err)
			}
			if !st.Converged {
				continue
			}
			converged++
			ref, err := scan.Match(q, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(fast) != len(ref) {
				t.Fatalf("%s trial %d: %d vs %d results", backend, trial, len(fast), len(ref))
			}
			for i := range ref {
				if !almostEq(fast[i].DistVertex, ref[i].DistVertex, 1e-9) {
					t.Fatalf("%s trial %d rank %d: %v vs %v",
						backend, trial, i, fast[i].DistVertex, ref[i].DistVertex)
				}
			}
		}
		if converged < 15 {
			t.Errorf("%s: only %d/25 queries converged", backend, converged)
		}
	}
}
