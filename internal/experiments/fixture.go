// Package experiments regenerates every figure of the paper's evaluation:
// the discrimination example of Figure 1, the distortion robustness of
// Figure 2, the hash-curve area function of Figure 5, the I/O studies of
// Figures 7 and 8 (plus the §4.2 local-optimization claim), the
// selectivity law of Figure 10, and the text's complexity claims
// (polylogarithmic retrieval, logarithmic hashing). The drivers are
// shared by cmd/experiments and by the repository's benchmarks.
package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/extstore"
	"repro/internal/geohash"
	"repro/internal/geom"
	"repro/internal/synth"
)

// Config scales an experiment fixture.
type Config struct {
	// Scale is the fraction of the paper's 10,000-image base to generate.
	Scale float64
	// Seed drives all synthetic generation.
	Seed int64
	// Queries is the size of the query workload (the paper uses 15).
	Queries int
	// QueryDistortion jitters query shapes (sketch imprecision).
	QueryDistortion float64
	// HashCurves is the curve-family size for characteristic quadruples.
	HashCurves int
	// CoreOpts tunes the matching engine; zero value uses defaults.
	CoreOpts core.Options
}

// DefaultConfig returns the configuration used by cmd/experiments: 2% of
// the paper's base (200 images) — large enough to show every trend, small
// enough to run in seconds. Pass a larger Scale to approach the paper's
// absolute numbers.
func DefaultConfig() Config {
	opts := core.DefaultOptions()
	// α = 0.065 yields the paper's ≈10 normalized copies per shape on
	// this synthetic domain (§4.1: "each shape is stored in average 10
	// times in our shape base").
	opts.Alpha = 0.065
	return Config{
		Scale:           0.02,
		Seed:            1,
		Queries:         15,
		QueryDistortion: 0.02,
		HashCurves:      50,
		CoreOpts:        opts,
	}
}

// Fixture is a generated image base with its retrieval index, external
// records, and query workload.
type Fixture struct {
	Cfg     Config
	Images  []synth.Image
	Base    *core.Base
	Family  *geohash.Family
	Records []extstore.Record
	Queries []geom.Poly
}

// BuildFixture generates the synthetic base per the paper's statistics
// (§4.1), freezes the matching index and builds its range index, computes
// the per-entry characteristic quadruples, and assembles the
// external-storage records.
func BuildFixture(cfg Config) (*Fixture, error) {
	if cfg.Scale <= 0 {
		cfg.Scale = 0.02
	}
	if cfg.Queries <= 0 {
		cfg.Queries = 15
	}
	if cfg.HashCurves <= 0 {
		cfg.HashCurves = 50
	}
	spec := synth.PaperSpec(cfg.Scale, cfg.Seed)
	images := synth.GenerateBase(spec)

	base := core.NewBase(cfg.CoreOpts)
	for _, img := range images {
		var err error
		if base, err = base.Append(img.ID, img.Shapes); err != nil {
			return nil, fmt.Errorf("experiments: adding image %d: %w", img.ID, err)
		}
	}
	// Every experiment on the fixture climbs, and the ones that time it
	// must not time the range index's build.
	base.BuildRangeIndex()

	family, err := geohash.NewFamily(cfg.HashCurves)
	if err != nil {
		return nil, err
	}

	entries := base.Entries()
	records := make([]extstore.Record, 0, len(entries))
	for ei := range entries {
		e := &entries[ei]
		if len(e.Poly.Pts) > extstore.MaxVertices {
			continue // oversized outliers are not stored externally
		}
		records = append(records, extstore.Record{
			EntryID: int32(ei),
			ShapeID: int32(e.ShapeID),
			Image:   int32(base.Shape(e.ShapeID).Image),
			Quad:    family.Characteristic(e.Poly.Pts),
			Closed:  e.Poly.Closed,
			Pts:     e.Poly.Pts,
			Inv:     e.Inv,
		})
	}

	rng := rand.New(rand.NewSource(cfg.Seed + 1000))
	queries := synth.Queries(rng, images, cfg.Queries, cfg.QueryDistortion)

	return &Fixture{
		Cfg:     cfg,
		Images:  images,
		Base:    base,
		Family:  family,
		Records: records,
		Queries: queries,
	}, nil
}

// Summary describes the fixture in the units the paper reports (§4.1).
func (f *Fixture) Summary() string {
	blocks := 0
	bytes := 0
	for i := range f.Records {
		bytes += f.Records[i].EncodedSize()
	}
	if len(f.Records) > 0 {
		blocks = (bytes + extstore.BlockSize - 1) / extstore.BlockSize
	}
	shapes := f.Base.NumShapes()
	copies := float64(f.Base.NumEntries()) / float64(max(1, shapes))
	return fmt.Sprintf(
		"images=%d shapes=%d stored-copies=%d (%.1f per shape) vertices=%d ~%d blocks (%.1f MB at 1KB blocks)",
		len(f.Images), shapes, f.Base.NumEntries(), copies,
		f.Base.NumVertices(), blocks, float64(bytes)/1e6)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
