package annindex

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/synth"
)

// probeFixture is the demo-200 base (`geosir -demo 200`), all of it or
// the images core.ShardFor puts on one of 8 shards, as an index over the
// α-diameter copies of its shapes, and the signatures of distorted base
// shapes as queries.
func probeFixture(b *testing.B, shard int) (*Index, [][]uint64) {
	b.Helper()
	spec := synth.PaperSpec(0.02, 1)
	spec.Images = 200
	images := synth.GenerateBase(spec)
	var polys []geom.Poly
	var shapeOf []int32
	shapes := int32(0)
	for _, im := range images {
		if shard >= 0 && core.ShardFor(im.ID, 8) != shard {
			continue
		}
		for _, sh := range im.Shapes {
			entries, err := core.Normalize(sh, core.DefaultOptions().Alpha)
			if err != nil {
				continue
			}
			for _, en := range entries {
				polys = append(polys, en.Poly)
				shapeOf = append(shapeOf, shapes)
			}
			shapes++
		}
	}
	ix := Build(DefaultParams(), shapeOf, func(i int) geom.Poly { return polys[i] })
	var sigs [][]uint64
	for _, q := range synth.Queries(rand.New(rand.NewSource(7)), images, 64, 0.005) {
		if en, err := core.NormalizeCanonical(q); err == nil {
			sigs = append(sigs, ix.Signature(en.Poly))
		}
	}
	return ix, sigs
}

// probeSink keeps the benchmarked probes from being optimized away.
var probeSink Candidates

// BenchmarkAnnProbe times Probe alone, the query's signature computed off
// the clock, at the floor of a k = 5 search (64 shapes), on one of 8
// demo-200 shards (shard 0: 2,402 entries) and on the whole base (18,012).
// It reports ns per ranked entry: every entry of the bucket union, or of
// the index when the union misses the floor.
func BenchmarkAnnProbe(b *testing.B) {
	const minShapes = 64
	for _, fx := range []struct {
		name  string
		shard int
	}{{"shard", 0}, {"base", -1}} {
		ix, sigs := probeFixture(b, fx.shard)
		ranks := make([]int, len(sigs))
		for i, sig := range sigs {
			if _, scanned := referenceProbe(ix, sig, minShapes); scanned {
				ranks[i] = ix.NumEntries()
			} else {
				ranks[i] = len(ix.Probe(sig, minShapes).Entries)
			}
		}
		b.Run(fx.name, func(b *testing.B) {
			ranked := 0
			for i := 0; i < b.N; i++ {
				ranked += ranks[i%len(sigs)]
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				probeSink = ix.Probe(sigs[i%len(sigs)], minShapes)
			}
			b.StopTimer()
			b.ReportMetric(float64(ix.NumEntries()), "entries")
			b.ReportMetric(float64(ranked)/float64(b.N), "ranked/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ranked), "ns/ranked")
		})
	}
}
