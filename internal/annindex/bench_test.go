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
// α-diameter copies of its shapes, with its copies' uint64 MinHash
// signatures (refSignature), and the signatures of distorted base shapes
// as queries, in both forms.
type probeFixture struct {
	ix         *Index
	shapeOf    []int32
	refs       [][]uint64
	sigs, qref [][]uint64
}

func newProbeFixture(b *testing.B, shard int) probeFixture {
	b.Helper()
	polys, shapeOf := shardCopies(shard)
	fx := probeFixture{ix: Build(shapeOf, func(i int) geom.Poly { return polys[i] }), shapeOf: shapeOf}
	for _, p := range polys {
		fx.refs = append(fx.refs, refSignature(p))
	}
	spec := synth.PaperSpec(0.02, 1)
	spec.Images = 200
	for _, q := range synth.Queries(rand.New(rand.NewSource(7)), synth.GenerateBase(spec), 64, 0.005) {
		if en, err := core.NormalizeCanonical(q); err == nil {
			fx.sigs = append(fx.sigs, Sign(en.Poly))
			fx.qref = append(fx.qref, refSignature(en.Poly))
		}
	}
	return fx
}

// shardCopies is the α-diameter copies of the demo-200 base's shapes, all
// of them (shard < 0) or those of the images on one of 8 shards, and their
// shape ids.
func shardCopies(shard int) ([]geom.Poly, []int32) {
	spec := synth.PaperSpec(0.02, 1)
	spec.Images = 200
	var polys []geom.Poly
	var shapeOf []int32
	shapes := int32(0)
	for _, im := range synth.GenerateBase(spec) {
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
	return polys, shapeOf
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
	for _, c := range []struct {
		name  string
		shard int
	}{{"shard", 0}, {"base", -1}} {
		fx := newProbeFixture(b, c.shard)
		ix, sigs := fx.ix, fx.sigs
		ranks := make([]int, len(sigs))
		for i, sig := range sigs {
			if _, scanned := referenceProbe(fx.refs, fx.shapeOf, fx.qref[i], minShapes); scanned {
				ranks[i] = ix.NumEntries()
			} else {
				ranks[i] = len(ix.Probe(sig, minShapes).Entries)
			}
		}
		b.Run(c.name, func(b *testing.B) {
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

// indexSink keeps the benchmarked builds from being optimized away.
var indexSink *Index

// BenchmarkBuild times deriving the index of one of 8 demo-200 shards
// (shard 0: 2,402 entries) and of the whole base (18,012): every copy
// signed, every band bucketed — the work an engine's first ann:approx
// probe pays. It reports B/op and ns per entry.
func BenchmarkBuild(b *testing.B) {
	for _, c := range []struct {
		name  string
		shard int
	}{{"shard", 0}, {"base", -1}} {
		polys, shapeOf := shardCopies(c.shard)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				indexSink = Build(shapeOf, func(i int) geom.Poly { return polys[i] })
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(shapeOf)), "ns/entry")
		})
	}
}
