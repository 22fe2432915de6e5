package main

import (
	"math"
	"time"

	geosir "repro"
	"repro/bench/load"
	"repro/internal/core"
	"repro/internal/envelope"
	"repro/internal/geom"
	"repro/internal/rangesearch"
)

// probeQueries is how many of the workload's queries the unit costs are
// averaged over; scoreEntries is how many stored entries each is scored
// against.
const (
	probeQueries = 50
	scoreEntries = 64
)

// clock accumulates the time and the number of calls of one operation.
type clock struct {
	total time.Duration
	n     int
}

func (c *clock) time(calls int, fn func()) {
	t0 := time.Now()
	fn()
	c.total += time.Since(t0)
	c.n += calls
}

// per is the mean cost of one call, in the given unit.
func (c *clock) per(unit time.Duration) float64 {
	if c.n == 0 {
		return 0
	}
	return float64(c.total) / float64(unit) / float64(c.n)
}

// probe times the operations the kernel, the hash tier and the ANN tier
// are made of, on the workload's own base and its first queries. Times
// the call counts in core.* by these unit costs and the kernel's split
// between fattening, range search and scoring follows.
func probe(r *load.Run, se *geosir.ShardedEngine) error {
	var score, annulus, count, dist, charac, lookup, sig, annProbe clock
	var triangles, hashCands float64
	nq := 0

	sh0 := se.Shard(0)
	base := sh0.Base()
	var pts []geom.Point
	for _, e := range base.Entries() {
		pts = append(pts, e.Poly.Pts...)
	}
	kd := rangesearch.NewKDTree(pts)
	step := base.NumEntries()/scoreEntries + 1

	for qi, q := range r.Traffic.Queries {
		if qi == probeQueries {
			break
		}
		nq++
		pq, err := core.PrepareQuery(q.Shape)
		if err != nil {
			return err
		}
		poly := pq.Entry().Poly

		env, err := envelope.New(poly)
		if err != nil {
			return err
		}
		eps0 := base.InitialEpsilon(poly.Perimeter())
		var tris []geom.Triangle
		annulus.time(1, func() { tris = env.AnnulusTriangles(0, eps0) })
		triangles += float64(len(tris))
		count.time(len(tris), func() {
			for _, t := range tris {
				kd.CountTriangle(t)
			}
		})

		for ei := 0; ei < base.NumEntries(); ei += step {
			oracle := base.EntryOracle(ei)
			score.time(1, func() { core.AvgMinDistVerticesBounded(poly, oracle, math.Inf(1)) })
			grid := oracle.Grid()
			dist.time(len(poly.Pts), func() {
				for _, p := range poly.Pts {
					grid.Dist(p)
				}
			})
		}

		for i := 0; i < se.NumShards(); i++ {
			sh := se.Shard(i)
			if !sh.Frozen() || sh.NumShapes() == 0 {
				continue
			}
			tab := sh.HashTable()
			var ids []int
			charac.time(1, func() {
				quad := tab.Family().Characteristic(poly.Pts)
				lookup.time(1, func() { ids = tab.Lookup(quad, 0) })
			})
			hashCands += float64(len(ids))
			if ix := sh.ANNIndex(); ix != nil {
				var s []uint64
				sig.time(1, func() { s = ix.Signature(poly) })
				annProbe.time(1, func() { ix.Probe(s, annMinShapes(load.K)) })
			}
		}
	}
	charac.total -= lookup.total // Characteristic alone

	m := r.Report.PerLayer
	m.Set("core.score_us", score.per(time.Microsecond), "us")
	m.Set("envelope.annulus_us", annulus.per(time.Microsecond), "us")
	m.Set("rangesearch.count_triangle_us", count.per(time.Microsecond), "us")
	m.Set("shapeindex.dist_ns", dist.per(time.Nanosecond), "ns")
	m.Set("geohash.characteristic_us", charac.per(time.Microsecond), "us")
	m.Set("geohash.lookup_us", lookup.per(time.Microsecond), "us")
	m.Set("annindex.signature_us", sig.per(time.Microsecond), "us")
	m.Set("annindex.probe_us", annProbe.per(time.Microsecond), "us")
	if nq > 0 {
		m.Set("envelope.triangles", triangles/float64(nq), "count")
		// Candidates the hash tier hands to scoring, per request (all shards).
		m.Set("geohash.candidates", hashCands/float64(nq), "count")
	}
	return nil
}
