package load

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"

	"repro/internal/server"
)

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Metrics maps metric name to value.
type Metrics map[string]Metric

// Set records a metric.
func (m Metrics) Set(name string, v float64, unit string) { m[name] = Metric{Value: v, Unit: unit} }

// Report is one workload's result: what the contract line is cut from,
// and what a set, a repeat and a compare read back.
type Report struct {
	Workload string   `json:"workload"`
	Why      string   `json:"why"`
	Seed     int64    `json:"seed"`
	Seconds  float64  `json:"seconds"`
	Traced   bool     `json:"traced"`
	Host     HostInfo `json:"host"`
	// FlushPolicy states how writes reach the disk; it must be the same
	// on both sides of any comparison.
	FlushPolicy string `json:"flush_policy"`

	InputDigest  string `json:"input_digest"`
	ResultDigest string `json:"result_digest"`

	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`

	// Samples states how many observations each timing rests on.
	Samples  map[string]int `json:"samples"`
	EndToEnd Metrics        `json:"end_to_end"`
	// Raw holds the timings of EndToEnd as the clock read them, before
	// the division by the host's speed factor (canary.go), and that
	// factor's mean over the timed phase as host_speed.
	Raw      Metrics `json:"raw"`
	PerLayer Metrics `json:"per_layer,omitempty"`
}

// Problem records a failed correctness check; the first twenty are kept.
func (r *Report) Problem(format string, args ...any) {
	r.Correct = false
	if len(r.Problems) < 20 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// searchResponse is the part of a /v1/search answer the benchmark reads.
type searchResponse struct {
	Matches []server.MatchJSON `json:"matches"`
	Stats   server.StatsJSON   `json:"stats"`
}

// Answer is one decoded search response.
type Answer struct {
	Matches []server.MatchJSON
	Stats   server.StatsJSON
	// Canon is the timing-free canonical form of the match list, the unit
	// result digests and byte-identity checks are made of.
	Canon string
}

// Decode parses a search response body.
func Decode(body []byte) (Answer, error) {
	var r searchResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return Answer{}, err
	}
	return Answer{Matches: r.Matches, Stats: r.Stats, Canon: Canon(r.Matches)}, nil
}

// Canon renders a match list bit-exactly.
func Canon(ms []server.MatchJSON) string {
	var b []byte
	for _, m := range ms {
		b = fmt.Appendf(b, "%d:%d:%016x:%016x:%t;", m.ShapeID, m.ImageID,
			math.Float64bits(m.Distance), math.Float64bits(m.ContinuousDistance), m.Approximate)
	}
	return string(b)
}

// Hit reports whether the query's planted source is among the matches.
func (q Query) Hit(ms []server.MatchJSON) bool {
	for _, m := range ms {
		if q.PlantedShape >= 0 && m.ShapeID == q.PlantedShape {
			return true
		}
		if q.PlantedShape < 0 && m.ImageID == q.PlantedImage {
			return true
		}
	}
	return false
}

// segments is how many equal stretches of the timed phase a latency
// percentile is taken over before the stretches are averaged. On
// ingest_beside_search latency climbs through the run as the base grows,
// and a slow minute early on thins out the cheap samples: the percentile of
// the pooled samples then moves twice, once with the latencies and once
// with where on the climb they were taken. Stratifying by time removes the
// second effect, and on the flat workloads changes nothing.
const segments = 5

// timings holds latencies by the segment their request started in.
type timings [segments][]float64

// percentile is the mean over the non-empty segments of the segment's p-th
// percentile.
func (t *timings) percentile(p float64) float64 {
	var sum, n float64
	for i := range t {
		if len(t[i]) > 0 {
			sum += Percentile(t[i], p)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

type queryKey struct {
	insert bool
	idx    int32
}

// searchWork is what the answered searches of a phase reported about
// themselves: the sums of their stats, their mean body size, and the shares
// that converged and that used hashing.
type searchWork struct {
	stats                     server.StatsJSON
	respBytes, conv, fallback float64
}

// evaluate checks every response of the phase and fills in the traffic-
// derived metrics. It returns the searches' own accounts for the layer
// ledger.
func (r *Report) evaluate(t *Traffic, p Phase, ingest bool) searchWork {
	var w searchWork
	first := map[queryKey]string{}
	hits := map[queryKey]bool{}
	var lat, raw timings
	var okN float64
	for _, s := range p.Searches {
		r.Attempted++
		if s.Status != http.StatusOK {
			r.Failed++
			r.Problem("search of query %d answered %d: %.120s", s.Query, s.Status, s.Body)
			continue
		}
		a, err := Decode(s.Body)
		if err != nil {
			r.Failed++
			r.Problem("search of query %d: undecodable body: %v", s.Query, err)
			continue
		}
		seg := int(segments * s.Start / (p.Wall + 1))
		lat[seg] = append(lat[seg], ms(s.Dur)/p.Speed.At(s.Start+s.Dur/2))
		raw[seg] = append(raw[seg], ms(s.Dur))
		okN++
		w.respBytes += float64(len(s.Body))
		w.stats.Iterations += a.Stats.Iterations
		w.stats.VerticesCounted += a.Stats.VerticesCounted
		w.stats.Candidates += a.Stats.Candidates
		w.stats.ANNProbes += a.Stats.ANNProbes
		w.stats.ANNCandidates += a.Stats.ANNCandidates
		if a.Stats.Converged {
			w.conv++
		}
		if a.Stats.UsedHashing {
			w.fallback++
		}
		if len(a.Matches) == 0 || len(a.Matches) > K {
			r.Problem("query %d: %d matches for k=%d", s.Query, len(a.Matches), K)
		}
		if !sort.SliceIsSorted(a.Matches, func(i, j int) bool { return a.Matches[i].Distance < a.Matches[j].Distance }) {
			r.Problem("query %d: matches not ordered by distance", s.Query)
		}
		key := queryKey{s.Insert, s.Query}
		var q Query
		if s.Insert {
			q = t.Writes[s.Query].Query
		} else {
			q = t.Queries[s.Query]
		}
		if prev, seen := first[key]; !seen {
			first[key] = a.Canon
			hits[key] = q.Hit(a.Matches)
		} else if !ingest && prev != a.Canon {
			// With writes landing beside the searches an answer may
			// legitimately change between two sends of the same query.
			r.Problem("query %d: answer changed between two sends", s.Query)
		}
	}
	if !ingest {
		r.ResultDigest = digestAnswers(first)
	}
	for _, s := range append(append([]Sample(nil), p.Writes...), p.Compactions...) {
		r.Attempted++
		if s.Status != http.StatusOK {
			r.Failed++
			r.Problem("write %d answered %d: %.120s", s.Query, s.Status, s.Body)
		}
	}

	nHit := 0
	for _, h := range hits {
		if h {
			nHit++
		}
	}
	e := r.EndToEnd
	r.Samples["search"] = int(okN)
	r.Samples["distinct_queries"] = len(hits)
	e.Set("search_p50_ms", lat.percentile(0.50), "ms")
	e.Set("search_p90_ms", lat.percentile(0.90), "ms")
	e.Set("search_qps", okN/p.Wall.Seconds()*p.Speed.Mean, "1/s")
	// An operation is an answered search. Beside a write stream the
	// writes' CPU is charged to the searches too: divided over searches
	// and writes alike it would mostly count the writes, which are many,
	// cheap and fixed in number while the searches are not.
	e.Set("cpu_ms_per_op", ms(p.Usage.CPU-p.Speed.Busy)/okN/p.Speed.Mean, "ms")
	r.Samples["canary"] = p.Speed.N
	r.Raw.Set("host_speed", p.Speed.Mean, "ratio")
	r.Raw.Set("search_p50_ms", raw.percentile(0.50), "ms")
	r.Raw.Set("search_p90_ms", raw.percentile(0.90), "ms")
	r.Raw.Set("search_qps", okN/p.Wall.Seconds(), "1/s")
	r.Raw.Set("cpu_ms_per_op", ms(p.Usage.CPU)/okN, "ms")
	if len(hits) > 0 {
		e.Set("recall_at_k", float64(nHit)/float64(len(hits)), "ratio")
	}
	if okN > 0 {
		w.respBytes /= okN
		w.conv /= okN
		w.fallback /= okN
	}
	return w
}

// digestAnswers hashes the first answer of every distinct query, in
// query order.
func digestAnswers(first map[queryKey]string) string {
	keys := make([]queryKey, 0, len(first))
	for k := range first {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].insert != keys[j].insert {
			return !keys[i].insert
		}
		return keys[i].idx < keys[j].idx
	})
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%t:%d=%s\n", k.insert, k.idx, first[k])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// layerCounts fills the per-layer metrics that are counts read at the
// layer boundaries the daemon already exposes: response stats, /statz and
// the set-up's own phase clock. Timings of calls into the layers come
// from the traced replay in ../layers.
func (r *Report) layerCounts(p Phase, st server.Statz, setup SetupTimes, w searchWork) {
	m, stats := r.PerLayer, w.stats
	n := float64(r.Samples["search"])
	per := func(v int) float64 {
		if n == 0 {
			return 0
		}
		return float64(v) / n
	}
	ep := st.Endpoints["search"]
	m.Set("server.requests", float64(ep.Requests), "count")
	m.Set("server.shed", float64(ep.Shed), "count")
	m.Set("server.resp_bytes", w.respBytes, "B")

	var c struct{ hits, misses, coalesced, evictions, bytes float64 }
	if st.Cache != nil {
		c.hits, c.misses, c.coalesced = float64(st.Cache.Hits), float64(st.Cache.Misses), float64(st.Cache.Coalesced)
		c.evictions, c.bytes = float64(st.Cache.Evictions), float64(st.Cache.Bytes)
	}
	hitShare := 0.0
	if tot := c.hits + c.misses + c.coalesced; tot > 0 {
		hitShare = c.hits / tot
	}
	m.Set("qcache.hit_share", hitShare, "ratio")
	m.Set("qcache.coalesced", c.coalesced, "count")
	m.Set("qcache.evictions", c.evictions, "count")
	m.Set("qcache.bytes", c.bytes, "B")

	if st.Sched != nil {
		m.Set("sched.plans_fanout", float64(st.Sched.PlansFanout), "count")
		m.Set("sched.plans_sequential", float64(st.Sched.PlansSequential), "count")
	}
	if st.Snapshot != nil {
		m.Set("shard.count", float64(len(st.Snapshot.Shards)), "count")
	}

	m.Set("core.iterations", per(stats.Iterations), "count")
	m.Set("core.vertices_counted", per(stats.VerticesCounted), "count")
	m.Set("core.candidates", per(stats.Candidates), "count")
	// Block reads are engine work: cache hits read none, so the mean is
	// over the searches that reached the engine.
	if engine := float64(ep.Requests) - c.hits - c.coalesced; engine > 0 {
		m.Set("core.block_reads", float64(ep.BlockReads)/engine, "count")
	}
	m.Set("core.converged_share", w.conv, "ratio")
	m.Set("core.fallback_share", w.fallback, "ratio")
	m.Set("annindex.probes", per(stats.ANNProbes), "count")
	m.Set("annindex.candidates", per(stats.ANNCandidates), "count")

	m.Set("persist.add_ms", setup.Add, "ms")
	m.Set("persist.freeze_ms", setup.Freeze, "ms")
	m.Set("persist.save_ms", setup.Save, "ms")
	m.Set("persist.bytes_total", float64(setup.SnapshotBytes), "B")
	if st.Storage != nil {
		m.Set("mmap.mapped_bytes", float64(st.Storage.MappedBytes), "B")
		m.Set("mmap.resident_bytes", math.Max(0, float64(st.Storage.ResidentEstimate)), "B")
	}

	ops := float64(len(p.Searches) + len(p.Writes))
	m.Set("runtime.gc_cycles", float64(p.Usage.GCCycles), "count")
	m.Set("runtime.alloc_kb_per_op", float64(p.Usage.AllocBytes)/1024/ops, "KiB")
}

// ingestCounts fills the ingest layer's ledger from the write side of the
// phase.
func (r *Report) ingestCounts(t *Traffic, p Phase, end server.Statz, lost, replayed int) {
	m := r.PerLayer
	var wlat, late, clat, during []float64
	for _, s := range p.Writes {
		if s.Status == http.StatusOK {
			wlat = append(wlat, ms(s.Dur))
			late = append(late, ms(s.Late))
		}
	}
	for _, c := range p.Compactions {
		clat = append(clat, ms(c.Dur))
		for _, s := range p.Searches {
			if s.Start < c.Start+c.Dur && c.Start < s.Start+s.Dur {
				during = append(during, ms(s.Dur))
			}
		}
	}
	r.Samples["write"] = len(wlat)
	r.Samples["search_during_compact"] = len(during)
	m.Set("ingest.write_p50_ms", Percentile(wlat, 0.50), "ms")
	m.Set("ingest.write_p90_ms", Percentile(wlat, 0.90), "ms")
	m.Set("ingest.writer_late_p90_ms", Percentile(late, 0.90), "ms")
	m.Set("ingest.compact_ms", Median(clat), "ms")
	m.Set("ingest.search_during_compact_p50_ms", Percentile(during, 0.50), "ms")

	var walBytes, peak float64
	for _, st := range p.PreCompact {
		walBytes += float64(st.WALBytes)
		peak = math.Max(peak, float64(st.DeltaShapes))
	}
	inserts := 0.0
	last := -1
	for i := range t.Writes {
		if t.CompactAfter[i] {
			last = i
		}
	}
	for i, w := range t.Writes {
		if w.Insert && i <= last {
			inserts++
		}
	}
	if inserts > 0 {
		m.Set("ingest.wal_bytes_per_insert", walBytes/inserts, "B")
	}
	m.Set("ingest.delta_shapes_peak", peak, "count")
	if end.Ingest != nil {
		m.Set("ingest.compactions", float64(end.Ingest.Compactions), "count")
	}
	m.Set("ingest.wal_replayed_ops", float64(replayed), "count")
	m.Set("ingest.lost_acked_writes", float64(lost), "count")
}

// LayerNames lists every per-layer metric with its unit, in ledger order.
// A workload that does not exercise a layer reports its metrics as 0.
var LayerNames = [][2]string{
	{"server.overhead_ms", "ms"}, {"server.requests", "count"}, {"server.shed", "count"}, {"server.resp_bytes", "B"},
	{"qcache.hit_share", "ratio"}, {"qcache.coalesced", "count"}, {"qcache.evictions", "count"}, {"qcache.bytes", "B"},
	{"sched.plans_fanout", "count"}, {"sched.plans_sequential", "count"},
	{"shard.engine_ms", "ms"}, {"shard.sum_ms", "ms"}, {"shard.max_ms", "ms"}, {"shard.skew", "ratio"},
	{"shard.bound_saving_ms", "ms"}, {"shard.count", "count"}, {"shard.amplification", "ratio"},
	{"core.prepare_us", "us"}, {"core.match_ms", "ms"}, {"core.wrapper_ms", "ms"},
	{"core.iterations", "count"}, {"core.vertices_counted", "count"}, {"core.candidates", "count"}, {"core.block_reads", "count"},
	{"core.converged_share", "ratio"}, {"core.fallback_share", "ratio"}, {"core.score_us", "us"},
	{"envelope.annulus_us", "us"}, {"envelope.triangles", "count"},
	{"rangesearch.count_triangle_us", "us"}, {"shapeindex.dist_ns", "ns"},
	{"geohash.characteristic_us", "us"}, {"geohash.lookup_us", "us"}, {"geohash.candidates", "count"},
	{"annindex.signature_us", "us"}, {"annindex.probe_us", "us"}, {"annindex.probes", "count"},
	{"annindex.candidates", "count"}, {"annindex.recall_vs_exact", "ratio"},
	{"persist.add_ms", "ms"}, {"persist.freeze_ms", "ms"}, {"persist.save_ms", "ms"},
	{"persist.open_heap_ms", "ms"}, {"persist.open_mmap_ms", "ms"}, {"persist.bytes_total", "B"},
	{"mmap.mapped_bytes", "B"}, {"mmap.resident_bytes", "B"},
	{"ingest.write_p50_ms", "ms"}, {"ingest.write_p90_ms", "ms"}, {"ingest.writer_late_p90_ms", "ms"},
	{"ingest.compactions", "count"}, {"ingest.compact_ms", "ms"},
	{"ingest.wal_bytes_per_insert", "B"}, {"ingest.delta_shapes_peak", "count"}, {"ingest.shards_end", "count"},
	{"ingest.search_during_compact_p50_ms", "ms"}, {"ingest.wal_replayed_ops", "count"}, {"ingest.lost_acked_writes", "count"},
	{"runtime.gc_cycles", "count"}, {"runtime.alloc_kb_per_op", "KiB"},
	{"trace.overhead_share", "ratio"}, {"trace.unaccounted_share", "ratio"},
}

// EndToEndNames lists every end-to-end metric with its unit.
var EndToEndNames = [][2]string{
	{"setup_s", "s"}, {"search_p50_ms", "ms"}, {"search_p90_ms", "ms"}, {"search_qps", "1/s"},
	{"cpu_ms_per_op", "ms"}, {"recall_at_k", "ratio"}, {"open_ms", "ms"},
	{"snapshot_bytes_per_image", "B"}, {"peak_rss_mb", "MiB"},
}

// FillLayers gives every ledger metric the workload did not exercise an
// explicit 0, so each run prints the whole ledger.
func (r *Report) FillLayers() {
	for _, nu := range LayerNames {
		if _, ok := r.PerLayer[nu[0]]; !ok {
			r.PerLayer.Set(nu[0], 0, nu[1])
		}
	}
}
