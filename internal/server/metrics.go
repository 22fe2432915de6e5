package server

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// endpointMetrics is one endpoint's counters and latency distribution.
// Everything is atomics: the hot path never takes a lock to record.
type endpointMetrics struct {
	requests atomic.Int64 // admitted requests (any outcome)
	shed     atomic.Int64 // turned away by admission control (429/503)
	status4x atomic.Int64 // 4xx answered (excluding sheds)
	status5x atomic.Int64 // 5xx answered (excluding sheds)
	latency  histogram    // admitted requests only

	// Query-result cache dispositions (only advanced when a cache is
	// configured; set counts live on the cache itself).
	cacheHits      atomic.Int64
	cacheMisses    atomic.Int64
	cacheCoalesced atomic.Int64

	// blockReads accumulates the engine's block-access accounting
	// (geosir.Stats.BlockReads) over the searches this endpoint actually
	// ran — cache hits and coalesced waits touch no storage and are not
	// charged.
	blockReads atomic.Int64
}

// EndpointSnapshot is the exported view of one endpoint's metrics.
type EndpointSnapshot struct {
	Requests int64   `json:"requests"`
	Shed     int64   `json:"shed"`
	Status4x int64   `json:"status_4xx"`
	Status5x int64   `json:"status_5xx"`
	MeanMs   float64 `json:"mean_ms"`
	P50Ms    float64 `json:"p50_ms"`
	P95Ms    float64 `json:"p95_ms"`
	P99Ms    float64 `json:"p99_ms"`

	CacheHits      int64 `json:"cache_hits,omitempty"`
	CacheMisses    int64 `json:"cache_misses,omitempty"`
	CacheCoalesced int64 `json:"cache_coalesced,omitempty"`

	BlockReads int64 `json:"block_reads,omitempty"`
}

// metrics aggregates the server's observability state.
type metrics struct {
	start     time.Time
	mu        sync.Mutex // guards the endpoints map shape (writes only at registration)
	endpoints map[string]*endpointMetrics

	reloads     atomic.Int64
	reloadFails atomic.Int64

	// ANN candidate-tier counters, cumulative over all queries the tier
	// participated in (see geosir.Stats).
	annQueries    atomic.Int64
	annProbes     atomic.Int64
	annCandidates atomic.Int64

	// Acknowledged live-ingestion writes served over HTTP.
	inserts atomic.Int64
	deletes atomic.Int64
}

func newMetrics() *metrics {
	return &metrics{start: time.Now(), endpoints: make(map[string]*endpointMetrics)}
}

// endpoint returns (registering on first use) the named endpoint's
// metrics. Registration happens at route-construction time, before any
// traffic, so handler-time lookups hit the fast read path.
func (m *metrics) endpoint(name string) *endpointMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	em, ok := m.endpoints[name]
	if !ok {
		em = &endpointMetrics{}
		m.endpoints[name] = em
	}
	return em
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (em *endpointMetrics) snapshot() EndpointSnapshot {
	return EndpointSnapshot{
		Requests:       em.requests.Load(),
		Shed:           em.shed.Load(),
		Status4x:       em.status4x.Load(),
		Status5x:       em.status5x.Load(),
		MeanMs:         ms(em.latency.mean()),
		P50Ms:          ms(em.latency.quantile(0.50)),
		P95Ms:          ms(em.latency.quantile(0.95)),
		P99Ms:          ms(em.latency.quantile(0.99)),
		CacheHits:      em.cacheHits.Load(),
		CacheMisses:    em.cacheMisses.Load(),
		CacheCoalesced: em.cacheCoalesced.Load(),
		BlockReads:     em.blockReads.Load(),
	}
}

// snapshotEndpoints returns a name-sorted stable view for rendering.
func (m *metrics) snapshotEndpoints() map[string]EndpointSnapshot {
	m.mu.Lock()
	names := make([]string, 0, len(m.endpoints))
	for name := range m.endpoints {
		names = append(names, name)
	}
	ems := make(map[string]*endpointMetrics, len(names))
	for _, n := range names {
		ems[n] = m.endpoints[n]
	}
	m.mu.Unlock()
	sort.Strings(names)
	out := make(map[string]EndpointSnapshot, len(names))
	for _, n := range names {
		out[n] = ems[n].snapshot()
	}
	return out
}
