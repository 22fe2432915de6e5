package qcache

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
)

// Config sizes a Cache. Zero values select the documented defaults.
type Config struct {
	// MaxBytes bounds the summed size of cached response bodies (plus a
	// fixed per-entry overhead). ≤ 0 disables caching entirely — New
	// returns nil, and every method on a nil *Cache is a safe no-op
	// bypass.
	MaxBytes int64
	// MaxEntries bounds the entry count (default MaxBytes/4KiB, min 64):
	// a flood of tiny responses cannot grow the index without bound.
	MaxEntries int
}

// entryOverhead is the accounting charge per cache entry beyond its
// body: fingerprint key, list element, map bucket share.
const entryOverhead = 128

// Disposition reports how a lookup was satisfied.
type Disposition int

const (
	// Bypass: the cache did not participate (nil cache, or the request
	// could not be fingerprinted).
	Bypass Disposition = iota
	// Hit: served from a stored entry, no engine work.
	Hit
	// Miss: this caller computed the result (and stored it on success).
	Miss
	// Coalesced: another in-flight caller with the same fingerprint
	// computed the result; this caller waited and shared it.
	Coalesced
)

// String names the disposition for headers, logs, and metrics.
func (d Disposition) String() string {
	switch d {
	case Hit:
		return "hit"
	case Miss:
		return "miss"
	case Coalesced:
		return "coalesced"
	}
	return "bypass"
}

// flight is one in-progress computation that concurrent identical
// requests attach to. The result fields are written exactly once,
// before done is closed; waiters read them only after <-done.
type flight struct {
	done    chan struct{}
	body    []byte
	err     error
	waiters atomic.Int64 // callers currently blocked on done (for tests/statz)
}

type entry struct {
	fp   Fingerprint
	body []byte
}

// Cache is one byte- and entry-bounded LRU over encoded search
// responses under one lock, with singleflight coalescing of concurrent
// identical lookups. All methods are safe for concurrent use; all
// methods on a nil *Cache are no-op bypasses, so callers need no "is
// caching on" branches.
type Cache struct {
	mu         sync.Mutex
	maxBytes   int64
	maxEntries int
	bytes      int64
	ll         *list.List // front = most recently used
	items      map[Fingerprint]*list.Element
	flights    map[Fingerprint]*flight

	// Counted under mu.
	hits, misses, sets, evictions, purges int64
	// Counted outside mu: a waiter counts after its wait, a bypass never
	// takes the lock.
	coalesced atomic.Int64
	bypasses  atomic.Int64
}

// New builds a cache, or returns nil (meaning "caching off") when
// cfg.MaxBytes ≤ 0.
func New(cfg Config) *Cache {
	if cfg.MaxBytes <= 0 {
		return nil
	}
	maxEntries := cfg.MaxEntries
	if maxEntries <= 0 {
		maxEntries = int(cfg.MaxBytes / 4096)
		if maxEntries < 64 {
			maxEntries = 64
		}
	}
	return &Cache{
		maxBytes:   cfg.MaxBytes,
		maxEntries: maxEntries,
		ll:         list.New(),
		items:      make(map[Fingerprint]*list.Element),
		flights:    make(map[Fingerprint]*flight),
	}
}

// Do answers the fingerprint from the cache, or coalesces onto an
// in-flight computation, or runs compute itself and stores the result.
// The returned body must be treated as immutable by every caller — hits
// and coalesced waiters all share one slice.
//
// Coalescing semantics: exactly one caller (the leader) runs compute;
// it runs to completion regardless of any individual waiter's context —
// a waiter whose ctx is cancelled mid-flight abandons the wait with its
// own ctx.Err() and never perturbs the shared result. The leader's
// compute is expected to be bound to a detached context by the caller
// (the serving layer derives one from the request with cancellation
// removed), so a leader's client hanging up cannot poison N waiters. A
// compute error is returned to the leader and every still-attached
// waiter, and is never cached — the next request retries.
func (c *Cache) Do(ctx context.Context, fp Fingerprint, compute func() ([]byte, error)) ([]byte, Disposition, error) {
	if c == nil {
		body, err := compute()
		return body, Bypass, err
	}
	c.mu.Lock()
	if el, ok := c.items[fp]; ok {
		c.ll.MoveToFront(el)
		body := el.Value.(*entry).body
		c.hits++
		c.mu.Unlock()
		return body, Hit, nil
	}
	if fl, ok := c.flights[fp]; ok {
		fl.waiters.Add(1)
		c.mu.Unlock()
		defer fl.waiters.Add(-1)
		select {
		case <-fl.done:
			c.coalesced.Add(1)
			return fl.body, Coalesced, fl.err
		case <-ctx.Done():
			return nil, Coalesced, ctx.Err()
		}
	}
	fl := &flight{done: make(chan struct{})}
	c.flights[fp] = fl
	c.mu.Unlock()

	body, err := compute()
	fl.body, fl.err = body, err

	c.mu.Lock()
	delete(c.flights, fp)
	if err == nil && body != nil && c.insertLocked(fp, body) {
		c.sets++
	}
	c.misses++
	c.mu.Unlock()
	close(fl.done)
	return body, Miss, err
}

// Get answers the fingerprint from the stored entries alone (no
// coalescing, no compute). Mostly for tests and introspection.
func (c *Cache) Get(fp Fingerprint) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[fp]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*entry).body, true
	}
	return nil, false
}

// insertLocked adds (or refreshes) an entry and evicts from the LRU
// tail until the cache is back under both bounds. An entry bigger than
// the whole byte budget is refused rather than evicting everything.
func (c *Cache) insertLocked(fp Fingerprint, body []byte) bool {
	cost := int64(len(body)) + entryOverhead
	if cost > c.maxBytes {
		return false
	}
	if el, ok := c.items[fp]; ok {
		// A concurrent leader already stored this fingerprint (possible
		// when a Purge raced between flight removal and insert); refresh.
		old := el.Value.(*entry)
		c.bytes += int64(len(body)) - int64(len(old.body))
		old.body = body
		c.ll.MoveToFront(el)
	} else {
		c.items[fp] = c.ll.PushFront(&entry{fp: fp, body: body})
		c.bytes += cost
	}
	for c.bytes > c.maxBytes || c.ll.Len() > c.maxEntries {
		back := c.ll.Back()
		if back == nil {
			break
		}
		ev := back.Value.(*entry)
		c.ll.Remove(back)
		delete(c.items, ev.fp)
		c.bytes -= int64(len(ev.body)) + entryOverhead
		c.evictions++
	}
	return true
}

// Purge drops every stored entry. The serving layer calls it after a
// successful snapshot hot-swap: the old epoch's entries are already
// unreachable from new traffic (the epoch is part of the fingerprint),
// so this is memory hygiene, not a correctness requirement. In-flight
// computations are not interrupted; one finishing after the purge may
// re-insert its (old-epoch, still-correct-for-its-requester) entry,
// which ages out through normal LRU pressure.
func (c *Cache) Purge() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.ll.Init()
	c.items = make(map[Fingerprint]*list.Element)
	c.bytes = 0
	c.purges++
	c.mu.Unlock()
}

// Bypassed counts one request that skipped the cache (no fingerprint).
func (c *Cache) Bypassed() {
	if c != nil {
		c.bypasses.Add(1)
	}
}

// Stats is a point-in-time snapshot of the cache's counters and
// occupancy.
type Stats struct {
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	MaxBytes  int64 `json:"max_bytes"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Coalesced int64 `json:"coalesced"`
	Sets      int64 `json:"sets"`
	Evictions int64 `json:"evictions"`
	Purges    int64 `json:"purges"`
	Bypasses  int64 `json:"bypasses"`
	// Waiting is the number of callers currently parked on in-flight
	// computations (coalesced requests that have not completed yet).
	Waiting int64 `json:"waiting,omitempty"`
	// HitRate is Hits / (Hits + Misses + Coalesced); coalesced requests
	// count toward the denominator but not as hits — they did wait for
	// engine work, just not their own.
	HitRate float64 `json:"hit_rate"`
}

// Snapshot assembles the live stats (zero value for a nil cache).
func (c *Cache) Snapshot() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	st := Stats{
		Entries:   c.ll.Len(),
		Bytes:     c.bytes,
		MaxBytes:  c.maxBytes,
		Hits:      c.hits,
		Misses:    c.misses,
		Sets:      c.sets,
		Evictions: c.evictions,
		Purges:    c.purges,
	}
	for _, fl := range c.flights {
		st.Waiting += fl.waiters.Load()
	}
	c.mu.Unlock()
	st.Coalesced = c.coalesced.Load()
	st.Bypasses = c.bypasses.Load()
	if n := st.Hits + st.Misses + st.Coalesced; n > 0 {
		st.HitRate = float64(st.Hits) / float64(n)
	}
	return st
}
