package qcache

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fpN builds a distinct fingerprint; the first bytes spread across
// shards like real SHA-256 output would.
func fpN(n int) Fingerprint {
	var fp Fingerprint
	fp[0] = byte(n)
	fp[1] = byte(n >> 8)
	fp[2] = byte(n >> 16)
	fp[3] = byte(n >> 24)
	fp[31] = byte(n)
	return fp
}

func mustDo(t *testing.T, c *Cache, fp Fingerprint, body string) Disposition {
	t.Helper()
	got, disp, err := c.Do(context.Background(), fp, func() ([]byte, error) {
		return []byte(body), nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if string(got) != body && disp == Miss {
		t.Fatalf("Do returned %q, want %q", got, body)
	}
	return disp
}

func TestNilCacheIsBypass(t *testing.T) {
	var c *Cache = New(Config{MaxBytes: 0})
	if c != nil {
		t.Fatal("MaxBytes 0 must mean caching off (nil cache)")
	}
	body, disp, err := c.Do(context.Background(), fpN(1), func() ([]byte, error) {
		return []byte("x"), nil
	})
	if err != nil || string(body) != "x" || disp != Bypass {
		t.Fatalf("nil Do = (%q, %v, %v), want (x, bypass, nil)", body, disp, err)
	}
	if _, ok := c.Get(fpN(1)); ok {
		t.Fatal("nil Get must miss")
	}
	c.Purge()
	c.Bypassed()
	if st := c.Snapshot(); st != (Stats{}) {
		t.Fatalf("nil Snapshot = %+v, want zero", st)
	}
}

func TestHitMissAndStats(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20})
	if d := mustDo(t, c, fpN(1), "alpha"); d != Miss {
		t.Fatalf("first Do = %v, want miss", d)
	}
	if d := mustDo(t, c, fpN(1), "SHOULD NOT RECOMPUTE"); d != Hit {
		t.Fatalf("second Do = %v, want hit", d)
	}
	body, ok := c.Get(fpN(1))
	if !ok || string(body) != "alpha" {
		t.Fatalf("Get = (%q, %v), want original body", body, ok)
	}
	c.Bypassed()
	st := c.Snapshot()
	if st.Hits != 1 || st.Misses != 1 || st.Sets != 1 || st.Bypasses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if want := 0.5; st.HitRate != want {
		t.Fatalf("hit rate = %v, want %v", st.HitRate, want)
	}
}

func TestErrorsAreNeverCached(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20})
	boom := errors.New("boom")
	calls := 0
	for i := 0; i < 3; i++ {
		_, disp, err := c.Do(context.Background(), fpN(2), func() ([]byte, error) {
			calls++
			return nil, boom
		})
		if !errors.Is(err, boom) || disp != Miss {
			t.Fatalf("Do %d = (%v, %v)", i, disp, err)
		}
	}
	if calls != 3 {
		t.Fatalf("compute ran %d times, want 3 (errors must not stick)", calls)
	}
	// After a success, the error history is irrelevant.
	if d := mustDo(t, c, fpN(2), "ok"); d != Miss {
		t.Fatalf("post-error Do = %v, want miss", d)
	}
	if d := mustDo(t, c, fpN(2), ""); d != Hit {
		t.Fatalf("post-success Do = %v, want hit", d)
	}
}

func TestByteBoundEviction(t *testing.T) {
	// One shard so the LRU order is observable; budget fits two bodies
	// plus overhead but not three.
	body := bytes.Repeat([]byte("x"), 1024)
	c := newCache(Config{MaxBytes: 2*(1024+entryOverhead) + 64, MaxEntries: 1024}, 1)
	for i := 0; i < 3; i++ {
		mustDo(t, c, fpN(i), string(body))
	}
	st := c.Snapshot()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 2 entries after 1 eviction", st)
	}
	if _, ok := c.Get(fpN(0)); ok {
		t.Fatal("LRU tail (first insert) should have been evicted")
	}
	if _, ok := c.Get(fpN(2)); !ok {
		t.Fatal("most recent insert must survive")
	}
	if st.Bytes > st.MaxBytes {
		t.Fatalf("bytes %d exceed budget %d", st.Bytes, st.MaxBytes)
	}
}

func TestLRUTouchOnHit(t *testing.T) {
	body := bytes.Repeat([]byte("x"), 1024)
	c := newCache(Config{MaxBytes: 2*(1024+entryOverhead) + 64, MaxEntries: 1024}, 1)
	mustDo(t, c, fpN(0), string(body))
	mustDo(t, c, fpN(1), string(body))
	mustDo(t, c, fpN(0), "") // hit: 0 becomes most recent
	mustDo(t, c, fpN(2), string(body))
	if _, ok := c.Get(fpN(1)); ok {
		t.Fatal("1 was least recent and should be gone")
	}
	if _, ok := c.Get(fpN(0)); !ok {
		t.Fatal("touched entry 0 must survive the eviction")
	}
}

func TestEntryCountBound(t *testing.T) {
	c := newCache(Config{MaxBytes: 1 << 20, MaxEntries: 4}, 1)
	for i := 0; i < 10; i++ {
		mustDo(t, c, fpN(i), "tiny")
	}
	if st := c.Snapshot(); st.Entries > 4 {
		t.Fatalf("entries = %d, want ≤ 4", st.Entries)
	}
}

func TestOversizedEntryRefused(t *testing.T) {
	c := newCache(Config{MaxBytes: 1024}, 1)
	small := "s"
	mustDo(t, c, fpN(1), small)
	huge := string(bytes.Repeat([]byte("x"), 4096))
	if d := mustDo(t, c, fpN(2), huge); d != Miss {
		t.Fatalf("oversized Do = %v, want miss", d)
	}
	if _, ok := c.Get(fpN(2)); ok {
		t.Fatal("oversized entry must not be stored")
	}
	if _, ok := c.Get(fpN(1)); !ok {
		t.Fatal("oversized insert must not evict everything else")
	}
}

func TestPurge(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20})
	for i := 0; i < 50; i++ {
		mustDo(t, c, fpN(i), fmt.Sprintf("body-%d", i))
	}
	c.Purge()
	st := c.Snapshot()
	if st.Entries != 0 || st.Bytes != 0 || st.Purges != 1 {
		t.Fatalf("post-purge stats = %+v", st)
	}
	for i := 0; i < 50; i++ {
		if _, ok := c.Get(fpN(i)); ok {
			t.Fatalf("entry %d survived the purge", i)
		}
	}
	// The cache still works after a purge.
	if d := mustDo(t, c, fpN(1), "fresh"); d != Miss {
		t.Fatalf("post-purge Do = %v, want miss", d)
	}
}

// TestSingleflightCoalescing: M concurrent identical requests run
// compute exactly once; everyone gets the full body.
func TestSingleflightCoalescing(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20})
	const m = 16
	var calls atomic.Int64
	release := make(chan struct{})

	var wg sync.WaitGroup
	disps := make([]Disposition, m)
	bodies := make([]string, m)
	errs := make([]error, m)
	for i := 0; i < m; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, disp, err := c.Do(context.Background(), fpN(9), func() ([]byte, error) {
				calls.Add(1)
				<-release // hold every follower in the waiter path
				return []byte("shared"), nil
			})
			bodies[i], disps[i], errs[i] = string(body), disp, err
		}(i)
	}
	// Wait until the leader is computing and all m-1 followers are parked.
	deadline := time.Now().Add(5 * time.Second)
	for c.Snapshot().Waiting != m-1 {
		if time.Now().After(deadline) {
			t.Fatalf("waiters never parked: %+v", c.Snapshot())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want exactly 1", got)
	}
	var misses, coalesced int
	for i := 0; i < m; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if bodies[i] != "shared" {
			t.Fatalf("caller %d body = %q", i, bodies[i])
		}
		switch disps[i] {
		case Miss:
			misses++
		case Coalesced:
			coalesced++
		default:
			t.Fatalf("caller %d disposition = %v", i, disps[i])
		}
	}
	if misses != 1 || coalesced != m-1 {
		t.Fatalf("misses=%d coalesced=%d, want 1 and %d", misses, coalesced, m-1)
	}
	if st := c.Snapshot(); st.Waiting != 0 {
		t.Fatalf("waiting = %d after completion", st.Waiting)
	}
}

// TestWaiterCancellationDoesNotPoison: a waiter abandoning the flight
// gets its own ctx error; the leader and the remaining waiter still get
// the real result, and the entry is stored.
func TestWaiterCancellationDoesNotPoison(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20})
	computing := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := c.Do(context.Background(), fpN(5), func() ([]byte, error) {
			close(computing) // the flight is registered; waiters will coalesce
			<-release
			return []byte("result"), nil
		})
		leaderDone <- err
	}()
	<-computing

	// Park one cancellable waiter, then cancel it mid-flight.
	ctx, cancel := context.WithCancel(context.Background())
	parked := make(chan error, 1)
	go func() {
		_, disp, err := c.Do(ctx, fpN(5), func() ([]byte, error) {
			return []byte("WRONG: waiter must not compute"), nil
		})
		if disp != Coalesced {
			err = fmt.Errorf("waiter disposition = %v, want coalesced", disp)
		}
		parked <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for c.Snapshot().Waiting == 0 {
		if time.Now().After(deadline) {
			t.Fatal("cancellable waiter never parked")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-parked; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter err = %v, want context.Canceled", err)
	}
	// A second, patient waiter still gets the shared result.
	patient := make(chan string, 1)
	go func() {
		body, _, _ := c.Do(context.Background(), fpN(5), func() ([]byte, error) {
			return []byte("WRONG"), nil
		})
		patient <- string(body)
	}()
	deadline = time.Now().Add(5 * time.Second)
	for c.Snapshot().Waiting == 0 {
		if time.Now().After(deadline) {
			t.Fatal("patient waiter never parked")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader err = %v (a waiter's cancellation leaked in?)", err)
	}
	if got := <-patient; got != "result" {
		t.Fatalf("patient waiter got %q, want the leader's result", got)
	}
	if body, ok := c.Get(fpN(5)); !ok || string(body) != "result" {
		t.Fatalf("entry after flight = (%q, %v)", body, ok)
	}
}

// TestConcurrentChurn hammers Do/Get/Purge from many goroutines; run
// under -race this is the data-race proof for the shard locking.
func TestConcurrentChurn(t *testing.T) {
	c := newCache(Config{MaxBytes: 64 << 10, MaxEntries: 256}, 4)
	ctx := context.Background()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				fp := fpN(i % 97)
				body, _, err := c.Do(ctx, fp, func() ([]byte, error) {
					return []byte(fmt.Sprintf("v-%d", i%97)), nil
				})
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if want := fmt.Sprintf("v-%d", i%97); string(body) != want {
					t.Errorf("worker %d: got %q want %q (cross-key corruption)", w, body, want)
					return
				}
				c.Get(fpN((i + 13) % 97))
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			time.Sleep(2 * time.Millisecond)
			c.Purge()
			c.Snapshot()
		}
		close(stop)
	}()
	wg.Wait()
	if st := c.Snapshot(); st.Bytes < 0 {
		t.Fatalf("negative byte accounting after churn: %+v", st)
	}
}
