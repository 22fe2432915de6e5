package load

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	geosir "repro"
	"repro/internal/server"
)

// Clients is the closed loop's width: two callers that each wait for
// their reply, one keep-alive connection each, on a 2-core box.
const Clients = 2

// warmRequests is the warm-up pass set-up ends with: enough to open both
// connections and fill the engine's scratch pools. The ISSUE's 20 would
// cost exact_8shard 4 s per set-up, and set-up runs five times per run.
const warmRequests = 4

// SetupTimes splits one set-up by phase, in milliseconds.
type SetupTimes struct {
	Generate, Add, Freeze, Save, Load, Warm float64
	SnapshotBytes                           int64
}

// Seconds is the whole set-up.
func (st SetupTimes) Seconds() float64 {
	return (st.Generate + st.Add + st.Freeze + st.Save + st.Load + st.Warm) / 1000
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// BuildSnapshot generates the base, builds it into a frozen sharded
// engine and saves it as a GSIR3 snapshot directory.
func BuildSnapshot(spec Spec, images int, dir string) (*Base, SetupTimes, error) {
	var st SetupTimes
	t0 := time.Now()
	base := NewBase(images)
	st.Generate = ms(time.Since(t0))

	t0 = time.Now()
	se := geosir.NewSharded(geosir.DefaultOptions(), spec.Shards)
	for _, im := range base.Images {
		if err := se.AddImage(im.ID, im.Shapes); err != nil {
			return nil, st, fmt.Errorf("adding image %d: %w", im.ID, err)
		}
	}
	st.Add = ms(time.Since(t0))

	t0 = time.Now()
	if err := se.Freeze(); err != nil {
		return nil, st, fmt.Errorf("freezing: %w", err)
	}
	st.Freeze = ms(time.Since(t0))

	t0 = time.Now()
	if err := se.SaveDir(dir); err != nil {
		return nil, st, fmt.Errorf("saving snapshot: %w", err)
	}
	st.Save = ms(time.Since(t0))
	var err error
	st.SnapshotBytes, err = dirBytes(dir)
	return base, st, err
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return err
	})
	return n, err
}

// Env is a geosird serving one snapshot directory in this process, on a
// real loopback listener.
type Env struct {
	Spec Spec
	Dir  string
	Srv  *server.Server
	URL  string

	hs      *http.Server
	served  chan error
	clients []*client
}

// Serve starts a daemon configured for the workload and installs the
// snapshot through Server.LoadSnapshot.
func Serve(spec Spec, dir string) (*Env, error) {
	cfg := server.Config{CacheBytes: spec.CacheBytes, CacheEntries: spec.CacheEntries}
	if spec.Mmap {
		cfg.LoadMode = geosir.LoadModeMmap
	}
	if spec.Ingest {
		// Manual compaction, and the WAL fsyncs every record before the ack.
		cfg.Ingest = &server.IngestOptions{CompactThreshold: -1, NoSync: false}
	}
	srv := server.New(cfg)
	if _, err := srv.LoadSnapshot(dir); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &Env{
		Spec: spec, Dir: dir, Srv: srv, URL: "http://" + ln.Addr().String(),
		hs: &http.Server{Handler: srv.Handler()}, served: make(chan error, 1),
	}
	go func() { e.served <- e.hs.Serve(ln) }()
	for i := 0; i < Clients; i++ {
		e.clients = append(e.clients, newClient(e.URL))
	}
	return e, nil
}

// Close stops the listener, waits for the serve loop, and releases the
// engine's WAL handle and mappings.
func (e *Env) Close() error {
	for _, c := range e.clients {
		c.hc.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := e.hs.Shutdown(ctx)
	<-e.served
	if se, ok := e.Srv.Serving().(*geosir.ShardedEngine); ok {
		if se.IngestEnabled() {
			if cerr := se.CloseIngest(); err == nil {
				err = cerr
			}
		}
		if cerr := se.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// SetUp is the whole set-up a user of the daemon waits for: build and
// save the snapshot, start the daemon on it, answer a warm-up pass.
func SetUp(spec Spec, images int, dir string, t *Traffic) (*Env, *Base, SetupTimes, error) {
	base, st, err := BuildSnapshot(spec, images, dir)
	if err != nil {
		return nil, nil, st, err
	}
	t0 := time.Now()
	env, err := Serve(spec, dir)
	if err != nil {
		return nil, nil, st, err
	}
	st.Load = ms(time.Since(t0))
	t0 = time.Now()
	for i := 0; i < warmRequests; i++ {
		q := t.Queries[len(t.Queries)-1-i%len(t.Queries)]
		if s := env.clients[i%Clients].search(q.Body); s.Status != http.StatusOK {
			env.Close()
			return nil, nil, st, fmt.Errorf("warm-up search answered %d: %s", s.Status, s.Body)
		}
	}
	st.Warm = ms(time.Since(t0))
	return env, base, st, nil
}

// client is one closed-loop caller with its own keep-alive connection.
type client struct {
	hc  *http.Client
	url string
}

func newClient(url string) *client {
	return &client{url: url, hc: &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConns: 1, MaxConnsPerHost: 1, DisableCompression: true},
	}}
}

// Sample is one request as its client saw it. Bodies are kept raw and
// decoded after the timed phase, so the clients stay cheap while timing.
type Sample struct {
	Query  int32 // index into Traffic.Queries, or into Traffic.Writes
	Insert bool  // the search targeted a live-inserted image (Traffic.Writes[Query].Query)
	Start  time.Duration
	Dur    time.Duration
	Late   time.Duration // paced writes: how long after it was due the write was sent
	Status int           // 0 on a transport error
	Cache  string
	Body   []byte
}

func (c *client) do(method, path string, body []byte) Sample {
	req, err := http.NewRequest(method, c.url+path, bytes.NewReader(body))
	if err != nil {
		return Sample{Body: []byte(err.Error())}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return Sample{Dur: time.Since(t0), Body: []byte(err.Error())}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s := Sample{Dur: time.Since(t0), Status: resp.StatusCode, Cache: resp.Header.Get("X-Geosir-Cache"), Body: data}
	if err != nil {
		s.Status, s.Body = 0, []byte(err.Error())
	}
	return s
}

func (c *client) search(body []byte) Sample { return c.do(http.MethodPost, "/v1/search", body) }

// Search sends one search on the first client's connection (the traced
// replay's single client).
func (e *Env) Search(body []byte) Sample { return e.clients[0].search(body) }

// Statz fetches and decodes /statz.
func (e *Env) Statz() (server.Statz, error) {
	var st server.Statz
	s := e.clients[0].do(http.MethodGet, "/statz", nil)
	if s.Status != http.StatusOK {
		return st, fmt.Errorf("/statz answered %d: %s", s.Status, s.Body)
	}
	return st, json.Unmarshal(s.Body, &st)
}

// Phase is what the timed phase produced.
type Phase struct {
	Wall     time.Duration
	Searches []Sample
	Writes   []Sample
	// Compactions are the /admin/compact round trips, PreCompact the
	// ingest counters read just before each.
	Compactions []Sample
	PreCompact  []geosir.IngestStats
	Usage       Usage
	// Speed is the host's speed factor through the phase (see canary.go).
	Speed Speed
}

// RunSearches plays t.Order against the daemon: each client takes the next
// unsent request as soon as its previous one is answered.
func (e *Env) RunSearches(t *Traffic) Phase {
	order := t.Order
	p := Phase{Searches: make([]Sample, len(order))}
	var next atomic.Int64
	var wg sync.WaitGroup
	before := ReadUsage()
	meter := NewSpeedometer()
	start := meter.start
	for _, cl := range e.clients {
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			var lastCanary time.Time
			for {
				i := int(next.Add(1)) - 1
				if i >= len(order) {
					return
				}
				meter.Tick(&lastCanary)
				at := time.Since(start)
				s := cl.search(t.Queries[order[i]].Body)
				s.Query, s.Start = order[i], at
				p.Searches[i] = s
			}
		}(cl)
	}
	wg.Wait()
	p.Wall = time.Since(start)
	p.Usage = ReadUsage().Sub(before)
	p.Speed = meter.Speed()
	return p
}

// RunIngest plays the write list on one client, one write every
// Spec.WriteEvery, while the other searches in a closed loop until the last
// write is acknowledged. Every second search is a distorted copy of a kept
// image whose insert has already been acknowledged; the others cycle the
// base query list.
//
// The writer is an open loop because a closed one finishes in a fifth of
// the run (a write is ~1 ms here, fsync included) and leaves the searcher
// a dozen samples. Each write is timed from when it was due, so a stall
// behind a compaction counts against every write it delays; Sample.Late
// says how far behind its schedule the writer was.
func (e *Env) RunIngest(t *Traffic) Phase {
	var p Phase
	var mu sync.Mutex
	var acked []int32 // kept inserts acknowledged so far
	var done atomic.Bool
	var wg sync.WaitGroup
	before := ReadUsage()
	meter := NewSpeedometer()
	start := meter.start

	wg.Add(2)
	go func() { // W
		defer wg.Done()
		defer done.Store(true)
		cl := e.clients[0]
		var lastCanary time.Time
		for i, w := range t.Writes {
			due := time.Duration(i) * e.Spec.WriteEvery
			if due-time.Since(start) > 2*canaryNominal {
				meter.Tick(&lastCanary)
			}
			time.Sleep(due - time.Since(start))
			at := time.Since(start)
			var s Sample
			if w.Insert {
				s = cl.do(http.MethodPost, "/v1/images", w.Body)
			} else {
				s = cl.do(http.MethodDelete, "/v1/images/"+strconv.Itoa(w.ID), nil)
			}
			s.Query, s.Start, s.Insert = int32(i), due, w.Insert
			s.Late, s.Dur = at-due, s.Dur+at-due
			p.Writes = append(p.Writes, s)
			if w.Kept && s.Status == http.StatusOK {
				mu.Lock()
				acked = append(acked, int32(i))
				mu.Unlock()
			}
			if t.CompactAfter[i] {
				if st, err := e.Statz(); err == nil && st.Ingest != nil {
					p.PreCompact = append(p.PreCompact, *st.Ingest)
				}
				at := time.Since(start)
				c := cl.do(http.MethodPost, "/admin/compact", nil)
				c.Start = at
				p.Compactions = append(p.Compactions, c)
			}
		}
	}()
	go func() { // R
		defer wg.Done()
		cl := e.clients[1]
		var lastCanary time.Time
		for j := 0; !done.Load(); j++ {
			meter.Tick(&lastCanary)
			q, idx, ins := t.Queries[(j/2)%len(t.Queries)], int32((j/2)%len(t.Queries)), false
			if j%2 == 1 {
				mu.Lock()
				if len(acked) > 0 {
					idx, ins = acked[(j/2)%len(acked)], true
					q = t.Writes[idx].Query
				}
				mu.Unlock()
			}
			at := time.Since(start)
			s := cl.search(q.Body)
			s.Query, s.Start, s.Insert = idx, at, ins
			p.Searches = append(p.Searches, s)
		}
	}()
	wg.Wait()
	p.Wall = time.Since(start)
	p.Usage = ReadUsage().Sub(before)
	p.Speed = meter.Speed()
	return p
}

// OpenCycles measures a cold open of the snapshot directory n times, in
// milliseconds: LoadAnyMode, then Close. With a meter each cycle also
// waits for its first answer (one approximate search of q) and is preceded
// by a canary, so the caller can divide by the host's speed.
func OpenCycles(dir string, q geosir.Shape, mode geosir.LoadMode, meter *Speedometer, n int) ([]float64, error) {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if meter != nil {
			meter.Burst(1)
		}
		t0 := time.Now()
		s, _, err := geosir.LoadAnyMode(dir, mode)
		if err != nil {
			return nil, err
		}
		if meter != nil {
			_, err = s.Search(context.Background(), geosir.SearchRequest{Query: q, K: K, Mode: geosir.ModeApproximate})
		}
		out = append(out, ms(time.Since(t0)))
		if c, ok := s.(io.Closer); ok {
			c.Close()
		}
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
