package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	geosir "repro"
	"repro/bench/load"
	"repro/internal/core"
	"repro/internal/server"
)

// Span is one timed call. Spans of one replayed request share Trace;
// Parent is the ID of the span whose call it re-executes a part of (0 for
// the root). Times are microseconds since the replay began.
type Span struct {
	Trace  int     `json:"trace"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

func (s Span) dur() float64 { return s.End - s.Start }

// recorder keeps spans in memory; they are written out once, at exit.
type recorder struct {
	epoch time.Time
	trace int
	spans []Span
}

func (r *recorder) span(parent int, name string, fn func()) int {
	id := len(r.spans) + 1
	start := time.Since(r.epoch)
	fn()
	end := time.Since(r.epoch)
	r.spans = append(r.spans, Span{
		Trace: r.trace, ID: id, Parent: parent, Name: name,
		Start: float64(start) / float64(time.Microsecond), End: float64(end) / float64(time.Microsecond),
	})
	return id
}

func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// replayQueries picks the requests to trace: the head of the query list,
// or, when a cache sits in front of the engine, the first queries the
// phase never sent, so that each one takes the miss path the layers are on.
func replayQueries(r *load.Run) []int {
	n := r.Env.Spec.TraceRequests
	sent := map[int32]bool{}
	if r.Env.Spec.CacheBytes > 0 {
		for _, o := range r.Traffic.Order {
			sent[o] = true
		}
	}
	var out []int
	for i := range r.Traffic.Queries {
		if len(out) == n {
			break
		}
		if !sent[int32(i)] {
			out = append(out, i)
		}
	}
	return out
}

func matchJSON(ms []geosir.Match) []server.MatchJSON {
	out := make([]server.MatchJSON, len(ms))
	for i, m := range ms {
		out[i] = server.MatchJSON{ShapeID: m.ShapeID, ImageID: m.ImageID, Distance: m.Distance,
			ContinuousDistance: m.ContinuousDistance, Approximate: m.Approximate}
	}
	return out
}

// annMinShapes mirrors geosir's unexported candidate floor of an
// AnnApprox search, so the probe span asks the index what a search asks.
func annMinShapes(k int) int {
	if n := 12 * k; n > 64 {
		return n
	}
	return 64
}

// replay sends each chosen request over HTTP under a root span, then
// re-executes it layer by layer in call-tree order: the engine's Search,
// each shard's Search standalone, and under each shard the query
// preparation and the kernel match (or the hash lookup, or the ANN probe).
// A parent's self time is its duration minus its children's; where the
// re-executed children outlast the parent (shards searched alone do not
// share a bound, and every child runs warm after its parent) the excess is
// clamped at 0 and reported as trace.unaccounted_share.
func replay(r *load.Run, se *geosir.ShardedEngine, ref *geosir.Engine) ([]Span, error) {
	ctx := context.Background()
	rep, spec := r.Report, r.Env.Spec
	rec := &recorder{epoch: time.Now()}
	var engCPU, refCPU time.Duration
	var overlap, overlapN float64
	queries := replayQueries(r)
	for ti, qi := range queries {
		q := r.Traffic.Queries[qi]
		mode, err := geosir.ParseMode(q.Mode)
		if err != nil {
			return nil, err
		}
		ann, err := geosir.ParseAnnMode(q.Ann)
		if err != nil {
			return nil, err
		}
		req := geosir.SearchRequest{Query: q.Shape, K: load.K, Mode: mode, Ann: ann, Exec: geosir.ExecSequential}
		body := load.EncodeSearch(q.Shape, q.Mode, q.Ann, "sequential")
		rec.trace = ti + 1

		var got load.Sample
		root := rec.span(0, "request", func() { got = r.Env.Search(body) })
		if got.Status != http.StatusOK {
			return nil, fmt.Errorf("replayed query %d answered %d: %s", qi, got.Status, got.Body)
		}
		wire, err := load.Decode(got.Body)
		if err != nil {
			return nil, err
		}

		var resp *geosir.SearchResponse
		c0 := cpuNow()
		eng := rec.span(root, "engine", func() { resp, err = se.Search(ctx, req) })
		engCPU += cpuNow() - c0
		if err != nil {
			return nil, fmt.Errorf("engine search of query %d: %w", qi, err)
		}
		direct := load.Canon(matchJSON(resp.Matches))
		if direct != wire.Canon {
			rep.Problem("query %d: the HTTP answer differs from the engine's own", qi)
		}

		for i := 0; i < se.NumShards(); i++ {
			sh := se.Shard(i)
			if !sh.Frozen() || sh.NumShapes() == 0 {
				continue
			}
			sid := rec.span(eng, fmt.Sprintf("shard.%d", i), func() { _, err = sh.Search(ctx, req) })
			if err != nil {
				return nil, fmt.Errorf("shard %d search of query %d: %w", i, qi, err)
			}
			var pq *core.PreparedQuery
			rec.span(sid, "core.prepare", func() { pq, err = core.PrepareQuery(q.Shape) })
			if err != nil {
				return nil, err
			}
			switch {
			case mode != geosir.ModeApproximate:
				rec.span(sid, "core.match", func() { _, _, err = sh.Base().Match(q.Shape, load.K) })
				if err != nil {
					return nil, err
				}
			case ann == geosir.AnnApprox && sh.ANNIndex() != nil:
				ix := sh.ANNIndex()
				rec.span(sid, "annindex.probe", func() { ix.Probe(ix.Signature(pq.Entry().Poly), annMinShapes(load.K)) })
			default:
				tab := sh.HashTable()
				rec.span(sid, "geohash.lookup", func() { tab.Lookup(tab.Family().Characteristic(pq.Entry().Poly.Pts), 0) })
			}
		}

		c0 = cpuNow()
		single, err := ref.Search(ctx, req)
		refCPU += cpuNow() - c0
		if err != nil {
			return nil, fmt.Errorf("reference search of query %d: %w", qi, err)
		}
		if mode == geosir.ModeExact && !spec.Ingest && load.Canon(matchJSON(single.Matches)) != direct {
			rep.Problem("query %d: sharded answer is not byte-identical to the single engine's", qi)
		}
		if ann == geosir.AnnApprox {
			exact := single
			if mode != geosir.ModeExact {
				req.Mode, req.Ann = geosir.ModeExact, geosir.AnnOff
				if exact, err = ref.Search(ctx, req); err != nil {
					return nil, err
				}
			}
			want := map[int]bool{}
			for _, m := range exact.Matches {
				want[m.ShapeID] = true
			}
			for _, m := range resp.Matches {
				if want[m.ShapeID] {
					overlap++
				}
			}
			overlapN += float64(len(exact.Matches))
		}
	}
	if overlapN > 0 {
		rep.PerLayer.Set("annindex.recall_vs_exact", overlap/overlapN, "ratio")
	}
	if refCPU > 0 {
		rep.PerLayer.Set("shard.amplification", float64(engCPU)/float64(refCPU), "ratio")
	}
	summarize(r, queries, rec.spans)
	return rec.spans, nil
}

// summarize turns the spans of the replayed queries into the ledger's
// timings.
func summarize(r *load.Run, queries []int, spans []Span) {
	byTrace := map[int][]Span{}
	for _, s := range spans {
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}
	var roots, overhead, engine, sum, max, skew, saving, prepare, match, wrapper []float64
	var rootTotal, clampTotal float64
	for _, ts := range byTrace {
		children := map[int]float64{}
		for _, s := range ts {
			children[s.Parent] += s.dur()
		}
		var root, eng, shardSum, shardMax, shardN, matchSum float64
		for _, s := range ts {
			if self := s.dur() - children[s.ID]; self < 0 {
				clampTotal -= self
			}
			switch {
			case s.Name == "request":
				root = s.dur()
			case s.Name == "engine":
				eng = s.dur()
			case strings.HasPrefix(s.Name, "shard."):
				shardSum += s.dur()
				shardN++
				if s.dur() > shardMax {
					shardMax = s.dur()
				}
			case s.Name == "core.prepare":
				prepare = append(prepare, s.dur())
			case s.Name == "core.match":
				matchSum += s.dur()
			}
		}
		rootTotal += root
		roots = append(roots, root/1000)
		overhead = append(overhead, (root-eng)/1000)
		engine = append(engine, eng/1000)
		sum = append(sum, shardSum/1000)
		max = append(max, shardMax/1000)
		if shardSum > 0 {
			skew = append(skew, shardMax/(shardSum/shardN))
		}
		saving = append(saving, (shardSum-eng)/1000)
		if matchSum > 0 {
			match = append(match, matchSum/1000)
			wrapper = append(wrapper, (shardSum-matchSum)/1000)
		}
	}
	m := r.Report.PerLayer
	r.Report.Samples["traced_requests"] = len(byTrace)
	m.Set("server.overhead_ms", load.Median(overhead), "ms")
	m.Set("shard.engine_ms", load.Median(engine), "ms")
	m.Set("shard.sum_ms", load.Median(sum), "ms")
	m.Set("shard.max_ms", load.Median(max), "ms")
	m.Set("shard.skew", load.Median(skew), "ratio")
	m.Set("shard.bound_saving_ms", load.Median(saving), "ms")
	m.Set("core.prepare_us", load.Median(prepare), "us")
	m.Set("core.match_ms", load.Median(match), "ms")
	m.Set("core.wrapper_ms", load.Median(wrapper), "ms")
	if rootTotal > 0 {
		m.Set("trace.unaccounted_share", clampTotal/rootTotal, "ratio")
	}

	// The untraced counterpart of the replayed round trips: the same
	// queries' first sends in the phase, or, behind a cache, the phase's
	// misses (the replayed queries were never sent there).
	traced := map[int32]bool{}
	for _, qi := range queries {
		traced[int32(qi)] = true
	}
	var untraced []float64
	seen := map[int32]bool{}
	for _, s := range r.Phase.Searches {
		if s.Status != http.StatusOK || s.Insert {
			continue
		}
		if r.Env.Spec.CacheBytes > 0 {
			if s.Cache == "miss" {
				untraced = append(untraced, float64(s.Dur)/float64(time.Millisecond))
			}
		} else if traced[s.Query] && !seen[s.Query] {
			seen[s.Query] = true
			untraced = append(untraced, float64(s.Dur)/float64(time.Millisecond))
		}
	}
	if u := load.Median(untraced); u > 0 {
		m.Set("trace.overhead_share", load.Median(roots)/u-1, "ratio")
	}
}

func writeSpans(path string, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
