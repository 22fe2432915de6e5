// Command geosird is the GeoSIR network daemon: it serves a frozen
// engine loaded from a GSIR1/GSIR2/GSIR3 snapshot over an HTTP JSON API.
//
//	geosird -snapshot base.gsir -addr :8080
//	geosird -snapshot sharded-snapshot-dir/ -addr :8080
//	geosird -snapshot sharded-snapshot-dir/ -load-mode mmap -addr :8080
//
// A directory path serves a ShardedEngine from per-shard snapshot files
// (a damaged shard degrades to partial results and is reported in
// /statz); a file path serves as a one-shard engine, and any damage in it
// fails the load. -load-mode mmap maps
// GSIR3 snapshots and serves the hot sections straight off the page
// cache — open is O(1) in base size and the base may exceed RAM;
// non-GSIR3 snapshots silently fall back to a heap load per file.
//
// Endpoints: POST /v1/search (every retrieval mode), /v1/topological,
// POST /admin/reload, GET /healthz /readyz /metrics /statz. See
// internal/server for the wire format.
//
// Signals: SIGHUP hot-swaps the snapshot (re-reads the active snapshot
// path with zero downtime — the old engine serves until the new one is
// frozen); SIGINT/SIGTERM shut down gracefully, draining in-flight
// requests.
//
// -cache-bytes N enables the query-result cache: canonically
// fingerprinted search responses are served from a bounded LRU with
// singleflight coalescing, invalidated atomically on every snapshot
// hot-swap (see internal/qcache and DESIGN.md §4.11). 0 (the default)
// disables it. Responses carry their disposition in the X-Geosir-Cache
// header.
//
// -pprof 127.0.0.1:6060 additionally serves net/http/pprof on a
// separate debug listener (keep it on loopback); it is off by default.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	geosir "repro"
	"repro/internal/server"
)

func main() {
	var (
		snapshot    = flag.String("snapshot", "", "snapshot file or sharded snapshot directory to serve (required)")
		addr        = flag.String("addr", ":8080", "listen address")
		maxInFlight = flag.Int("max-inflight", 0, "max concurrently executing queries (0 = 4×GOMAXPROCS)")
		maxQueue    = flag.Int("max-queue", 0, "max queued queries before shedding 429 (0 = 4×max-inflight)")
		queueWait   = flag.Duration("queue-wait", 100*time.Millisecond, "max time a query may wait for a slot before shedding 503")
		timeout     = flag.Duration("timeout", 10*time.Second, "per-request execution deadline")
		maxBody     = flag.Int64("max-body", 8<<20, "max request body bytes")
		cacheBytes  = flag.Int64("cache-bytes", 0, "query-result cache budget in bytes (0 = caching off)")
		cacheEnts   = flag.Int("cache-entries", 0, "query-result cache entry bound (0 = derived from -cache-bytes)")
		accessLog   = flag.Bool("access-log", false, "write JSON access logs to stderr")
		drainWait   = flag.Duration("drain", 15*time.Second, "graceful-shutdown drain deadline")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this loopback address (e.g. 127.0.0.1:6060; empty = disabled)")
		ingest      = flag.Bool("ingest", false, "enable live ingestion on a snapshot directory (POST/DELETE /v1/images, background compaction); a snapshot file is refused")
		compactAt   = flag.Int("compact-threshold", 0, "delta shape count that triggers background compaction (0 = default, negative = manual /admin/compact only; needs -ingest)")
		loadMode    = flag.String("load-mode", "heap", "snapshot load mode: heap (decode into memory) or mmap (serve GSIR3 sections off the page cache; non-GSIR3 files fall back to heap)")
	)
	flag.Parse()
	mode, err := geosir.ParseLoadMode(*loadMode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "geosird:", err)
		os.Exit(2)
	}
	cfg := server.Config{
		MaxInFlight:    *maxInFlight,
		MaxQueue:       *maxQueue,
		QueueWait:      *queueWait,
		RequestTimeout: *timeout,
		MaxBodyBytes:   *maxBody,
		CacheBytes:     *cacheBytes,
		CacheEntries:   *cacheEnts,
		LoadMode:       mode,
	}
	if *accessLog {
		cfg.AccessLog = os.Stderr
	}
	if *ingest {
		cfg.Ingest = &server.IngestOptions{CompactThreshold: *compactAt}
	}
	if err := run(*snapshot, *addr, cfg, *drainWait, *pprofAddr); err != nil {
		fmt.Fprintln(os.Stderr, "geosird:", err)
		os.Exit(1)
	}
}

func run(snapshot, addr string, cfg server.Config, drainWait time.Duration, pprofAddr string) error {
	if snapshot == "" {
		return errors.New("need -snapshot FILE")
	}
	logger := log.New(os.Stderr, "geosird: ", log.LstdFlags)
	if cfg.CacheBytes > 0 {
		logger.Printf("query-result cache: %d bytes, singleflight coalescing on", cfg.CacheBytes)
	}
	srv := server.New(cfg)

	start := time.Now()
	info, err := srv.LoadSnapshot(snapshot)
	if err != nil {
		return err
	}
	logger.Printf("loaded %s (%s, %d images, %d shapes, %d entries) in %v",
		snapshot, info.Format, info.Images, info.Shapes, info.Entries,
		time.Since(start).Round(time.Millisecond))
	if srv.Serving().IngestEnabled() {
		logger.Printf("live ingestion on: /v1/images accepts writes (compact threshold %d)",
			cfg.Ingest.CompactThreshold)
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	logger.Printf("serving on %s", ln.Addr())

	// The profiling endpoints live on their own listener, never on the
	// public API mux: -pprof is meant for a loopback address an operator
	// reaches over SSH, and leaving it empty (the default) keeps the
	// debug surface entirely out of the process.
	if pprofAddr != "" {
		dln, err := net.Listen("tcp", pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		logger.Printf("pprof on http://%s/debug/pprof/", dln.Addr())
		go func() {
			dbg := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
			if err := dbg.Serve(dln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Printf("pprof server: %v", err)
			}
		}()
	}

	// SIGHUP → hot snapshot swap; SIGINT/SIGTERM → graceful drain.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			logger.Printf("SIGHUP: reloading %s", snapshot)
			if _, err := srv.LoadSnapshot(snapshot); err != nil {
				logger.Printf("reload failed (still serving previous snapshot): %v", err)
				continue
			}
			e := srv.Serving()
			logger.Printf("reloaded %s (%d images, %d shapes)", snapshot, e.NumImages(), e.NumShapes())
		}
	}()

	term := make(chan os.Signal, 1)
	signal.Notify(term, os.Interrupt, syscall.SIGTERM)
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case sig := <-term:
		logger.Printf("%v: draining in-flight requests (up to %v)", sig, drainWait)
		ctx, cancel := context.WithTimeout(context.Background(), drainWait)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		logger.Printf("drained, bye")
		return nil
	}
}
