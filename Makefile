GO ?= go

# Match-driven benchmarks whose throughput we track across PRs.
QUERY_BENCH := BenchmarkFig2_GeoSIRRetrieval|BenchmarkMatch_Scaling_100images|BenchmarkFindBySketch|BenchmarkFindApproximate

.PHONY: ci vet build test race test-procs ledger bench-check bench-smoke bench-query bench-diff bench-serve bench-shard bench-ann bench-ann-smoke bench-cache bench-cache-smoke bench-ingest bench-throughput throughput-smoke bench-load load-smoke serve-smoke ingest-smoke fuzz-smoke deprecations cover clean

# The gate every PR must pass. The race run includes the persistence
# fault-injection suite; fuzz-smoke gives each fuzz target a short
# budget; serve-smoke boots geosird against a demo snapshot and probes
# every endpoint through geosir-loadgen; ingest-smoke drives the live
# write path (insert → query → compact → query → delete) against a
# geosird started with -ingest; bench-ann-smoke runs the ANN
# recall/speedup benchmarks once on a small base; bench-cache-smoke
# drives a short cached-vs-uncached serving comparison end to end;
# throughput-smoke runs a short concurrency sweep through the scheduler;
# load-smoke serves the same GSIR3 snapshot heap-loaded and mmap-served
# and asserts the mode is live via /statz; deprecations keeps internal
# code off the deprecated Find* wrappers; test-procs re-runs the suites
# whose outcome has depended on the core count at GOMAXPROCS 1 and 2;
# bench-check vets and tests the benchmark's own module (bench/, which
# the root `go test ./...` does not reach).
# Perf-sensitive changes are measured with `make ledger` (the one
# benchmark, BENCHMARK.json); `make bench-diff` still compares a fresh
# bench run against the committed BENCH_query.json baseline (the diff
# also gates on any recall metrics present in both files).
ci: vet deprecations build race test-procs bench-check bench-smoke bench-ann-smoke fuzz-smoke serve-smoke ingest-smoke bench-cache-smoke throughput-smoke load-smoke

vet:
	$(GO) vet ./...

# The deprecated Find* wrappers exist for external callers migrating to
# Search; nothing inside this repo (outside tests, which pin wrapper
# equivalence on purpose) may call them.
deprecations:
	@hits=$$(grep -rnE '\.Find(Similar|Approximate|BySketch)[A-Za-z]*\(' \
		--include='*.go' --exclude='*_test.go' cmd internal || true); \
	if [ -n "$$hits" ]; then \
		echo "deprecated Find* call sites (use Search):"; echo "$$hits"; exit 1; \
	fi; echo "deprecations: clean"

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The equivalence suites (sharded, ANN, ingest) are the repo's core
# correctness proof and deliberately exhaustive; under -race on a slow
# box the root package alone runs >10m, so the default per-package
# timeout needs raising.
race:
	$(GO) test -race -timeout 30m ./...

# The shared bound makes per-shard work depend on which shard publishes
# first, and -shard-bench sweeps GOMAXPROCS up to the core count: the two
# latest tier-1 failures (TestShardedMmapEquivalence's stats,
# TestRunShardBench's row count) showed only with >= 2 cores, which the
# CI box does not have. The delta reads a bound its sibling parts publish
# concurrently, and a request's distance field is built once and read by
# every shard goroutine — the same class. Run the affected suites at both
# settings.
test-procs:
	GOMAXPROCS=1 $(GO) test -count=1 -run 'Equivalence|ShardBench|SharedBound|BoundFirst|Delta|Dynamic|Field|EntryFirst' . ./cmd/geosir ./internal/core ./internal/ingest
	GOMAXPROCS=2 $(GO) test -count=1 -run 'Equivalence|ShardBench|SharedBound|BoundFirst|Delta|Dynamic|Field|EntryFirst' . ./cmd/geosir ./internal/core ./internal/ingest

# The repo's one benchmark (bench/README.md, declared in BENCHMARK.json):
# without ARGS a full set — four workloads, each untraced then traced,
# ~3 min; with them one run, e.g.
#
#	make ledger ARGS="--workload exact_8shard --trace 1"
#
# Reports land in bench/out/, build products in .bench_build/.
ledger:
	bash bench/run.sh $(ARGS)

# The benchmark is a Go module of its own: its contract/schema tests and
# demo-20 smoke runs (~15 s) need their own vet and test.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# One iteration of each figure benchmark — catches benchmarks that no
# longer compile or panic, without paying for stable timings.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkFig' -benchtime=1x .

# Short fuzzing budget per target (Go allows one -fuzz pattern per
# package invocation, hence one line each). Catches regressions in the
# snapshot readers and the geometry predicates without a long campaign;
# crashers land in testdata/fuzz/ and re-run as regular tests afterwards.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzLoad$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzLoadV3$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzConvexHull$$' -fuzztime $(FUZZTIME) ./internal/geom
	$(GO) test -run '^$$' -fuzz '^FuzzPointInPolygon$$' -fuzztime $(FUZZTIME) ./internal/geom
	$(GO) test -run '^$$' -fuzz '^FuzzFingerprint$$' -fuzztime $(FUZZTIME) ./internal/qcache

# Coverage with a per-package summary and the repo-wide total.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1

# Headline query-throughput metrics, written to BENCH_query.json so
# successive PRs can compare trajectories.
bench-query:
	$(GO) test -run '^$$' -bench '$(QUERY_BENCH)' -benchmem -benchtime=3x . \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson -out BENCH_query.json

# Re-run the tracked query benchmarks into a scratch file and diff them
# against the committed baseline: per-benchmark ns/op, B/op, and allocs
# deltas, nonzero exit when ns/op regresses by more than 10%. Unlike
# bench-query's quick 3x pass, the diff gate needs low-noise numbers, so
# each benchmark runs for a full BENCHDIFF_TIME (override for slower or
# faster machines).
BENCHDIFF_TIME ?= 1s
bench-diff:
	$(GO) test -run '^$$' -bench '$(QUERY_BENCH)' -benchmem -benchtime=$(BENCHDIFF_TIME) . \
		| $(GO) run ./cmd/benchjson -out /tmp/BENCH_query.new.json
	$(GO) run ./cmd/benchdiff BENCH_query.json /tmp/BENCH_query.new.json

# End-to-end serving check: build the daemon + load generator, freeze a
# tiny demo base into a snapshot, boot geosird on a local port, and hit
# every endpoint once through loadgen -smoke. Runs twice: once over a
# single-engine snapshot file, once over a 4-shard snapshot directory
# (where the smoke also asserts per-shard health via /statz). Fails if
# any probe fails; always tears the daemon down.
SERVE_ADDR ?= 127.0.0.1:18098
SERVE_DIR  ?= /tmp/geosir-serve
serve-smoke:
	@mkdir -p $(SERVE_DIR)
	$(GO) build -o $(SERVE_DIR)/geosir ./cmd/geosir
	$(GO) build -o $(SERVE_DIR)/geosird ./cmd/geosird
	$(GO) build -o $(SERVE_DIR)/loadgen ./cmd/geosir-loadgen
	$(SERVE_DIR)/geosir -demo 20 -snapshot-out $(SERVE_DIR)/base.gsir
	$(SERVE_DIR)/geosir -demo 20 -shards 4 -snapshot-out $(SERVE_DIR)/base-sharded
	@$(SERVE_DIR)/geosird -snapshot $(SERVE_DIR)/base.gsir -addr $(SERVE_ADDR) & \
	pid=$$!; \
	$(SERVE_DIR)/loadgen -addr http://$(SERVE_ADDR) -wait 10s -smoke; rc=$$?; \
	kill $$pid 2>/dev/null; wait $$pid 2>/dev/null; \
	if [ $$rc -ne 0 ]; then rm -rf $(SERVE_DIR); exit $$rc; fi; \
	$(SERVE_DIR)/geosird -snapshot $(SERVE_DIR)/base-sharded -addr $(SERVE_ADDR) & \
	pid=$$!; \
	$(SERVE_DIR)/loadgen -addr http://$(SERVE_ADDR) -wait 10s -smoke -expect-shards 4; rc=$$?; \
	kill $$pid 2>/dev/null; wait $$pid 2>/dev/null; \
	rm -rf $(SERVE_DIR); exit $$rc

# End-to-end live-ingestion check: freeze a demo base into a sharded
# snapshot directory, boot geosird with -ingest, and run loadgen's
# -ingest-smoke sequence — insert a probe image, query it out of the
# delta, compact via /admin/compact, query it out of the frozen shard,
# delete it, and verify it stops matching. Manual compaction keeps the
# sequence deterministic; always tears the daemon down.
INGEST_DIR ?= /tmp/geosir-ingest
ingest-smoke:
	@mkdir -p $(INGEST_DIR)
	$(GO) build -o $(INGEST_DIR)/geosir ./cmd/geosir
	$(GO) build -o $(INGEST_DIR)/geosird ./cmd/geosird
	$(GO) build -o $(INGEST_DIR)/loadgen ./cmd/geosir-loadgen
	$(INGEST_DIR)/geosir -demo 20 -shards 2 -snapshot-out $(INGEST_DIR)/base-sharded
	@$(INGEST_DIR)/geosird -snapshot $(INGEST_DIR)/base-sharded -addr $(SERVE_ADDR) \
		-ingest -compact-threshold -1 & \
	pid=$$!; \
	$(INGEST_DIR)/loadgen -addr http://$(SERVE_ADDR) -wait 10s -ingest-smoke; rc=$$?; \
	kill $$pid 2>/dev/null; wait $$pid 2>/dev/null; \
	rm -rf $(INGEST_DIR); exit $$rc

# Mixed read/write serving benchmark: one geosird with live ingestion on
# (manual compaction, WAL fsync off so the numbers measure the engine,
# not the disk), one loadgen run where each worker interleaves
# -write-ratio inserts/deletes with the read mix. The summary wraps into
# BENCH_ingest.json (mixed QPS, write ratio, write p95); cmd/benchdiff
# auto-detects the report shape and fails on a mixed-QPS regression of
# more than 10% (a changed write ratio refuses to compare):
#
#	go run ./cmd/benchdiff BENCH_ingest.json /tmp/BENCH_ingest.new.json
BENCH_INGEST_SECS  ?= 15s
BENCH_INGEST_CONC  ?= 8
BENCH_INGEST_DEMO  ?= 60
BENCH_INGEST_RATIO ?= 0.2
BENCH_INGEST_OUT   ?= BENCH_ingest.json
bench-ingest:
	@mkdir -p $(INGEST_DIR)
	$(GO) build -o $(INGEST_DIR)/geosir ./cmd/geosir
	$(GO) build -o $(INGEST_DIR)/geosird ./cmd/geosird
	$(GO) build -o $(INGEST_DIR)/loadgen ./cmd/geosir-loadgen
	$(GO) build -o $(INGEST_DIR)/benchjson ./cmd/benchjson
	$(INGEST_DIR)/geosir -demo $(BENCH_INGEST_DEMO) -shards 2 \
		-snapshot-out $(INGEST_DIR)/base-sharded
	@$(INGEST_DIR)/geosird -snapshot $(INGEST_DIR)/base-sharded -addr $(SERVE_ADDR) \
		-max-inflight $(BENCH_INGEST_CONC) -ingest -compact-threshold -1 -wal-nosync & \
	pid=$$!; \
	$(INGEST_DIR)/loadgen -addr http://$(SERVE_ADDR) -wait 10s \
		-duration $(BENCH_INGEST_SECS) -concurrency $(BENCH_INGEST_CONC) \
		-mix search=1 -write-ratio $(BENCH_INGEST_RATIO) -label ingest-mixed \
		-out $(INGEST_DIR)/mixed.json; rc=$$?; \
	kill $$pid 2>/dev/null; wait $$pid 2>/dev/null; \
	if [ $$rc -eq 0 ]; then \
		$(INGEST_DIR)/benchjson -ingest -run $(INGEST_DIR)/mixed.json \
			-out $(BENCH_INGEST_OUT); rc=$$?; \
	fi; \
	rm -rf $(INGEST_DIR); exit $$rc

# Serving latency/throughput benchmark, written to BENCH_serve.json so
# successive PRs can compare serving trajectories. The limiter is sized
# to the closed-loop worker count so the numbers measure query latency,
# not admission shedding.
BENCH_SERVE_CONC ?= 8
BENCH_SERVE_SECS ?= 20s
bench-serve:
	@mkdir -p $(SERVE_DIR)
	$(GO) build -o $(SERVE_DIR)/geosir ./cmd/geosir
	$(GO) build -o $(SERVE_DIR)/geosird ./cmd/geosird
	$(GO) build -o $(SERVE_DIR)/loadgen ./cmd/geosir-loadgen
	$(SERVE_DIR)/geosir -demo 60 -snapshot-out $(SERVE_DIR)/base.gsir
	@$(SERVE_DIR)/geosird -snapshot $(SERVE_DIR)/base.gsir -addr $(SERVE_ADDR) \
		-max-inflight $(BENCH_SERVE_CONC) & \
	pid=$$!; \
	$(SERVE_DIR)/loadgen -addr http://$(SERVE_ADDR) -wait 10s \
		-duration $(BENCH_SERVE_SECS) -concurrency $(BENCH_SERVE_CONC) \
		-out BENCH_serve.json; rc=$$?; \
	kill $$pid 2>/dev/null; wait $$pid 2>/dev/null; \
	rm -rf $(SERVE_DIR); exit $$rc

# Query-result cache benchmark: the same zipfian (s=1.1) search-only
# workload is driven twice over one demo snapshot — once with the cache
# off, once with -cache-bytes set — and the two loadgen summaries merge
# into BENCH_cache.json (baseline QPS, cached QPS, speedup, hit rate).
# Target: >10x served QPS with the cache on. cmd/benchdiff auto-detects
# the report shape and fails on a cached-QPS regression of more than 10%
# or a hit-rate drop of more than 0.02 absolute:
#
#	go run ./cmd/benchdiff BENCH_cache.json /tmp/BENCH_cache.new.json
BENCH_CACHE_SECS  ?= 15s
BENCH_CACHE_CONC  ?= 8
BENCH_CACHE_DEMO  ?= 60
BENCH_CACHE_BYTES ?= 67108864
BENCH_CACHE_OUT   ?= BENCH_cache.json
bench-cache:
	@mkdir -p $(SERVE_DIR)
	$(GO) build -o $(SERVE_DIR)/geosir ./cmd/geosir
	$(GO) build -o $(SERVE_DIR)/geosird ./cmd/geosird
	$(GO) build -o $(SERVE_DIR)/loadgen ./cmd/geosir-loadgen
	$(GO) build -o $(SERVE_DIR)/benchjson ./cmd/benchjson
	$(SERVE_DIR)/geosir -demo $(BENCH_CACHE_DEMO) -snapshot-out $(SERVE_DIR)/base.gsir
	@$(SERVE_DIR)/geosird -snapshot $(SERVE_DIR)/base.gsir -addr $(SERVE_ADDR) \
		-max-inflight $(BENCH_CACHE_CONC) & \
	pid=$$!; \
	$(SERVE_DIR)/loadgen -addr http://$(SERVE_ADDR) -wait 10s \
		-duration $(BENCH_CACHE_SECS) -concurrency $(BENCH_CACHE_CONC) \
		-mix search=1 -dist zipf -zipf-s 1.1 -label cache-off \
		-out $(SERVE_DIR)/cache-off.json; rc=$$?; \
	kill $$pid 2>/dev/null; wait $$pid 2>/dev/null; \
	if [ $$rc -ne 0 ]; then rm -rf $(SERVE_DIR); exit $$rc; fi; \
	$(SERVE_DIR)/geosird -snapshot $(SERVE_DIR)/base.gsir -addr $(SERVE_ADDR) \
		-max-inflight $(BENCH_CACHE_CONC) -cache-bytes $(BENCH_CACHE_BYTES) & \
	pid=$$!; \
	$(SERVE_DIR)/loadgen -addr http://$(SERVE_ADDR) -wait 10s \
		-duration $(BENCH_CACHE_SECS) -concurrency $(BENCH_CACHE_CONC) \
		-mix search=1 -dist zipf -zipf-s 1.1 -label cache-on \
		-out $(SERVE_DIR)/cache-on.json; rc=$$?; \
	kill $$pid 2>/dev/null; wait $$pid 2>/dev/null; \
	if [ $$rc -eq 0 ]; then \
		$(SERVE_DIR)/benchjson -cache -baseline $(SERVE_DIR)/cache-off.json \
			-cached $(SERVE_DIR)/cache-on.json -out $(BENCH_CACHE_OUT); rc=$$?; \
	fi; \
	rm -rf $(SERVE_DIR); exit $$rc

# CI variant: a short two-run comparison on a small base, written to a
# scratch file — exercises the full cache path (fingerprint, LRU,
# coalescing, the header loadgen counts) end to end without committing
# noisy short-run numbers.
bench-cache-smoke:
	$(MAKE) bench-cache BENCH_CACHE_SECS=2s BENCH_CACHE_DEMO=20 \
		BENCH_CACHE_OUT=/tmp/BENCH_cache.smoke.json

# Concurrency-sweep throughput benchmark over the execution scheduler:
# one sharded demo snapshot, one geosird sized so admission control
# never sheds at the deepest sweep level, and two loadgen sweeps over
# the same search-only workload — one per execution policy (auto, which
# adapts per-query fan-out to the in-flight load, and fanout, which
# forces full width per query). The two summaries merge into
# BENCH_throughput.json with one row per (exec, concurrency) pair.
# cmd/benchdiff auto-detects the report shape, matches rows by
# (exec, concurrency), and fails on a QPS regression of more than 10%:
#
#	go run ./cmd/benchdiff BENCH_throughput.json /tmp/BENCH_throughput.new.json
# The demo base is sized so one exact query is tens of milliseconds of
# real kernel work — small enough that concurrency 64 stays inside the
# request deadline, large enough that the fan-out-vs-sequential decision
# moves measurable work (on a tiny base the policies tie and the bench
# proves nothing).
BENCH_TPUT_SECS   ?= 20s
BENCH_TPUT_LEVELS ?= 1,8,64
BENCH_TPUT_DEMO   ?= 200
BENCH_TPUT_SHARDS ?= 8
BENCH_TPUT_OUT    ?= BENCH_throughput.json
TPUT_DIR          ?= /tmp/geosir-tput
bench-throughput:
	@mkdir -p $(TPUT_DIR)
	$(GO) build -o $(TPUT_DIR)/geosir ./cmd/geosir
	$(GO) build -o $(TPUT_DIR)/geosird ./cmd/geosird
	$(GO) build -o $(TPUT_DIR)/loadgen ./cmd/geosir-loadgen
	$(GO) build -o $(TPUT_DIR)/benchjson ./cmd/benchjson
	$(TPUT_DIR)/geosir -demo $(BENCH_TPUT_DEMO) -shards $(BENCH_TPUT_SHARDS) \
		-snapshot-out $(TPUT_DIR)/base-sharded
	@$(TPUT_DIR)/geosird -snapshot $(TPUT_DIR)/base-sharded -addr $(SERVE_ADDR) \
		-max-inflight 128 -max-queue 512 -queue-wait 5s -timeout 25s & \
	pid=$$!; \
	$(TPUT_DIR)/loadgen -addr http://$(SERVE_ADDR) -wait 10s \
		-duration 5s -concurrency 8 -mix search=1 -label warmup \
		>/dev/null; rc=$$?; \
	if [ $$rc -eq 0 ]; then \
		$(TPUT_DIR)/loadgen -addr http://$(SERVE_ADDR) -wait 10s \
			-duration $(BENCH_TPUT_SECS) -concurrency $(BENCH_TPUT_LEVELS) \
			-exec auto -mix search=1 -label tput-auto \
			-out $(TPUT_DIR)/auto.json; rc=$$?; \
	fi; \
	if [ $$rc -eq 0 ]; then \
		$(TPUT_DIR)/loadgen -addr http://$(SERVE_ADDR) -wait 10s \
			-duration $(BENCH_TPUT_SECS) -concurrency $(BENCH_TPUT_LEVELS) \
			-exec fanout -mix search=1 -label tput-fanout \
			-out $(TPUT_DIR)/fanout.json; rc=$$?; \
	fi; \
	kill $$pid 2>/dev/null; wait $$pid 2>/dev/null; \
	if [ $$rc -eq 0 ]; then \
		$(TPUT_DIR)/benchjson -throughput \
			-runs $(TPUT_DIR)/auto.json,$(TPUT_DIR)/fanout.json \
			-out $(BENCH_TPUT_OUT); rc=$$?; \
	fi; \
	rm -rf $(TPUT_DIR); exit $$rc

# CI variant: a short sweep on a small base, written to a scratch file —
# exercises the sweep loop, the exec wire knob, and the benchjson merge
# end to end without committing noisy short-run numbers.
throughput-smoke:
	$(MAKE) bench-throughput BENCH_TPUT_SECS=2s BENCH_TPUT_DEMO=20 \
		BENCH_TPUT_LEVELS=1,4 BENCH_TPUT_OUT=/tmp/BENCH_throughput.smoke.json

# Freeze-scaling benchmark across shard counts, written to
# BENCH_shard.json. Freeze parallelizes one goroutine per shard, so the
# speedup column tracks available cores (the report records cores for
# honest single-core runs); the query column checks fan-out + merge
# didn't regress single-query latency.
BENCH_SHARD_DEMO   ?= 400
BENCH_SHARD_COUNTS ?= 1,2,4,8
bench-shard:
	$(GO) run ./cmd/geosir -demo $(BENCH_SHARD_DEMO) \
		-shard-bench $(BENCH_SHARD_COUNTS) -bench-out BENCH_shard.json
	@cat BENCH_shard.json

# Snapshot open/load benchmark across base sizes, written to
# BENCH_load.json: for each demo size, geosir freezes a base, saves it
# as GSIR2 and GSIR3, and times the GSIR2 decode vs the GSIR3 heap
# assemble vs the GSIR3 mmap open (plus cold-query latency and memory
# on each side, with every response cross-checked mmap vs heap). The
# mmap open should be roughly flat in base size — O(1) — and orders of
# magnitude under the decode; benchjson -load refuses a run where it is
# not faster at all, and cmd/benchdiff auto-detects the report shape
# and fails on an mmap open-time regression of more than 10%:
#
#	go run ./cmd/benchdiff BENCH_load.json /tmp/BENCH_load.new.json
BENCH_LOAD_SIZES ?= 100,400
BENCH_LOAD_OUT   ?= BENCH_load.json
LOAD_DIR         ?= /tmp/geosir-load
bench-load:
	@mkdir -p $(LOAD_DIR)
	$(GO) run ./cmd/geosir -load-bench $(BENCH_LOAD_SIZES) \
		-bench-out $(LOAD_DIR)/load.json
	$(GO) run ./cmd/benchjson -load -run $(LOAD_DIR)/load.json \
		-out $(BENCH_LOAD_OUT)
	@rm -rf $(LOAD_DIR)
	@cat $(BENCH_LOAD_OUT)

# End-to-end mmap-serving check: freeze one demo base into a GSIR3
# snapshot, serve it twice — heap-decoded and mmap-served — and run the
# same endpoint smoke against both; each run also asserts via /statz
# that the daemon is really in the claimed mode (an mmap run must report
# mapped bytes, so a silent heap fallback fails the smoke).
load-smoke:
	@mkdir -p $(LOAD_DIR)
	$(GO) build -o $(LOAD_DIR)/geosir ./cmd/geosir
	$(GO) build -o $(LOAD_DIR)/geosird ./cmd/geosird
	$(GO) build -o $(LOAD_DIR)/loadgen ./cmd/geosir-loadgen
	$(LOAD_DIR)/geosir -demo 20 -snapshot-out $(LOAD_DIR)/base.gsir3
	@$(LOAD_DIR)/geosird -snapshot $(LOAD_DIR)/base.gsir3 -addr $(SERVE_ADDR) & \
	pid=$$!; \
	$(LOAD_DIR)/loadgen -addr http://$(SERVE_ADDR) -wait 10s -smoke \
		-expect-load-mode heap; rc=$$?; \
	kill $$pid 2>/dev/null; wait $$pid 2>/dev/null; \
	if [ $$rc -ne 0 ]; then rm -rf $(LOAD_DIR); exit $$rc; fi; \
	$(LOAD_DIR)/geosird -snapshot $(LOAD_DIR)/base.gsir3 -addr $(SERVE_ADDR) \
		-load-mode mmap & \
	pid=$$!; \
	$(LOAD_DIR)/loadgen -addr http://$(SERVE_ADDR) -wait 10s -smoke \
		-expect-load-mode mmap; rc=$$?; \
	kill $$pid 2>/dev/null; wait $$pid 2>/dev/null; \
	rm -rf $(LOAD_DIR); exit $$rc

# ANN candidate-tier recall/speedup benchmark on the demo base, written
# to BENCH_ann.json. Each approximate benchmark reports recall against
# the exact top-k and speedup over the exact mean latency; benchjson
# records the custom metrics, and cmd/benchdiff fails on a recall drop
# of more than 0.02 absolute. Targets: recall >= 0.95 at >= 5x speedup.
BENCH_ANN_IMAGES ?= 400
bench-ann:
	GEOSIR_ANN_BENCH_IMAGES=$(BENCH_ANN_IMAGES) \
		$(GO) test -run '^$$' -bench 'BenchmarkAnn' -benchtime=10x . \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson -out BENCH_ann.json
	@cat BENCH_ann.json

# CI variant: one iteration on a small base — compiles and exercises the
# full approximate path (probe, cap, bounded scoring, recall metric)
# without paying for stable timings.
bench-ann-smoke:
	GEOSIR_ANN_BENCH_IMAGES=60 \
		$(GO) test -run '^$$' -bench 'BenchmarkAnn' -benchtime=1x .

clean:
	$(GO) clean -testcache
