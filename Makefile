GO ?= go

.PHONY: ci vet build test race test-procs purego ledger bench-check bench-smoke size fuzz-smoke serve-smoke ingest-smoke load-smoke cover clean

# The gate every PR must pass. Performance is not gated here: it is
# measured with `make ledger` (the one benchmark, BENCHMARK.json).
ci: vet build race test-procs purego bench-check bench-smoke fuzz-smoke serve-smoke ingest-smoke load-smoke

# gofmt -l lists every file whose formatting differs; any output fails.
vet:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then echo "gofmt -l:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The model harness (model_test.go: every engine kind, exec width,
# listing order and GOMAXPROCS against one brute-force reference) and the
# ANN and ingest suites are the repo's core correctness proof; under -race
# the root package runs ~8 min on a 2-vCPU box, and longer on a slow one,
# so the per-package timeout is raised. The run includes the persistence
# fault-injection suite.
race:
	$(GO) test -race -timeout 30m ./...

# Scheduling bugs that show only with >= 2 cores — a tier-1 failure (the
# mapped engines' stats, now held by TestShardedMmapEquivalence) once did, and
# the CI box has one: a
# request's distance field is built once and read by every shard
# goroutine's listing, as are the stored vertices' field cells and the
# oracle grids' one walk. Run the affected suites at both settings. Topological reads take no lock: every
# goroutine evaluates its query against the same frozen databases, and a
# live delta's version while a writer appends its successor. Searches
# read a live delta's version while writers append its successors past
# the arrays they share (SearchView: a captured view searched beside the
# writers).
#
# The model harness's tests (PROCS_MODEL, model_test.go) set GOMAXPROCS 1
# and 2 themselves, so they run once, beside the settings' two runs.
#
# `go test -run` passes when nothing matches, so a renamed suite would
# drop out silently: the target first fails unless every package lists a
# test each pattern selects (-list does not apply -skip, hence the grep).
PROCS_RUN := 'Equivalence|BoundFirst|Delta|SearchView|Field|Scan|Seed|SegmentGridDist|Bucket|Floor|ConcurrentTopological'
PROCS_MODEL := '^Test(ExecEquivalence|ShardedEquivalence|ShardedMmapEquivalence|IngestEquivalence|IngestDeleteEquivalence|BoundFirstEquivalence|BucketOrderInvariance|ManySegmentQueryIsScanTopK|ShortBucketExactIsScanTopK)$$'
PROCS_PKGS := . ./internal/core ./internal/ingest ./internal/query ./internal/shapeindex
test-procs:
	@for pkg in $(PROCS_PKGS); do \
		$(GO) test -list $(PROCS_RUN) $$pkg | grep '^Test' | grep -qvE $(PROCS_MODEL) || { echo "test-procs: no test of $$pkg matches $(PROCS_RUN)"; exit 1; }; \
	done
	@$(GO) test -list $(PROCS_MODEL) . | grep -q '^Test' || { echo "test-procs: no test of . matches $(PROCS_MODEL)"; exit 1; }
	GOMAXPROCS=1 $(GO) test -count=1 -run $(PROCS_RUN) -skip $(PROCS_MODEL) $(PROCS_PKGS)
	GOMAXPROCS=2 $(GO) test -count=1 -run $(PROCS_RUN) -skip $(PROCS_MODEL) $(PROCS_PKGS)
	$(GO) test -count=1 -run $(PROCS_MODEL) .

# The geosir_purego build links no unsafe code: mmap.Cast always declines,
# so the codec's portable branch (encoding/binary) is the only decoder and
# encoder there (no other leg compiles cast_purego.go or resident_stub.go),
# and LoadModeMmap falls back to the heap — TestLoadAny and
# TestSnapshotFormatAndSize hold it to load_mode heap and the heap's
# answers. The persistence and serving suites and the harness's
# TestShardedMmapEquivalence (its mapped targets are heap ones there) run
# under it.
purego:
	$(GO) vet -tags geosir_purego ./...
	$(GO) test -tags geosir_purego -run 'GSIR|V3|Mmap|Persist|Snapshot|LoadAny|LoadPartial|Corruption|SaveFile' . ./internal/server

# The repo's one benchmark (bench/README.md, declared in BENCHMARK.json):
# without ARGS a full set — four workloads, each untraced then traced,
# ~3 min; with them one run, e.g.
#
#	make ledger ARGS="--workload exact_8shard --trace 1"
#
# Reports land in bench/out/, build products in .bench_build/.
ledger:
	bash bench/run.sh $(ARGS)

# The benchmark is a Go module of its own, which the root `go test ./...`
# does not reach: its contract/schema tests and demo-20 smoke runs of all
# four workloads (cache, exec planner, live ingest, mmap; ~15 s) need
# their own vet and test.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# One iteration of each figure and ANN benchmark (the latter on a
# 60-image base under -short), of the kernel benchmarks (the served exact
# search at three base sizes, the hashing stage alone, the approximate
# search, where the query's distance field build is a large share), of
# the exhaustive sketch search, of the topological read (one Engine, 8
# shards, 8 shards with a live delta), of the core kernel's own (the floor
# pass alone, the field build, a shape the field turns away whole), of
# the ANN probe alone, and of a demo-200 snapshot's open (heap and mmap,
# ns/op and B/op beside the ledger's open_ms) — catches benchmarks that no
# longer compile or panic, without paying for stable timings.
bench-smoke:
	$(GO) test -short -run '^$$' -bench 'BenchmarkFig|BenchmarkAnn|BenchmarkMatch_Scaling|BenchmarkBucketScoring|BenchmarkSearchApproximate|BenchmarkSearchDistance|BenchmarkSearchLive|BenchmarkSearchSketch|BenchmarkTopological' -benchtime=1x -benchmem .
	$(GO) test -short -run '^$$' -bench 'BenchmarkFloors|BenchmarkDistFieldBuild|BenchmarkFieldReject' -benchtime=1x ./internal/core
	$(GO) test -short -run '^$$' -bench 'BenchmarkAnnProbe' -benchtime=1x ./internal/annindex
	$(GO) test -short -run '^$$' -bench 'BenchmarkOpenV3' -benchtime=1x -benchmem .

# The size figures ROADMAP's "Size" notes and gates quote, in lines:
# tracked non-test and test Go outside bench/, the non-test Go the daemon
# compiles (go list -deps ./cmd/geosird, the standard library left out),
# and the two documents. Not part of ci.
size:
	@printf '%-28s %s\n' 'non-test Go outside bench/' "$$(git ls-files '*.go' | grep -v '_test.go$$' | grep -v '^bench/' | xargs cat | wc -l)"
	@printf '%-28s %s\n' 'test Go outside bench/' "$$(git ls-files '*_test.go' | grep -v '^bench/' | xargs cat | wc -l)"
	@printf '%-28s %s\n' 'geosird compiled non-test' "$$($(GO) list -deps -f '{{if not .Standard}}{{range .GoFiles}}{{$$.Dir}}/{{.}} {{end}}{{end}}' ./cmd/geosird | xargs cat | wc -l)"
	@printf '%-28s %s\n' 'DESIGN.md' "$$(wc -l < DESIGN.md)"
	@printf '%-28s %s\n' 'README.md' "$$(wc -l < README.md)"

# Short fuzzing budget per target (Go allows one -fuzz pattern per
# package invocation, hence one line each). Catches regressions in the
# snapshot readers, the geometry predicates and transforms, the distance oracle, the
# query's distance field and the evaluator behind it without a long campaign;
# crashers land in testdata/fuzz/ and re-run as regular tests afterwards.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzLoad$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzLoadV3$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzConvexHull$$' -fuzztime $(FUZZTIME) ./internal/geom
	$(GO) test -run '^$$' -fuzz '^FuzzPointInPolygon$$' -fuzztime $(FUZZTIME) ./internal/geom
	$(GO) test -run '^$$' -fuzz '^FuzzTransformApplied$$' -fuzztime $(FUZZTIME) ./internal/geom
	$(GO) test -run '^$$' -fuzz '^FuzzSegmentGridDist$$' -fuzztime $(FUZZTIME) ./internal/shapeindex
	$(GO) test -run '^$$' -fuzz '^FuzzDistField$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzDistWithin$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzEdgeDist$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzFingerprint$$' -fuzztime $(FUZZTIME) ./internal/qcache

# The daemon smokes share one recipe: build geosir, geosird and
# geosir-smoke into SMOKE_DIR, then for each leg freeze a demo-20
# snapshot, boot geosird on it, run the prober against it and tear the
# daemon down, whatever the outcome. A leg is
# "<geosir snapshot flags>|<geosird flags>|<geosir-smoke flags>"; the
# first failing leg fails the target.
SMOKE_ADDR ?= 127.0.0.1:18098
SMOKE_DIR  ?= /tmp/geosir-smoke
define daemon_smoke
@rm -rf $(SMOKE_DIR) && mkdir -p $(SMOKE_DIR)
@for cmd in geosir geosird geosir-smoke; do \
	$(GO) build -o $(SMOKE_DIR)/$$cmd ./cmd/$$cmd || exit 1; \
done
@rc=0; n=0; for leg in $(1); do \
	n=$$((n+1)); snap=$(SMOKE_DIR)/snap$$n; \
	freeze=$${leg%%|*}; leg=$${leg#*|}; serve=$${leg%%|*}; probe=$${leg#*|}; \
	$(SMOKE_DIR)/geosir -demo 20 $$freeze -snapshot-out $$snap || { rc=1; break; }; \
	$(SMOKE_DIR)/geosird -snapshot $$snap -addr $(SMOKE_ADDR) $$serve & pid=$$!; \
	$(SMOKE_DIR)/geosir-smoke -addr http://$(SMOKE_ADDR) -wait 10s $$probe; rc=$$?; \
	kill $$pid 2>/dev/null; wait $$pid 2>/dev/null; \
	[ $$rc -eq 0 ] || break; \
done; rm -rf $(SMOKE_DIR); exit $$rc
endef

# Every query endpoint over a snapshot file, then over a 4-shard snapshot
# directory, each also asserting per-shard health via /statz: the file
# serves as a one-shard engine.
serve-smoke:
	$(call daemon_smoke,"||-smoke -expect-shards 1" "-shards 4||-smoke -expect-shards 4")

# The live write path (insert → query → compact → query → delete) against
# a geosird started with -ingest; manual compaction keeps the sequence
# deterministic.
ingest-smoke:
	$(call daemon_smoke,"-shards 2|-ingest -compact-threshold -1|-ingest-smoke")

# One GSIR3 snapshot served heap-decoded, then mmap-served; each run
# asserts via /statz that the daemon is really in the claimed mode (an
# mmap run must report mapped bytes, so a silent heap fallback fails).
load-smoke:
	$(call daemon_smoke,"||-smoke -expect-load-mode heap" "|-load-mode mmap|-smoke -expect-load-mode mmap")

# Coverage with a per-package summary and the repo-wide total.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1

clean:
	$(GO) clean -testcache
