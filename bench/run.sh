#!/usr/bin/env bash
# Builds the benchmark's two binaries from source and runs bench with the
# given arguments, from the repo root. Everything it writes stays inside
# the checkout: build cache, binaries, temp files and snapshot data under
# .bench_build/, reports and traces under bench/out/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
root=$PWD
build=$root/.bench_build
mkdir -p "$build/bin" "$build/tmp" "$build/gopath" "$build/config"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp TMPDIR=$build/tmp
# The go command keeps its env file and telemetry counters under the user's
# config directory; point that into the checkout too.
export XDG_CONFIG_HOME=$build/config GOENV=off
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
export GOMAXPROCS=2
command -v go >/dev/null || PATH=$PATH:/usr/local/go/bin

# bench must build; layers imports the internal packages it probes and is
# allowed to break without taking the end-to-end ledger with it (a
# --trace 1 run then fails when bench cannot start it).
(cd bench && go build -o "$build/bin/bench" .) >&2
if ! (cd bench && go build -o "$build/bin/layers" ./layers) >&2; then
	echo "bench/run.sh: bench/layers does not build; --trace 1 runs will fail" >&2
	rm -f "$build/bin/layers"
fi
exec "$build/bin/bench" "$@"
