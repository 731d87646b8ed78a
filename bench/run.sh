#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run it from the repository root, e.g.
#
#	bash bench/run.sh --workload fig6 --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write (the binary, the Go build cache,
# Go's config and telemetry files, the traced pass's spans) stays under
# .bench_build/ in the repository root.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd bench && go build -o "$build/thermbench" .)
exec "$build/thermbench" "$@"
