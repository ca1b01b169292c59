#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs one workload.
#
#   bash perfbench/run.sh --workload repro|durable|adserver --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays under .bench_build/ at the
# checkout root: the Go build cache and temporary files, the binary,
# scratch event logs and checkpoints, and the span files of traced runs.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/home" "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$here" && go build -o "$build/perfbench" .) >&2

cd "$root"
exec "$build/perfbench" "$@"
