#!/usr/bin/env bash
# Builds kregret-bench from the checkout it is run in and runs it with
# the given flags. Run it from the repository root:
#
#   bash cmd/kregret-bench/run.sh -workload live-100k -seed 20140331
#
# Every file the build and the run write (Go build cache, temporary
# files, the binary, WAL and snapshot files) stays under .bench_build
# in the current directory; the toolchain is never downloaded.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C cmd/kregret-bench build -o "$out/kregret-bench" .
exec "$out/kregret-bench" "$@"
