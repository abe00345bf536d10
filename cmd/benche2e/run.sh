#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout it sits in and runs it
# from the checkout root; every argument is passed through. Build outputs,
# the Go build cache and the daemons' data directories all live under
# .bench_build/ so nothing is written outside the checkout.
#
#   bash cmd/benche2e/run.sh --workload ingest-wire --seed 1 --seconds 10 --trace 0
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0

(cd "$here" && go build -o "$out/benche2e" .)
exec "$out/benche2e" -data-dir "$out/benche2e-data" "$@"
