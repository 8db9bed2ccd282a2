#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash servebench/run.sh --workload sync-mix --seed 1 --seconds 20 --trace 0
#
# Build output, the Go build cache and run scratch stay in .bench_build
# inside the checkout ($CARGO_TARGET_DIR when set).
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomod GOPATH=$out/gopath
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/servebench" && go build -o "$out/servebench" .)
exec "$out/servebench" -work "$out" "$@"
