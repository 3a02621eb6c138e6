#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#   bash perfbench/run.sh --workload sssp-rmat --seed 1 --seconds 10 --trace 0
# Every build artefact, cache and scratch file stays under .bench_build in
# the current directory, so the run writes nothing outside the checkout.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"

export GOCACHE="$out/go-cache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

# A build failure (for example a checkout without the repository's own
# go.mod beside perfbench) exits non-zero before any result is printed.
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out" "$@"
