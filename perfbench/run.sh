#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload log-c2v --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build output, the Go build cache, the
# span dumps and the temporary WAL directories all go to the directory
# named by CARGO_TARGET_DIR (default .bench_build), inside the checkout.
set -euo pipefail

out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/home"

# The benchmark module replaces the ringrpq module with the checkout
# root, so a directory without the repository's sources fails to build.
(
	cd perfbench
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home" \
		GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" \
		GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod \
		go build -o "$out/perfbench" .
)
exec "$out/perfbench" --out "$out" "$@"
