#!/usr/bin/env bash
# Builds the perfbench binary from the checkout's sources and runs one
# benchmark workload:
#
#   bash perfbench/run.sh --workload batch --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build output, the Go caches and each
# run's scratch state go to $CARGO_TARGET_DIR when it is set, else to
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
build=${CARGO_TARGET_DIR:-.bench_build}
[[ $build == /* ]] || build="$root/$build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/home"

# Keep the toolchain's caches, temp files and config inside the checkout.
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" TMPDIR="$build/gotmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home" XDG_CACHE_HOME="$build/home"
export GOMODCACHE="$build/home/gomod" GOTOOLCHAIN=local GOWORK=off
export CGO_ENABLED=0

(cd "$root/perfbench" && go build -buildvcs=false -o "$build/perfbench" .) >&2
exec "$build/perfbench" --workdir "$build" "$@"
