#!/usr/bin/env bash
# Builds the perfbench binary from the checkout this script sits in and runs
# it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload nic-wf2q --seed 1 --seconds 10 --trace 0
#
# Every Go cache, temporary file and the binary itself stay under
# .bench_build/ at the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
	XDG_CACHE_HOME="$build/home/.cache" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
