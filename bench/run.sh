#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments, from
# the repository root whatever the caller's directory. The build cache, the
# compiler's temporary files and the binary live in .bench_build/ at the root,
# so nothing is read or written outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build/tmp
export GOCACHE="$root/.bench_build/gocache" GOTMPDIR="$root/.bench_build/tmp" GOTOOLCHAIN=local
# The commit is stamped into result files where git can tell it; a checkout
# git cannot read (no repository is fine, a refused one is not) builds without.
go build -C bench -o "$root/.bench_build/invarbench" . 2>/dev/null ||
	go build -C bench -buildvcs=false -o "$root/.bench_build/invarbench" .
exec "$root/.bench_build/invarbench" "$@"
