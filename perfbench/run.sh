#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments,
# from the repository root. The Go build cache, temporary files and the
# binary stay under .bench_build/ at the root, so a run writes nothing
# outside the checkout; the first run in a checkout compiles the
# standard library and takes longer.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/cache" "$build/tmp" "$build/config"
export GOCACHE="$build/cache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/modcache" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS=-mod=readonly GOWORK=off \
	GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
