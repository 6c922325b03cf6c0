#!/usr/bin/env bash
# Builds the lab benchmark and the simulation daemon from this checkout's
# sources into .bench_build/ and runs the benchmark. Run it from the
# repository root:
#
#   bash labbench/run.sh --workload paper --seed 1 --seconds 30 --trace 0
#
# The Go build cache, temporary files and tool state all stay under
# .bench_build/, so nothing outside the checkout is written.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/labbench/go.mod" ]]; then
	echo "labbench: run from the repository root (no go.mod, internal/ or labbench/go.mod here)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/gotmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOTELEMETRY=off

(cd "$root/labbench" && go build -o "$out/bin/labbench" . && go build -o "$out/bin/simd" repro/cmd/simd)
exec "$out/bin/labbench" -root "$root" "$@"
