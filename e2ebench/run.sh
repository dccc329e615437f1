#!/usr/bin/env bash
# Builds the end-to-end benchmark from the enclosing checkout and runs
# it with the given arguments:
#
#   bash e2ebench/run.sh --workload part2-sweep --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache, the go command's own state
# (GOPATH, telemetry under the config directory) and span files stay
# under .bench_build/ in the checkout root. Without the repository's
# sources next to this directory the build fails and the script exits
# non-zero.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=
go -C "$here" build -o "$out/e2ebench" . >&2
cd "$root"
exec "$out/e2ebench" "$@"
