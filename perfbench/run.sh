#!/usr/bin/env bash
# Builds the benchmark and cmd/serve from this checkout's source, then runs
# one workload. Run it from the root of a checkout:
#
#   bash perfbench/run.sh --workload paper-joins --seed 1 --seconds 20 --trace 0
#
# Builds, Go caches and trace files stay under .bench_build/ in the
# checkout. The result is the last line of standard output.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -d "$root/cmd/serve" ]]; then
	echo "perfbench: $root holds no source to build (go.mod, internal/ and cmd/serve/ are missing)" >&2
	exit 2
fi

out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
(cd "$root" && go build -o "$out/serve" ./cmd/serve)
exec "$out/perfbench" -serve "$out/serve" -out "$out" "$@"
