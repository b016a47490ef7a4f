#!/usr/bin/env bash
# Builds the campaign service and the load generator from the checkout
# in the current directory, then runs one benchmark workload. Every
# argument passes through to the load generator:
#
#   bash perfbench/run.sh --workload campaign_mem --seed 1 --seconds 40 --trace 0
#
# Build outputs, the Go build cache and per-run store directories all
# live under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/cpsinw-serve" ]; then
	echo "perfbench: run from the repository root (cmd/cpsinw-serve not found)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOTELEMETRY=off
go build -o "$out/cpsinw-serve" ./cmd/cpsinw-serve >&2
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -server "$out/cpsinw-serve" -work "$out" "$@"
