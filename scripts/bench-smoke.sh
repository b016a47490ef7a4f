#!/usr/bin/env bash
# bench-smoke.sh — scaling-sweep smoke test with a same-run engine
# ratio gate.
#
# Runs the -short BenchmarkFaultSimScaling rows (the ~100-gate mult5
# transistor sweep and the mult16-sa line stuck-at sweep, both engines:
# reference and packed) and fails unless the packed engine beats the
# reference oracle on the same row in the same run by the row's bar:
# 20x on transistor rows (measured at 300-700x), 5x on stuck-at ("-sa")
# rows, whose oracle is itself a 64-pattern packed full re-simulation
# (measured at ~19x). Comparing two
# engines measured by one process on one machine applies the bar
# without trusting cross-machine ns/op, so a packed-engine slowdown of
# an order of magnitude fails CI even on runners much slower than the
# recording machine. The benchmark itself fails if the packed engine's
# detections differ from the reference oracle's in any bit. CI runs
# this as part of the bench-smoke step.
set -euo pipefail

cd "$(dirname "$0")/.."
out=$(go test -short -run '^$' -bench 'BenchmarkFaultSimScaling' -benchtime 3x -timeout 10m .)
echo "$out"

echo "== engine ratio gate (packed >= 20x faster than reference per row, 5x on -sa rows) =="
echo "$out" | awk '
    $4 == "ns/op" && $1 ~ /^BenchmarkFaultSimScaling\// {
        split($1, a, "/")
        row = a[2]
        eng = a[3]
        sub(/-[0-9]+$/, "", eng)   # strip the -GOMAXPROCS suffix
        ns[row "," eng] = $3
        rows[row] = 1
    }
    END {
        if (length(rows) == 0) {
            print "no scaling rows in benchmark output" > "/dev/stderr"
            exit 1
        }
        fail = 0
        for (row in rows) {
            if (!((row ",packed") in ns) || !((row ",reference") in ns)) {
                printf "%s: needs both a packed and a reference measurement\n", row > "/dev/stderr"
                fail = 1
                continue
            }
            packed = ns[row ",packed"]
            ref = ns[row ",reference"]
            bar = (row ~ /-sa$/) ? 5 : 20
            printf "%s: packed %.0f ns/op vs reference %.0f ns/op (%.1fx, bar %dx)\n", \
                row, packed, ref, ref / packed, bar
            if (bar * packed > ref) {
                printf "%s: packed is less than %dx faster than reference\n", row, bar > "/dev/stderr"
                fail = 1
            }
        }
        exit fail
    }
'
echo "bench smoke OK"
