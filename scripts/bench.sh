#!/usr/bin/env bash
# Simulator-kernel benchmark driver (methodology: docs/PERFORMANCE.md).
#
#   scripts/bench.sh                       # measure, write BENCH_sim.json
#   scripts/bench.sh --baseline OLD.json   # also record before/after speedups
#   scripts/bench.sh --check               # CI gate: fast-vs-reference
#                                          # checksum cross-check (sim/*
#                                          # against scalar/*, bayesopt/*
#                                          # against reference/*), then a
#                                          # 3-rep run gated against the
#                                          # committed BENCH_sim.json —
#                                          # fails on checksum drift OR a
#                                          # >1.6x median regression
#
# Measurements use fixed seeds and report median + IQR ns/op; each kernel
# also emits a counter checksum, and --baseline fails if a checksum moved
# (the optimization changed behaviour, not just speed). A fig10-style
# memo-cache accounting run (memo_fig10, from datamime-experiments) is
# embedded in the report under "memo_fig10".
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=BENCH_sim.json
ARGS=()
CHECK=0
while [ $# -gt 0 ]; do
  case "$1" in
    --check) CHECK=1 ;;
    --baseline) ARGS+=(--baseline "$2"); shift ;;
    -o) OUT="$2"; shift ;;
    *) echo "bench.sh: unknown argument $1" >&2; exit 2 ;;
  esac
  shift
done

echo "==> cargo build --release -p datamime-bench -p datamime-experiments"
cargo build --release -q -p datamime-bench --bin bench_sim \
  -p datamime-experiments --bin memo_fig10

if [ "$CHECK" = 1 ]; then
  target/release/memo_fig10 --check -o /dev/null
  # Behaviour gate: every kernel with a reference twin (scalar
  # RefCache/RefTlb, row-ordered GP stack) must fingerprint identically
  # to it.
  target/release/bench_sim --cross-check
  # Speed gate: 3 reps per kernel against the committed baseline (or the
  # one passed via --baseline). bench_sim exits nonzero on checksum drift
  # or on any median beyond the documented regression threshold.
  if [ ${#ARGS[@]} -eq 0 ]; then
    ARGS=(--baseline BENCH_sim.json)
  fi
  exec target/release/bench_sim --check --reps 3 "${ARGS[@]}"
fi

MEMO_JSON="$(mktemp)"
trap 'rm -f "$MEMO_JSON"' EXIT
target/release/memo_fig10 -o "$MEMO_JSON"
exec target/release/bench_sim -o "$OUT" --memo-json "$MEMO_JSON" "${ARGS[@]}"
