#!/usr/bin/env bash
# Service-plane smoke (wired into scripts/ci.sh): start datamime-served
# on a throwaway state root, drive a short fixed-seed job through
# `datamime ctl`, assert the admin plane reports live eval and cache-hit
# counters, resubmit the job and check it is served from the profile
# store to the same result, and drain the daemon via the admin shutdown
# command.
#
# Expects release binaries (scripts/ci.sh builds them first):
#   target/release/datamime-served, target/release/datamime
set -euo pipefail
cd "$(dirname "$0")/.."

SERVED=target/release/datamime-served
CTL=target/release/datamime

ROOT="$(mktemp -d "${TMPDIR:-/tmp}/datamime-serve-smoke.XXXXXX")"
DAEMON_PID=""
cleanup() {
  [ -n "$DAEMON_PID" ] && kill "$DAEMON_PID" 2>/dev/null || true
  rm -rf "$ROOT"
}
trap cleanup EXIT

# Setting the sentinel env disables the /bin/sh termination trampoline,
# so the PID we spawn is the daemon itself.
export DATAMIME_TERM_SENTINEL="$ROOT/term.sentinel"
"$SERVED" --root "$ROOT" &
DAEMON_PID=$!

for _ in $(seq 1 100); do
  "$CTL" ctl list --root "$ROOT" >/dev/null 2>&1 && break
  sleep 0.1
done
"$CTL" ctl version --root "$ROOT" | grep -q '^datamime-served '

# Jobs and admin share one socket: exactly one socket file under the root.
SOCKETS=$(find "$ROOT" -type s)
[ "$SOCKETS" = "$ROOT/serve.sock" ] || { echo "expected one serve.sock, found: $SOCKETS"; exit 1; }

# A spec the search would panic on is refused, naming the key, and the
# daemon is still healthy afterwards.
if HOSTILE=$("$CTL" ctl submit workload=mem-fb iters=0 --root "$ROOT" 2>&1); then
  echo "iters=0 was accepted: $HOSTILE"; exit 1
fi
echo "$HOSTILE" | grep -q 'iters' || { echo "refusal does not name iters: $HOSTILE"; exit 1; }
"$CTL" ctl health --root "$ROOT" >/dev/null

# Grid-quantized so re-suggested points hit the evaluation memo cache;
# enough iterations that hits actually occur.
JOB=$("$CTL" ctl submit workload=mem-fb iters=48 seed=7 curves=false grid=4 --root "$ROOT")
echo "submitted $JOB"

# The stats endpoint must show a live (nonzero) eval counter while the
# job runs, before completion.
LIVE_EVALS=0
for _ in $(seq 1 600); do
  EVALS=$("$CTL" ctl stats --root "$ROOT" | awk '$2 == "evals" { print $3 }')
  STATE=$("$CTL" ctl status "$JOB" --root "$ROOT" | sed 's/^state=\([a-z]*\).*/\1/')
  if [ "${EVALS:-0}" -gt 0 ] && [ "$STATE" = "running" ]; then
    LIVE_EVALS=$EVALS
    break
  fi
  sleep 0.1
done
[ "$LIVE_EVALS" -gt 0 ] || { echo "no live eval counter appeared"; exit 1; }
echo "live evals: $LIVE_EVALS"

"$CTL" ctl wait "$JOB" --root "$ROOT" --timeout 600
RESULT=$("$CTL" ctl result "$JOB" --root "$ROOT")
echo "$RESULT"

# A sequential job gets two lanes in the daemon (its initial design runs
# two points at a time); the journal header records both numbers.
HEADER=$(head -n 1 "$ROOT/jobs/$JOB/journal.jsonl")
echo "$HEADER" | grep -q '"batch_k":1,"workers":2' \
  || { echo "journal header is not batch_k 1 on two workers: $HEADER"; exit 1; }

# The manifest is one snapshot: manifest.json and no other manifest.* file.
MANIFESTS=$(find "$ROOT" -maxdepth 1 -name 'manifest.*')
[ "$MANIFESTS" = "$ROOT/manifest.json" ] || { echo "expected only manifest.json, found: $MANIFESTS"; exit 1; }

STATS=$("$CTL" ctl stats --root "$ROOT")
echo "$STATS" | awk '$2 == "evals" && $3 > 0 { ok = 1 } END { exit !ok }' \
  || { echo "final evals counter is zero"; echo "$STATS"; exit 1; }
echo "$STATS" | awk '$2 == "cache_hits" && $3 > 0 { ok = 1 } END { exit !ok }' \
  || { echo "cache_hits counter is zero"; echo "$STATS"; exit 1; }
echo "$STATS" | awk '$2 == "jobs_completed" && $3 == 1 { ok = 1 } END { exit !ok }' \
  || { echo "jobs_completed != 1"; echo "$STATS"; exit 1; }

# The same job again: the daemon's profile store serves its target and
# every evaluation it dispatches, so the result is the same bits, the
# memo hits exactly double, and each of job two's dispatched evaluations
# (its observations less its memo hits) plus its target was a reuse.
FIRST_HITS=$(echo "$STATS" | awk '$2 == "cache_hits" { print $3 }')
JOB2=$("$CTL" ctl submit workload=mem-fb iters=48 seed=7 curves=false grid=4 --root "$ROOT")
"$CTL" ctl wait "$JOB2" --root "$ROOT" --timeout 600
RESULT2=$("$CTL" ctl result "$JOB2" --root "$ROOT")
best_lines() { echo "$1" | grep -E '^best_(error|unit)='; }
[ "$(best_lines "$RESULT")" = "$(best_lines "$RESULT2")" ] \
  || { echo "resubmitted job differs:"; echo "$RESULT"; echo "$RESULT2"; exit 1; }
STATS=$("$CTL" ctl stats --root "$ROOT")
stat() { echo "$STATS" | awk -v name="$1" '$2 == name { print $3 }'; }
EVALS=$(stat evals)
HITS=$(stat cache_hits)
REUSES=$(stat profile_reuses)
[ "$HITS" -eq $((2 * FIRST_HITS)) ] \
  || { echo "cache_hits $HITS is not twice $FIRST_HITS"; echo "$STATS"; exit 1; }
[ "$REUSES" -eq $((EVALS / 2 - HITS / 2 + 1)) ] \
  || { echo "profile_reuses $REUSES != $EVALS/2 - $HITS/2 + 1"; echo "$STATS"; exit 1; }
echo "resubmitted: $REUSES profiles reused, $(stat profile_store_entries) stored"

"$CTL" ctl shutdown --root "$ROOT"
wait "$DAEMON_PID"
DAEMON_PID=""
echo "serve smoke passed"
