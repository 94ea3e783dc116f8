#!/usr/bin/env bash
# Local CI: the tier-1 gate (ROADMAP.md) plus formatting and lints.
#
#   scripts/ci.sh            # run everything
#   SKIP_TESTS=1 scripts/ci.sh   # lints/format only
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
  echo "==> $*"
  "$@"
}

# Formatting and lints first: they fail fast and never depend on a
# release build. rustfmt can be absent on minimal toolchains, in which
# case the format check is skipped with a notice. Clippy cannot: it
# carries two gates — no panicking shortcuts on the supervised
# evaluation path and no silently discarded results on the
# durability/IPC paths (module-level lint attributes, see
# crates/audit/README.md) — so a missing clippy fails CI.
if cargo fmt --version >/dev/null 2>&1; then
  run cargo fmt --all --check
else
  echo "==> cargo fmt not installed; skipping format check"
fi

if ! cargo clippy --version >/dev/null 2>&1; then
  echo "==> cargo clippy not installed: the panic and discarded-result gates need it" >&2
  exit 1
fi
run cargo clippy --workspace --all-targets -- -D warnings

# The lint probe holds one violation of each of those lints under the
# same attributes, so clippy must fail on it and name exactly these six
# lints: a toolchain that renamed or dropped one cannot pass silently.
probe_lints="clippy::expect_used clippy::let_underscore_must_use clippy::panic \
clippy::unused_result_ok clippy::unwrap_used unused_must_use"
echo "==> cargo clippy on the lint probe (must fail naming: $probe_lints)"
probe_out=$(cargo clippy --offline -q \
  --manifest-path crates/audit/tests/fixtures/lint_probe/Cargo.toml \
  --target-dir target/lint-probe --message-format=json -- -D warnings 2>/dev/null) &&
  { echo "lint probe passed clippy: the lint attributes no longer bite" >&2; exit 1; }
probe_found=$(grep -o '"code":{"code":"[^"]*"' <<<"$probe_out" |
  sed 's/.*"code":"//; s/"$//' | LC_ALL=C sort -u | xargs || true)
if [ "$probe_found" != "$probe_lints" ]; then
  echo "lint probe named [$probe_found], expected [$probe_lints]" >&2
  exit 1
fi

# Section citations resolve: every `DESIGN.md §N` or `PERFORMANCE.md §N`
# in a tracked file (benchmark/ included) must name a `## N.` heading of
# DESIGN.md or docs/PERFORMANCE.md, so renumbering a section cannot leave
# a comment or a document pointing at nothing.
echo "==> section citations"
cite_bad=0
while IFS= read -r hit; do
  cite=${hit##*:}
  n=${cite##*§}
  n=${n# }
  case $cite in
    *PERFORMANCE*) doc=docs/PERFORMANCE.md ;;
    *) doc=DESIGN.md ;;
  esac
  if ! grep -q "^## $n\. " "$doc"; then
    echo "${hit%:*}: \`$cite\` has no '## $n.' heading in $doc" >&2
    cite_bad=1
  fi
done < <(git grep -noE '(DESIGN|PERFORMANCE)\.md`? ?§ ?[0-9]+' || true)
[ "$cite_bad" = 0 ] || exit 1

# Static-analysis gate: three rule families — nondet-taint, layering and
# durability-protocol (tool in crates/audit, policy in its src/policy.rs;
# `unsafe` is refused by the workspace lint at compile time, panics and
# discarded results by the clippy lints above). The wire formats are not
# an audit rule: a golden test beside each version constant (dist
# protocol, run journal, serve manifest) pins it with the bytes it
# governs, in the tier-1 tests below. Runs before the tests — it is fast
# and its findings usually explain any downstream flakiness. The fixture suite
# proves each rule still trips on its violating mini-workspace and
# stays quiet on the clean twin.
run cargo test -q -p datamime-audit --test audit
run cargo run -q -p datamime-audit -- check

# Public-API docs must build warning-free (broken intra-doc links,
# missing docs on public items, invalid doc examples).
echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps -q"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

# Tier-1 gate.
if [ -z "${SKIP_TESTS:-}" ]; then
  run cargo build --release
  run cargo test -q
  # The optimiser's fast-vs-reference proptests and trajectory goldens
  # once more under the release profile: bit identity must hold in the
  # build whose loops are vectorised — the one that ships — not only in
  # the debug build `cargo test -q` exercises.
  run cargo test -q --release -p datamime-bayesopt
  # Likewise the simulator against its line-at-a-time oracle
  # (`RefMachine`, `RefCache`, `RefTlb`): the counters must agree in the
  # build the searches run.
  run cargo test -q --release -p datamime-sim
  # And the profiler's two lanes (main run beside the curve sweep): the
  # golden profiles, the copy counts and the panic/cancel behaviour in
  # the build where the lanes run at full speed side by side.
  run cargo test -q --release -p datamime --test integration_fork
  # And the dataset build (`KvBase::new` on two lanes, then
  # `KvStore::from_base`): the build goldens recorded on the one-pass
  # build, the per-family draw-count property the lane split rests on,
  # the lane-panic tests, the shared-base test (stores built on one base
  # equal fresh builds; a base that does not fit is not used) and the copy
  # isolation test (a copy's SETs never show in the original or another
  # copy), in the build where both halves of the variates fill side by side.
  run cargo test -q --release -p datamime-apps
  # And a sequential run's widened design batches (`Executor::run` with
  # `batch_k = 1` on two or three workers): journals and outcomes must
  # match the one-lane run where the lanes really overlap.
  run cargo test -q --release -p datamime-runtime --test design_lanes
  # The reproduction gate: `run_all` calls all fifteen figure functions in
  # one process, runs each distinct search once (in memory; there is no
  # result cache on disk) and rewrites every `results/<name>.txt`, so
  # diffing against the committed files fails the build on any drift —
  # in the simulator, the optimiser, the profiler's lanes or an
  # experiment — and on any nondeterminism. A panicking figure stops
  # `run_all` non-zero at that figure.
  # The second line of each file records the settings, so a run under a
  # `DATAMIME_*` override cannot pass for the default one.
  run target/release/run_all
  run git diff --exit-code -- results/
  # The stand-alone benchmark package (outside the workspace, so neither
  # command above sees it) calls a pinned slice of the crates' public
  # API; building and unit-testing it here makes API drift fail locally
  # instead of in the benchmark pipeline.
  run cargo build --release --offline --manifest-path benchmark/Cargo.toml
  run cargo test -q --release --offline --manifest-path benchmark/Cargo.toml
  # Search-level rebuild-vs-copy differential: the traced run's shadow
  # search still rebuilds the dataset for every profiler run while the
  # real search copies it, and the run is `correct: false` (non-zero
  # exit) unless both produce the same history checksum.
  run bash benchmark/run.sh --workload kv_curves_seq --seed 1 --seconds 30 --trace 1
  # Fault-injection stress pass: the supervisor must keep runs
  # deterministic and crash-free under injected panics/stalls/NaNs.
  run cargo test -q -p datamime-runtime --features faultinject
  # bench_smoke: the benchmark-harness gate. Runs the fast-vs-reference
  # checksum cross-check (every sim/<k> kernel must fingerprint
  # identically to its scalar/<k> RefCache/RefTlb twin, every
  # bayesopt/<k> kernel to its reference/bayesopt_<k> row-ordered twin),
  # then a short gated measurement of all seventeen kernels against the
  # committed BENCH_sim.json that fails on checksum drift or a median
  # regression beyond the documented threshold (docs/PERFORMANCE.md).
  # The memo accounting harness runs its own smoke first.
  echo "==> bench_smoke"
  run scripts/bench.sh --check
  # The process backend in the release build: a quantized-KV search on
  # pools of 1, 2 and 4 datamime-worker child processes (frames over
  # their stdin and stdout) must match the thread backend in history,
  # winner, best profile and stats, and a faulting run must journal the
  # same records on both backends.
  run cargo test -q --release -p datamime --test integration_dist
  # Service-plane smoke: a short fixed-seed job submitted to
  # datamime-served through `datamime ctl` must complete, the admin
  # plane must report live eval/cache-hit counters, the same job
  # resubmitted must reach the same result from the profile store, and
  # the daemon must drain cleanly on the admin shutdown command.
  run cargo build --release -q -p datamime-serve
  run scripts/serve_smoke.sh
  # Durability torture pass: the crash matrix aborts the daemon at every
  # manifest write and GC boundary and requires bit-identical recovery;
  # the ENOSPC cell requires a graceful read-only drain, and one cell
  # kills the daemon between the two appends of a paired design batch
  # of a sequential job. The
  # process-backend cells exec datamime-worker, so build it first.
  run cargo build -q -p datamime --bin datamime-worker
  run cargo test -q -p datamime-serve --features faultinject
fi

echo "==> CI passed"
