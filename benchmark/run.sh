#!/usr/bin/env bash
# The one command: build what the benchmark drives, then run it.
#
#   bash benchmark/run.sh                      four timed runs, then four traced units
#   bash benchmark/run.sh --agree              two timed sets, compared against the bounds
#   bash benchmark/run.sh --list               the workloads and why each exists
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#                                              one run (what BENCHMARK.json's driver calls)
#   --out <dir>                                where traces and scratch go (benchmark/out)
#
# Run from the repository root. Exits non-zero when a run is not correct.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# With CARGO_TARGET_DIR set (the driver does) both builds share it;
# otherwise each package keeps its own target directory.
worker_dir="${CARGO_TARGET_DIR:-target}"
bench_dir="${CARGO_TARGET_DIR:-benchmark/target}"

# The real worker, from the root workspace, exactly as `cargo build
# --release` ships it; then the benchmark package.
cargo build --release --offline --quiet -p datamime --bin datamime-worker
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

# One malloc arena: peak RSS then depends on what the program allocates,
# not on which thread happened to allocate it.
export MALLOC_ARENA_MAX=1

mode=(--suite)
for arg in "$@"; do
  case "$arg" in
    --workload|--list|--agree|--suite) mode=() ;;
  esac
done

exec "$bench_dir/release/datamime-benchmark" \
  --worker-bin "$worker_dir/release/datamime-worker" \
  "${mode[@]}" "$@"
