#!/usr/bin/env bash
# The benchmark's one entry point.  Run from the repository root:
#
#   benchmark/run.sh [--workload NAME|all] [--seed N] [--seconds S]
#                    [--trace [0|1]] [--scale full|check] [--out DIR]
#
# Builds the harness (release, offline) and runs it.  Every metric is printed
# as `name value unit`; the last line of standard output is the JSON object
# the driver reads.  Results go to benchmark/out/<workload>.json (and
# <workload>.trace.json for a traced run) unless --out says otherwise.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# Cargo resolves a relative CARGO_TARGET_DIR against the working directory,
# which this script never changes.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bin rpq-benchmark >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/rpq-benchmark"

RPQ_BENCH_RUSTC="$(rustc --version)"
RPQ_BENCH_COMMIT="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export RPQ_BENCH_RUSTC RPQ_BENCH_COMMIT

case "${1:-}" in
    --compare | --manifest) exec "$bin" "$@" ;;
    *) exec "$bin" --out "$here/out" "$@" ;;
esac
