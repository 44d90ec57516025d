#!/usr/bin/env bash
# A/A check: two full sets of runs of the same build, the second in the
# opposite workload order, compared metric by metric.
#
#   benchmark/aa.sh [--seed N] [--seconds S]
#
# Prints, per end-to-end metric, both values, the relative difference and the
# bound.  Exits non-zero if any metric disagrees by more than its bound, if
# any failed_share differs, or if the two sets were taken on different hosts.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
workloads=(rewrite_offline materialize serve_interactive serve_churn)

for workload in "${workloads[@]}"; do
    "$here/run.sh" "$@" --workload "$workload" --out "$here/out/aa/a" >/dev/null
done
for ((i = ${#workloads[@]} - 1; i >= 0; i--)); do
    "$here/run.sh" "$@" --workload "${workloads[i]}" --out "$here/out/aa/b" >/dev/null
done

exec "$here/run.sh" --compare "$here/out/aa/a" "$here/out/aa/b"
