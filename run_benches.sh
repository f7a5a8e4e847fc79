#!/usr/bin/env bash
# Run every paper table/figure binary, logging to results/logs/.
#
# Exits non-zero if any binary fails, but always runs the whole list so one
# bad figure doesn't hide the rest.  Honors MIM_QUICK / MIM_RESULTS_DIR like
# the binaries themselves.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$repo_root"

results_dir="${MIM_RESULTS_DIR:-results}"
mkdir -p "$results_dir/logs"

if [[ ! -x target/release/fig2_counters ]]; then
  echo "building bench binaries (cargo build --release --offline -p mim-bench)" >&2
  cargo build --release --offline -p mim-bench
fi

status=0
for b in fig2_counters table1_treematch fig5_collectives fig6_heatmap fig4_overhead fig7_cg; do
  echo "===== $b start $(date +%T)"
  if ./target/release/"$b" > "$results_dir/logs/$b.log" 2>&1; then
    echo "===== $b done $(date +%T)"
  else
    rc=$?
    status=1
    echo "===== $b FAILED rc=$rc (see $results_dir/logs/$b.log)" >&2
  fi
done

if [[ $status -ne 0 ]]; then
  echo "SOME_BENCH_BINS_FAILED" >&2
else
  echo ALL_BENCH_BINS_DONE
fi
exit "$status"
