#!/usr/bin/env bash
# Run every workload at one seed, end to end (--trace 0) and traced
# (--trace 1), and print each run's JSON result line. Run from the
# repository root:
#
#   bash hbbench/all.sh [SEED [SECONDS]]     (defaults: 97, 20)
set -euo pipefail
seed=${1:-97}
seconds=${2:-20}
for workload in signoff whatif query; do
  for trace in 0 1; do
    printf '%s trace=%s ' "$workload" "$trace"
    bash hbbench/run.sh --workload "$workload" --seed "$seed" \
      --seconds "$seconds" --trace "$trace" | tail -n 1
  done
done
