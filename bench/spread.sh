#!/usr/bin/env bash
# Runs every workload N times (default 5), alternating seeds 1 and 2, and
# prints each end-to-end metric's median, quartiles, IQR/median and
# max/min - 1 over the runs. Further arguments pass through to
# amdmbbench, e.g. --seconds 10. Run it from the repository root:
#
#   bash bench/spread.sh 5
set -euo pipefail
n="${1:-5}"
shift || true
exec bash bench/run.sh --spread "$n" "$@"
