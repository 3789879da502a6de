#!/usr/bin/env bash
# Every end-to-end metric of every workload, each workload in a fresh process.
# usage: bash bench/run_all.sh [seed] [seconds]
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-1}"
seconds="${2:-30}"
for w in $(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))'); do
    python3 bench/run.py --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0
done
