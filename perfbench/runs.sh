#!/usr/bin/env bash
# Runs one workload on n consecutive seeds, the way the benchmark is run
# for its spread and comparisons, and prints each run's result line:
#
#   bash perfbench/runs.sh smallcnn_probe 1 10 > runs.jsonl
#   bash perfbench/runs.sh daemon_mixed 1 5 --slow store.list=1.3 > slowed.jsonl
#
# Extra arguments go to every run. Each run's metric table goes to $LOG
# (default: discarded). Run from the repository root.
set -euo pipefail
wl=$1 first=$2 n=$3
shift 3
secs=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
for ((s = first; s < first + n; s++)); do
	bash perfbench/run.sh --workload "$wl" --seed "$s" --seconds "$secs" --trace 0 "$@" 2>>"${LOG:-/dev/null}" | tail -1
done
