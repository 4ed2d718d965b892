#!/usr/bin/env bash
# Slowdown self-test. Makes one layer's calls cost 1.3x their CPU, from the
# benchmark side, and checks with the bounds in BENCHMARK.json that
#   - slowing the Victim wrapper's RunCtx flags smallcnn_probe on the
#     metrics that time victim queries, and leaves daemon_mixed within
#     bounds;
#   - slowing the store wrapper's Campaigns flags daemon_mixed on the
#     metrics that list the store, and leaves smallcnn_probe within bounds;
# and shows how every other metric moved, and how the traced run
# attributes each slowdown (accel.run_cpu_s and store.list_cpu_s).
#
#   bash perfbench/selftest.sh [runs-per-side]    # default 5, from the repo root
#
# Results and logs land in perfbench/out/selftest/.
set -uo pipefail
n=${1:-5}
out=perfbench/out/selftest
mkdir -p "$out"
secs=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
# one <workload> <seed> <result-file> [args]: one untraced run, appended.
one() { bash perfbench/run.sh --workload "$1" --seed "$2" --seconds "$secs" --trace 0 "${@:4}" 2>>"$out/log.txt" | tail -1 >>"$3"; }
# interleave <workload> <prefix>: per seed, a base run and a run with each
# slowdown, in an order that rotates with the seed, so the host's drift
# over the minutes the runs take falls on every side alike.
interleave() {
	local sides=(base accel store) s k
	: >"$2.base.jsonl" && : >"$2.accel.jsonl" && : >"$2.store.jsonl"
	for ((s = 1; s <= n; s++)); do
		for ((k = 0; k < 3; k++)); do
			case ${sides[(s + k) % 3]} in
			base) one "$1" "$s" "$2.base.jsonl" ;;
			accel) one "$1" "$s" "$2.accel.jsonl" --slow accel=1.3 ;;
			store) one "$1" "$s" "$2.store.jsonl" --slow store.list=1.3 ;;
			esac
		done
	done
}
traced() { bash perfbench/run.sh --workload "$1" --seed 1 --seconds "$secs" --trace 1 "${@:2}" 2>>"$out/log.txt" | tail -1; }
status=0
check() { # check <title> <metrics allowed to regress, or none> <base> <new>
	echo "== $1"
	local report regressed ok=1
	report=$(python3 perfbench/compare.py "$3" "$4")
	echo "$report"
	regressed=$(sed -n 's/^regressed: //p' <<<"$report")
	if [ "$2" = none ]; then
		[ "$regressed" = none ] || ok=0
	else
		[ "$regressed" != none ] || ok=0
		for m in ${regressed//,/ }; do
			[[ " $2 " == *" $m "* ]] || ok=0
		done
	fi
	if [ "$ok" = 1 ]; then
		echo "-> as expected"
	else
		echo "-> UNEXPECTED: want some of [$2] flagged and nothing else, got: $regressed"
		status=1
	fi
}

interleave smallcnn_probe "$out/smallcnn"
interleave daemon_mixed "$out/daemon"
traced smallcnn_probe >"$out/smallcnn.base.trace.jsonl"
traced smallcnn_probe --slow accel=1.3 >"$out/smallcnn.accel.trace.jsonl"
traced daemon_mixed >"$out/daemon.base.trace.jsonl"
traced daemon_mixed --slow store.list=1.3 >"$out/daemon.store.trace.jsonl"

check "accel x1.3 on smallcnn_probe: query metrics must regress" "attack_cpu_s read_cpu_p50_ms read_cpu_mean_ms" "$out/smallcnn.base.jsonl" "$out/smallcnn.accel.jsonl"
check "accel x1.3 on daemon_mixed (untouched): within bounds" none "$out/daemon.base.jsonl" "$out/daemon.accel.jsonl"
check "store.list x1.3 on daemon_mixed: store-listing metrics must regress" "read_cpu_p50_ms read_cpu_mean_ms restart_cpu_s" "$out/daemon.base.jsonl" "$out/daemon.store.jsonl"
check "store.list x1.3 on smallcnn_probe (untouched): within bounds" none "$out/smallcnn.base.jsonl" "$out/smallcnn.store.jsonl"
echo "== traced attribution, accel x1.3 on smallcnn_probe"
python3 perfbench/compare.py "$out/smallcnn.base.trace.jsonl" "$out/smallcnn.accel.trace.jsonl" | grep -E '^(accel|self|huffduff|solve|nn\.forward|trace)'
echo "== traced attribution, store.list x1.3 on daemon_mixed"
python3 perfbench/compare.py "$out/daemon.base.trace.jsonl" "$out/daemon.store.trace.jsonl" | grep -E '^(store|self|daemon|restart|trace_)'
exit $status
