#!/usr/bin/env python3
"""Compares two sets of benchmark results against BENCHMARK.json's bounds.

Each input file holds one result line (the benchmark's last stdout line)
per run. For every end-to-end metric it prints each side's median and
quartiles, the base side's spread (interquartile distance over median),
and whether the new median is worse than the base median by more than the
metric's bound.

    python3 perfbench/compare.py base.jsonl new.jsonl
    python3 perfbench/compare.py --spread runs.jsonl   # one side only

Per-layer result lines (--trace 1) are compared as ratios of medians, with
no bound, to show which layer a change moved.

Exit status is 1 when any bounded metric regressed (with --spread: when
any spread exceeds its metric's bound).
"""
import json
import statistics
import sys


def load(path):
    runs = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line.startswith("{"):
                runs.append(json.loads(line))
    if not runs:
        sys.exit(f"{path}: no result lines")
    return runs


def column(runs, name):
    return [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, _, q3 = quartiles(values)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def main(argv):
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    if argv[:1] == ["--spread"]:
        runs = load(argv[1])
        fails = sum(r["failed"] for r in runs)
        print(f"{len(runs)} runs, correct={all(r['correct'] for r in runs)}, failed={fails}")
        worst = 0.0
        for name, m in bounds.items():
            vals = column(runs, name)
            if not vals:
                continue
            s = spread(vals)
            flag = "" if s <= m["bound"] else "  SPREAD > BOUND"
            worst = max(worst, s / m["bound"])
            print(f"{name:22s} median {statistics.median(vals):12.6g} {m['unit']:6s} spread {s:7.2%} bound {m['bound']:5.0%}{flag}")
        print(f"largest spread/bound: {worst:.2f}")
        return 1 if worst > 1 else 0
    base, new = load(argv[0]), load(argv[1])
    regressed = []
    names = sorted(set(column_names(base)) & set(column_names(new)))
    for name in names:
        b, n = column(base, name), column(new, name)
        bm, nm = statistics.median(b), statistics.median(n)
        m = bounds.get(name)
        if m is None:
            ratio = nm / bm if bm else float("nan")
            print(f"{name:34s} base {bm:12.6g} new {nm:12.6g}  x{ratio:.3f}")
            continue
        worse = (nm - bm) / abs(bm) if m["better"] == "lower" else (bm - nm) / abs(bm)
        verdict = "REGRESSED" if worse > m["bound"] else "ok"
        if verdict == "REGRESSED":
            regressed.append(name)
        bq, nq = quartiles(b), quartiles(n)
        print(f"{name:22s} base {bm:11.5g} [{bq[0]:.4g},{bq[2]:.4g}] new {nm:11.5g} [{nq[0]:.4g},{nq[2]:.4g}] "
              f"worse {worse:+7.2%} bound {m['bound']:4.0%} {verdict}")
    print("regressed: " + (", ".join(regressed) if regressed else "none"))
    return 1 if regressed else 0


def column_names(runs):
    names = set()
    for r in runs:
        names.update(r["metrics"])
    return names


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
