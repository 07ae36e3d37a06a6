#!/usr/bin/env python3
"""Per-layer delta report between two sets of bench_e2e results.

    python3 bench_e2e/compare.py BASE.jsonl NEW.jsonl [--fail-on-regression]

Each file holds the JSON lines that `run.py --out FILE` appends (one line per
run, tagged with workload, seed and trace). For every workload, the report
prints the end-to-end metrics (untraced runs) and then the per-layer metrics
(traced runs): the median of each side, the ratio new/base, and the base it
is taken over. End-to-end rows are marked `worse` when they moved the wrong
way by more than their bound in BENCHMARK.json; `--fail-on-regression` then
exits with code 1.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DECLARED = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            key = (record["workload"], int(record["trace"]))
            runs.setdefault(key, []).append(record["result"])
    return runs


def medians(results):
    values = {}
    units = {}
    for result in results:
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    return {name: statistics.median(v) for name, v in values.items()}, units


def declared_bounds():
    if not os.path.isfile(DECLARED):
        return {}
    with open(DECLARED) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec.get("end_to_end", [])}


def counts(results):
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = all(r["correct"] for r in results)
    return "%d runs, %d/%d failed%s" % (len(results), failed, attempted,
                                        "" if correct else ", INCORRECT")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--fail-on-regression", action="store_true")
    args = parser.parse_args()

    base, new = load(args.base), load(args.new)
    bounds = declared_bounds()
    regressions = 0
    workloads = sorted({w for w, _ in base} | {w for w, _ in new})
    for workload in workloads:
        for trace, title in ((0, "end-to-end"), (1, "per-layer")):
            b_runs = base.get((workload, trace), [])
            n_runs = new.get((workload, trace), [])
            if not b_runs and not n_runs:
                continue
            print("== %s, %s (base: %s; new: %s)" % (
                workload, title, counts(b_runs) if b_runs else "none",
                counts(n_runs) if n_runs else "none"))
            b_med, units = medians(b_runs)
            n_med, n_units = medians(n_runs)
            units.update(n_units)
            print("  %-28s %14s %14s %9s  %s" % ("metric", "base", "new",
                                                 "new/base", "unit"))
            for name in list(b_med) + [n for n in n_med if n not in b_med]:
                b, n = b_med.get(name), n_med.get(name)
                ratio = "" if b in (None, 0) or n is None else "%.3f" % (n / b)
                flag = ""
                spec = bounds.get(name) if trace == 0 else None
                if spec and b and n is not None:
                    change = (n - b) / b
                    worse = change if spec["better"] == "lower" else -change
                    if worse > spec["bound"]:
                        flag = "  worse (bound %.2f)" % spec["bound"]
                        regressions += 1
                fmt = lambda v: "-" if v is None else "%.6g" % v
                print("  %-28s %14s %14s %9s  %s%s" % (
                    name, fmt(b), fmt(n), ratio, units.get(name, ""), flag))
            print()
    if args.fail_on_regression and regressions:
        print("%d end-to-end metric(s) worse than their bound" % regressions)
        sys.exit(1)


if __name__ == "__main__":
    main()
