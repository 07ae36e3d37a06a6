#!/usr/bin/env python3
"""Self-test of bench_e2e.

    python3 bench_e2e/selftest.py

Run from the repository root. Checks, in short runs (1 s):
  * every workload, untraced and traced, prints a result line with exactly
    the keys correct/attempted/failed/metrics, and exactly the metric names
    and units declared in BENCHMARK.json (end_to_end untraced, per_layer
    traced), each a finite number;
  * in the traced runs, the timed public calls cover at least 90% of the
    request wall time (bench.layer_coverage_frac >= 0.9);
  * a deliberately corrupted expected result set makes the run report
    correct=false with failed requests, so the oracle can actually fail;
  * on seed 4, where SQL q3 hits the known hash_agg defect, q3 is left out
    of the timed mix (bench.known_defect_queries = 1) and nothing else
    fails; this check fails once the defect is fixed, as a reminder to
    delete the defect's entry in src/workloads.cc;
  * in a directory holding only BENCHMARK.json and the benchmark's files,
    run.py exits non-zero without printing a result.
Exits with code 1 on the first failed check.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run as run_py  # noqa: E402  (WORKLOADS)


def check(condition, message):
    if not condition:
        print("selftest: FAIL: " + message)
        sys.exit(1)


def run(workload, trace, extra=(), cwd=ROOT, script=RUN, seed=1):
    command = [sys.executable, script, "--workload", workload,
               "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    command += list(extra)
    return subprocess.run(command, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=1800)


def result_of(done, label):
    check(done.returncode == 0, "%s exited %d:\n%s" % (label, done.returncode,
                                                       done.stderr[-2000:]))
    lines = done.stdout.strip().splitlines()
    check(lines, label + " printed nothing")
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}

    workloads = [w["name"] for w in spec["workloads"]]
    check(sorted(workloads) == sorted(run_py.WORKLOADS),
          "BENCHMARK.json registers %s, run.py runs %s" % (
              workloads, list(run_py.WORKLOADS)))
    for workload in workloads:
        for trace in (0, 1):
            label = "%s --trace %d" % (workload, trace)
            result = result_of(run(workload, trace), label)
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  label + ": unexpected keys " + str(sorted(result)))
            check(result["correct"] is True, label + ": correct is not true")
            check(isinstance(result["attempted"], int) and
                  result["attempted"] >= 1, label + ": attempted < 1")
            check(isinstance(result["failed"], int), label + ": failed")
            metrics = result["metrics"]
            check(set(metrics) == set(declared[trace]),
                  "%s: printed %s, declared %s" % (
                      label, sorted(set(metrics) - set(declared[trace])),
                      sorted(set(declared[trace]) - set(metrics))))
            for name, metric in metrics.items():
                check(metric["unit"] == declared[trace][name],
                      "%s: %s unit %s" % (label, name, metric["unit"]))
                value = metric["value"]
                check(isinstance(value, (int, float)) and math.isfinite(value),
                      "%s: %s is not a finite number" % (label, name))
            if trace:
                coverage = metrics["bench.layer_coverage_frac"]["value"]
                check(coverage >= 0.9, "%s: timed calls cover only %.3f of "
                      "request wall time" % (label, coverage))
            print("selftest: ok   %-22s %d metrics, %d/%d failed" % (
                label, len(metrics), result["failed"], result["attempted"]))

    result = result_of(run("adhoc_sql", 0, ["--corrupt-oracle"]),
                       "corrupted oracle")
    check(result["correct"] is False and result["failed"] > 0,
          "a corrupted expected result set was not reported as a failure")
    print("selftest: ok   corrupted oracle -> correct=false, %d failed" %
          result["failed"])

    result = result_of(run("adhoc_sql", 1, seed=4), "known-defect seed")
    excluded = result["metrics"]["bench.known_defect_queries"]["value"]
    check(result["correct"] is True and result["failed"] == 0 and
          excluded == 1, "seed 4: correct=%s, %d failed, %s known-defect "
          "queries (expected true, 0, 1)" % (result["correct"],
                                            result["failed"], excluded))
    print("selftest: ok   known-defect seed -> q3 left out, 0/%d failed" %
          result["attempted"])

    isolated = os.path.join(ROOT, ".bench_build", "selftest_isolated")
    shutil.rmtree(isolated, ignore_errors=True)
    os.makedirs(isolated)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), isolated)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(isolated, path))
    done = run("adhoc_sql", 0, cwd=isolated,
               script=os.path.join(isolated, "bench_e2e", "run.py"))
    shutil.rmtree(isolated, ignore_errors=True)
    check(done.returncode != 0 and not done.stdout.strip(),
          "run.py without the library sources did not fail cleanly")
    print("selftest: ok   no sources -> exit %d, no result" % done.returncode)
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
