"""Steadiness check: do two sets of benchmark runs of the same code agree?

    python3 perfbench/steady.py

Runs the command of BENCHMARK.json (from the root of the checkout) ten
times per workload in each of two sets, every run with a seed of its own:
seeds 1 to 10 in the first set, 11 to 20 in the second.  For each workload
and end-to-end metric it prints each set's quartiles, median and spread
(q3 - q1) / median, and whether the metric is steady:

* each set's spread is within the metric's bound.  ``setup_s`` is exempt:
  set-up includes interpreter start and imports, whose time the benchmark
  cannot repeat often enough within a run to make steady, so only its
  medians are held to the bound;
* the second set's median differs from the first's by no more than the
  bound, in either direction.

Spreads above a third of the bound are marked, since the bound must also
absorb the change between commits.  The last line is a JSON summary; the
exit code is 0 only when every run was correct and every metric steady.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 900
SETS = 2
RUNS = 10
SPREAD_EXEMPT = ("setup_s",)


def run_once(bench, workload, seed):
    cmd = list(bench["command"]) + ["--workload", workload, "--seed", str(seed),
                                    "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("%s seed %d exited %d:\n%s"
                           % (workload, seed, proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    values = {(w, m["name"], k): [] for w in workloads for m in bench["end_to_end"]
              for k in range(SETS)}
    all_correct = True
    for k in range(SETS):
        for j in range(RUNS):
            seed = 1 + k * RUNS + j
            for w in workloads:
                res = run_once(bench, w, seed)
                all_correct &= bool(res["correct"])
                line = " ".join("%s=%.6g" % (n, v["value"]) for n, v in res["metrics"].items())
                print("set %d seed %d %-14s correct=%s %s"
                      % (k + 1, seed, w, res["correct"], line), flush=True)
                for name, v in res["metrics"].items():
                    values[(w, name, k)].append(v["value"])

    steady = True
    summary = {}
    print("%-14s %-12s %4s %12s %12s %12s %8s %6s  %s"
          % ("workload", "metric", "set", "q1", "median", "q3", "spread", "bound", "verdict"))
    for w in workloads:
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            first = None
            for k in range(SETS):
                q1, med, q3 = statistics.quantiles(values[(w, name, k)], n=4)
                spread = (q3 - q1) / med
                notes = []
                bad = False
                if spread > bound and name not in SPREAD_EXEMPT:
                    notes.append("SPREAD ABOVE BOUND")
                    bad = True
                elif spread > bound / 3:
                    notes.append("spread above bound/3")
                if first is None:
                    first = med
                else:
                    shift = (med - first) / first
                    moved = abs(shift) > bound
                    bad |= moved
                    notes.append("%s %+.1f%%" % ("MEDIAN MOVED" if moved else "median",
                                                 100 * shift))
                steady &= not bad
                print("%-14s %-12s %4d %12.6g %12.6g %12.6g %8.4f %6.3f  %s"
                      % (w, name, k + 1, q1, med, q3, spread, bound, "; ".join(notes) or "ok"))
                summary.setdefault(w, {}).setdefault(name, []).append(
                    {"q1": q1, "median": med, "q3": q3, "spread": spread})
    print(json.dumps({"correct": all_correct, "steady": steady, "sets": summary}))
    return 0 if all_correct and steady else 1


if __name__ == "__main__":
    sys.exit(main())
