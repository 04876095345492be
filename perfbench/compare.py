#!/usr/bin/env python3
"""Compare two benchmark result sets under the benchmark's own bounds.

    python3 perfbench/compare.py PARENT CHANGE
    python3 perfbench/compare.py RESULTS

PARENT and CHANGE are files (or directories of *.jsonl files) written by
``run.py --record`` (``record.py`` records both sides, alternating). For
every workload and end-to-end metric present on both sides, prints each
side's median and quartiles and a verdict: better, no worse, worse, or
unresolved when a side spreads wider than the metric's bound (see
stats.verdict). A throughput metric gets a verdict only on the workloads
it is the headline of (HEADLINE); elsewhere it restates that workload's
one timed measurement in other units, so its verdict would repeat the
headline's. Runs pair by seed when both sides ran the same seeds,
otherwise in file order. Exits 1 when any verdict is "worse" or any run
was incorrect, else 0.

Given one result set, prints its median, quartiles and spread (the
inter-quartile distance over the median) per workload and metric, and
exits 1 when a spread other than setup_s's reaches a third of the
metric's bound: the steadiness the benchmark needs.
"""

import glob
import json
import os
import sys

sys.dont_write_bytecode = True
import stats  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))

# The workloads each throughput metric is the headline of. Every workload
# prints every end-to-end metric; set-up time and memory are measured on
# each one, but a workload has one timed measurement, and the throughput
# metrics not listed for it restate that measurement.
HEADLINE = {
    "sim_ips": ("run-cpu", "run-mem"),
    "runs_per_s": ("campaign", "campaign-process"),
    "explore_s": ("explore",),
}


def judged(workload, metric):
    """Whether compare() gives this workload and metric a verdict."""
    return workload in HEADLINE.get(metric, (workload,))


def load(path):
    """Untraced records of a file or directory, grouped by workload."""
    files = sorted(glob.glob(os.path.join(path, "*.jsonl"))) \
        if os.path.isdir(path) else [path]
    runs = {}
    for name in files:
        with open(name) as f:
            for line in f:
                if not line.strip():
                    continue
                rec = json.loads(line)
                if rec["trace"] == 0:
                    runs.setdefault(rec["workload"], []).append(rec)
    return runs


def paired(parent, change):
    """The two lists of records, paired by seed when the seeds match."""
    p_seeds = [r["seed"] for r in parent]
    c_seeds = [r["seed"] for r in change]
    if sorted(p_seeds) == sorted(c_seeds) and len(set(p_seeds)) == len(p_seeds):
        by_seed = {r["seed"]: r for r in change}
        return parent, [by_seed[s] for s in p_seeds]
    n = min(len(parent), len(change))
    return parent[:n], change[:n]


def values(records, metric):
    return [r["result"]["metrics"][metric]["value"] for r in records
            if metric in r["result"]["metrics"]]


def compare(parent_runs, change_runs, metrics):
    """Rows of (workload, metric, parent quartiles, change quartiles, verdict)."""
    rows = []
    for workload in sorted(set(parent_runs) & set(change_runs)):
        p_recs, c_recs = paired(parent_runs[workload], change_runs[workload])
        for m in metrics:
            p = values(p_recs, m["name"])
            c = values(c_recs, m["name"])
            if not p or not c or not judged(workload, m["name"]):
                continue
            rows.append((workload, m["name"], stats.quartiles(p),
                         stats.quartiles(c),
                         stats.verdict(p, c, m["bound"], m["better"])))
    return rows


def incorrect(runs):
    return sum(1 for recs in runs.values() for r in recs
               if not r["result"]["correct"])


def summary(runs, metrics):
    """Print one result set's spreads; True when all are steady."""
    fmt = "%-17s %-12s %3s %12s %12s %12s %8s %6s  %s"
    print(fmt % ("workload", "metric", "n", "q1", "median", "q3", "spread",
                 "bound", "steady"))
    steady = True
    for workload in sorted(runs):
        for m in metrics:
            v = values(runs[workload], m["name"])
            if not v:
                continue
            q = stats.quartiles(v)
            sp = stats.spread(v)
            ok = m["name"] == "setup_s" or sp < m["bound"] / 3
            steady = steady and ok
            print(fmt % ((workload, m["name"], len(v))
                         + tuple("%.6g" % x for x in q)
                         + ("%.4f" % sp, m["bound"], "yes" if ok else "NO")))
    return steady


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    if len(argv) == 2:
        runs = load(argv[1])
        return 0 if summary(runs, metrics) and not incorrect(runs) else 1
    parent, change = load(argv[1]), load(argv[2])
    rows = compare(parent, change, metrics)
    fmt = "%-17s %-12s %12s %12s %12s | %12s %12s %12s  %s"
    print(fmt % ("workload", "metric", "parent q1", "median", "q3",
                 "change q1", "median", "q3", "verdict"))
    for workload, name, pq, cq, v in rows:
        print(fmt % ((workload, name) + tuple("%.6g" % x for x in pq + cq)
                     + (v,)))
    bad = incorrect(parent) + incorrect(change)
    if bad:
        print("%d incorrect run(s) in the inputs" % bad)
    worse = any(r[4] == "worse" for r in rows)
    return 1 if worse or bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
