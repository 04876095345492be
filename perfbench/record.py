#!/usr/bin/env python3
"""Record two result sets whose runs alternate.

    python3 perfbench/record.py A.jsonl B.jsonl [--root-b DIR]
                                [--seeds N] [--seconds S] [--traced]

Side A is the checkout this script sits in. Side B is the checkout DIR
(the parent commit, say, with this same perfbench/ directory), or,
without --root-b, this checkout again: two sets of the same code, which
show how far the benchmark moves when nothing changed. Workload by
workload, for each seed 1..N, the two sides run back to back, A first on
odd seeds and B first on even ones, so a drift of the host's speed hits
both sides alike. With --traced, one traced run per workload and side
(seed 1) follows. Every run appends its result to its side's file through
run.py --record; compare.py reads the files. Each checkout builds in
its own .bench_build.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(root, out, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--record", out]
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)  # each checkout builds in its own tree
    code = subprocess.run(cmd, cwd=root, env=env,
                          stdout=subprocess.DEVNULL).returncode
    print("%-16s seed %-3d trace %d %s: exit %d"
          % (workload, seed, trace, root, code), file=sys.stderr)
    return code


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("out_a")
    p.add_argument("out_b")
    p.add_argument("--root-b", default=ROOT)
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--traced", action="store_true")
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    sides = [(ROOT, os.path.abspath(args.out_a)),
             (os.path.abspath(args.root_b), os.path.abspath(args.out_b))]
    failed = 0
    for w in workloads:
        for seed in range(1, args.seeds + 1):
            for root, out in (sides if seed % 2 else sides[::-1]):
                failed += run(root, out, w, seed, args.seconds, 0) != 0
    if args.traced:
        for w in workloads:
            for root, out in sides:
                failed += run(root, out, w, 1, args.seconds, 1) != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
