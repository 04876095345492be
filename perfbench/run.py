#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--record FILE]

Run from the root of a checkout. The script builds the harness (a
Release build of perfbench/ and the library sources under src/) in
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), restricts
itself to one logical CPU per physical core, runs the workload, checks
its output digests, and prints one JSON object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json,
with --trace 1 the per-layer ones. --record appends the full result
(metrics, digests, host) to FILE as one JSON line, for compare.py.
See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import stats  # noqa: E402  (after the flag above)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 1
MAX_JOBS = 4


def harness_timeout(seconds):
    """Seconds the harness may take: the measured time, then a traced
    run's replay and probes, with room for a slow host."""
    return 2 * seconds + 120


def die(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--record", help="append the full result to this file")
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        die("--seed must be >= 0 and --seconds >= 1")
    return args


def physical_cpus():
    """One logical CPU per physical core of the allowed set.

    Cores are read from sysfs thread_siblings_list; the first allowed
    sibling of each core is kept and the others, SMT siblings, are left
    out. Without sysfs topology every allowed CPU counts as a core.
    """
    allowed = sorted(os.sched_getaffinity(0))
    chosen, seen = [], set()
    for cpu in allowed:
        path = "/sys/devices/system/cpu/cpu%d/topology/thread_siblings_list" % cpu
        try:
            with open(path) as f:
                core = f.read().strip()
        except OSError:
            core = str(cpu)
        if core not in seen:
            seen.add(core)
            chosen.append(cpu)
    return chosen


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def compiler(build_dir):
    """The C++ compiler recorded in the build's CMake cache."""
    path = None
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    path = line.split("=", 1)[1].strip()
    except OSError:
        return "unknown"
    if not path:
        return "unknown"
    out = subprocess.run([path, "--version"], capture_output=True, text=True)
    return out.stdout.splitlines()[0] if out.stdout else path


def build(build_dir):
    """Configure once, then build; the log goes to stderr on failure."""
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cfg += ["-G", "Ninja"]
        steps.append(cfg)
    steps.append(["cmake", "--build", build_dir, "-j",
                  str(min(MAX_JOBS, os.cpu_count() or 1))])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                die("build failed (%s)" % " ".join(cmd), 1)
    return os.path.join(build_dir, "perfbench_harness")


def metric_value(name, report, notes):
    """A per-layer metric from the harness's direct values or a distribution."""
    if name in report["layers"]:
        return report["layers"][name]
    for suffix in ("_p50", "_tail"):
        if not name.endswith(suffix):
            continue
        base = name[: -len(suffix)]
        if base in report["dists"]:
            values = report["dists"][base]
            if suffix == "_p50":
                return stats.quartiles(values)[1]
            got = stats.tail(values)
        elif base in report["histograms"]:
            buckets = report["histograms"][base]
            if suffix == "_p50":
                return stats.hist_median(buckets)
            got = stats.hist_tail(buckets)
        else:
            return None
        if got is None:
            return None
        value, pct, n = got
        notes.append("%s = %.6g at p%.6g of n=%d" % (name, value, pct, n))
        return value
    return None


def main():
    args = parse_args()
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("library sources not found under %s; run from a full checkout"
            % ROOT)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        die("unknown workload %r (choose from %s)" % (args.workload,
                                                      ", ".join(names)))
    if "SMTAVF_INVARIANTS" in os.environ:
        die("refusing to time with SMTAVF_INVARIANTS set")

    cpus = physical_cpus()
    os.sched_setaffinity(0, cpus)
    jobs = min(MAX_JOBS, len(cpus))

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_root = os.path.join(ROOT, target)
    build_dir = os.path.join(build_root, "perfbench")
    harness = build(build_dir)

    host = {
        "cpus": cpus,
        "jobs": jobs,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": compiler(build_dir),
        "malloc_env": {k: v for k, v in os.environ.items()
                       if k.startswith("MALLOC_")},
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    print("host: " + json.dumps(host, sort_keys=True))

    scratch = os.path.join(build_root, "perfbench-run", "%s-%d"
                           % (args.workload, os.getpid()))
    os.makedirs(scratch, exist_ok=True)
    env = dict(os.environ, TMPDIR=scratch)
    cmd = [harness, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--jobs", str(jobs), "--scratch", scratch]
    timeout = harness_timeout(args.seconds)
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                             timeout=timeout)
    except subprocess.TimeoutExpired:
        die("harness exceeded %d s" % timeout, 1)
    lines = out.stdout.strip().splitlines()
    if out.returncode or not lines:
        die("harness failed with exit code %d" % out.returncode, 1)
    report = json.loads(lines[-1])

    errors = list(report["errors"])
    failed = report["failed"]
    with open(os.path.join(HERE, "reference_digests.json")) as f:
        reference = json.load(f)
    if args.seed == DEFAULT_SEED:
        for key, want in reference[args.workload].items():
            got = report["digests"].get(key)
            if got != want:
                failed += 1
                errors.append("digest %s is %s, reference %s" % (key, got, want))
    for key, value in sorted(report["digests"].items()):
        print("digest %s %s" % (key, value))

    notes = []
    section = bench["per_layer"] if args.trace else bench["end_to_end"]
    source = report["layers"] if args.trace else report["e2e"]
    metrics = {}
    for m in section:
        if args.trace:
            value = metric_value(m["name"], report, notes)
        else:
            value = source.get(m["name"])
        if value is None:
            failed += 1
            errors.append("metric %s missing" % m["name"])
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print("%-28s %16.6g %s" % (m["name"], value, m["unit"]))
    for note in notes:
        print(note)
    for key, value in sorted(report["info"].items()):
        print("info %s %.6g" % (key, value))

    spans = os.path.join(scratch, "spans.jsonl")
    if args.trace and os.path.exists(spans):
        kept = os.path.join(build_root, "perfbench-traces",
                            "%s-seed%d.jsonl" % (args.workload, args.seed))
        os.makedirs(os.path.dirname(kept), exist_ok=True)
        shutil.move(spans, kept)
        print("spans written to " + os.path.relpath(kept, ROOT))
    shutil.rmtree(scratch, ignore_errors=True)
    for e in errors:
        print("FAILED: " + e, file=sys.stderr)

    result = {"correct": failed == 0, "attempted": report["attempted"],
              "failed": failed, "metrics": metrics}
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": args.trace, "host": host,
                                "digests": report["digests"],
                                "info": report["info"], "notes": notes,
                                "result": result}, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True))
    sys.exit(0 if failed == 0 else 1)


if __name__ == "__main__":
    main()
