#!/usr/bin/env python3
"""Line-coverage gate on gcov's JSON output, no gcovr required.

Usage: coverage_gate.py BUILD_DIR SOURCE_PREFIX MIN_PERCENT \
                        [SOURCE_PREFIX MIN_PERCENT ...]

Walks BUILD_DIR for .gcda files left behind by a --coverage run (CMake
option SMTAVF_COVERAGE, driven by `tools/check.sh coverage` over tests
and `tools/check.sh system-coverage` over the benches, examples and
CLI), asks gcov for JSON intermediate output, and aggregates
executable-line coverage over every source file whose repo-relative
path starts with a SOURCE_PREFIX. A line is covered when any
translation unit executed it, so headers shared across TUs are priced
once, at their best count. A function is a source location: it counts
as called when any translation unit called any instantiation of it.

Each (SOURCE_PREFIX, MIN_PERCENT) pair gates independently; the .gcda
walk runs once for all of them. Under each prefix the per-file table
is followed by every function the run never called. Exits 1 when any
prefix's aggregate coverage is below its MIN_PERCENT, 2 on
usage/tooling errors.
"""

import gzip
import json
import os
import subprocess
import sys
import tempfile


def find_gcda(build_dir):
    for root, _dirs, files in os.walk(build_dir):
        for name in files:
            if name.endswith(".gcda"):
                yield os.path.join(root, name)


def gcov_json(gcda, scratch):
    """Run gcov on one .gcda and yield the parsed per-TU JSON blobs."""
    subprocess.run(
        ["gcov", "--json-format", "--branch-probabilities", gcda],
        cwd=scratch,
        check=True,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    for name in os.listdir(scratch):
        if not name.endswith(".gcov.json.gz"):
            continue
        path = os.path.join(scratch, name)
        with gzip.open(path, "rt", encoding="utf-8") as fh:
            yield json.load(fh)
        os.remove(path)


def gate(prefix, min_percent, line_hits, func_calls):
    """Apply one (prefix, floor) pair; return True when it holds."""
    per_file = {}
    for (rel, _line), count in line_hits.items():
        if not rel.startswith(prefix):
            continue
        covered, total = per_file.get(rel, (0, 0))
        per_file[rel] = (covered + (1 if count > 0 else 0), total + 1)
    if not per_file:
        print(f"coverage_gate: no executable lines under {prefix}",
              file=sys.stderr)
        return False

    covered = sum(c for c, _t in per_file.values())
    total = sum(t for _c, t in per_file.values())
    percent = 100.0 * covered / total

    width = max(len(rel) for rel in per_file)
    for rel in sorted(per_file):
        c, t = per_file[rel]
        print(f"  {rel:<{width}}  {100.0 * c / t:6.2f}%  ({c}/{t})")
    print(f"{prefix} line coverage: {percent:.2f}% "
          f"({covered}/{total}), gate {min_percent:.2f}%")

    uncalled = sorted((rel, line, name)
                      for (rel, line), (name, calls) in func_calls.items()
                      if rel.startswith(prefix) and calls == 0)
    print(f"{prefix} functions never called: {len(uncalled)}")
    for rel, line, name in uncalled:
        print(f"  {rel}:{line}  {name}")

    if percent < min_percent:
        print(f"coverage_gate: {percent:.2f}% < {min_percent:.2f}% — "
              "new code under "
              f"{prefix} needs tests (or an agreed gate change)",
              file=sys.stderr)
        return False
    return True


def main(argv):
    if len(argv) < 4 or len(argv) % 2 != 0:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    build_dir = argv[1]
    try:
        gates = [(argv[i], float(argv[i + 1]))
                 for i in range(2, len(argv), 2)]
    except ValueError:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    repo = os.path.dirname(os.path.dirname(os.path.abspath(argv[0])))
    prefixes = tuple(p for p, _m in gates)

    # line_hits[(file, line)] = max execution count over all TUs;
    # func_calls[(file, first line)] = (name, max calls over all TUs and
    # instantiations), the name being the shortest instantiation's.
    line_hits = {}
    func_calls = {}
    gcda_count = 0
    with tempfile.TemporaryDirectory() as scratch:
        for gcda in find_gcda(build_dir):
            gcda_count += 1
            for blob in gcov_json(gcda, scratch):
                for f in blob.get("files", []):
                    path = f["file"]
                    if not os.path.isabs(path):
                        path = os.path.join(build_dir, path)
                    rel = os.path.relpath(os.path.realpath(path), repo)
                    if not rel.startswith(prefixes):
                        continue
                    for line in f.get("lines", []):
                        key = (rel, line["line_number"])
                        count = line["count"]
                        line_hits[key] = max(
                            line_hits.get(key, 0), count)
                    for fn in f.get("functions", []):
                        key = (rel, fn["start_line"])
                        name = fn["demangled_name"]
                        old, calls = func_calls.get(key, (name, 0))
                        func_calls[key] = (min(old, name, key=len), max(
                            calls, fn["execution_count"]))
    if gcda_count == 0:
        print(f"coverage_gate: no .gcda under {build_dir} — "
              "was the build configured with -DSMTAVF_COVERAGE=ON "
              "and the tests run?", file=sys.stderr)
        return 2

    ok = True
    for prefix, min_percent in gates:
        ok = gate(prefix, min_percent, line_hits, func_calls) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
