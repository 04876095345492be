#!/bin/sh
# Run the end-to-end microbenchmark suite (bench_micro_sim plus the
# shared-warmup gate bench_ckpt_warmup) and write the merged
# machine-readable results to BENCH_micro.json at the repo root. This is
# the number the performance work is held to: simulated instructions per
# second at 1/2/4/8 contexts (see docs/PERFORMANCE.md for how to read it),
# and the explorer's simulated-instruction saving from warmup sharing.
# bench_ckpt_warmup exits nonzero — failing the whole script — if the
# shared-warmup frontier is not bit-identical to the per-run-warmup one.
#
# Usage: tools/bench.sh [build-dir]      (default: <repo>/build-release,
#                                         falling back to <repo>/build)
#
# Environment:
#   SMTAVF_BENCH_MIN_TIME     seconds per measurement   (default 4)
#   SMTAVF_BENCH_REPETITIONS  repetitions per benchmark (default 3)

set -eu

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
jobs=${SMTAVF_CHECK_JOBS:-$(nproc 2>/dev/null || echo 2)}
min_time=${SMTAVF_BENCH_MIN_TIME:-4}
reps=${SMTAVF_BENCH_REPETITIONS:-3}

if [ $# -ge 1 ]; then
    build=$1
elif [ -x "$repo/build-release/bench/bench_micro_sim" ]; then
    build=$repo/build-release
else
    build=$repo/build
fi

if [ ! -x "$build/bench/bench_micro_sim" ] ||
   [ ! -x "$build/bench/bench_ckpt_warmup" ]; then
    echo "==> benchmarks not built; configuring $build (Release)"
    cmake -S "$repo" -B "$build" -DCMAKE_BUILD_TYPE=Release
    cmake --build "$build" -j "$jobs" --target bench_micro_sim \
          bench_ckpt_warmup
fi

echo "==> running bench_micro_sim (min_time=${min_time}s x${reps})"
"$build/bench/bench_micro_sim" \
    --benchmark_min_time="$min_time" \
    --benchmark_repetitions="$reps" \
    --benchmark_report_aggregates_only=true \
    --benchmark_format=json \
    --benchmark_out="$repo/BENCH_micro.json.micro" \
    --benchmark_out_format=json

# The explorer runs are seconds each; one repetition is already stable
# on simulated-instruction counts (exact) and indicative on wall-clock.
echo "==> running bench_ckpt_warmup (shared-warmup gate + timings)"
"$build/bench/bench_ckpt_warmup" \
    --benchmark_format=json \
    --benchmark_out="$repo/BENCH_micro.json.ckpt" \
    --benchmark_out_format=json

# Merge the reports: keep bench_micro_sim's context block, append
# bench_ckpt_warmup's benchmark rows.
python3 - "$repo/BENCH_micro.json.micro" "$repo/BENCH_micro.json.ckpt" \
        "$repo/BENCH_micro.json" <<'EOF'
import json, sys
micro = json.load(open(sys.argv[1]))
for extra in sys.argv[2:-1]:
    micro["benchmarks"].extend(json.load(open(extra))["benchmarks"])
json.dump(micro, open(sys.argv[-1], "w"), indent=2)
EOF
rm -f "$repo/BENCH_micro.json.micro" "$repo/BENCH_micro.json.ckpt"

echo "==> wrote $repo/BENCH_micro.json"
