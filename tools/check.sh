#!/bin/sh
# Build and test every supported configuration: plain release, ASan, the
# tsan-labelled concurrency tests under ThreadSanitizer, a gcov
# line-coverage gate on the protection subsystem, and the chaos leg
# (process-isolation crash taxonomy plus a scripted supervisor-kill /
# --resume recovery smoke). This is the pre-merge gate; CMakePresets.json
# defines the same configurations for interactive use
# (cmake --preset release, etc.).
#
# Usage: tools/check.sh [release|asan|tsan|coverage|chaos|ckpt ...]
#        (default: all six)

set -eu

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
jobs=${SMTAVF_CHECK_JOBS:-$(nproc 2>/dev/null || echo 2)}
presets=${*:-"release asan tsan coverage chaos ckpt"}

# The protection subsystem (search, pruning proof, cost model, CLI
# parsing) carries correctness arguments that only hold if its branches
# stay exercised; the gate fails the build when src/protect/ line
# coverage drops below this floor (measured 95.6% at gate introduction).
coverage_gate=94
# The fetch-policy layer gets its own (slightly lower) floor: the PRAT
# differential/property suite plus the policy unit tests must keep the
# throttling arithmetic exercised end to end.
policy_coverage_gate=90
# The CLI option table (src/cli/): every row, validator and cross-flag
# rule is reached by the run/campaign/protect fuzz suites.
cli_coverage_gate=95

for preset in $presets; do
    build="$repo/build-$preset"
    echo "==> [$preset] configure"
    case $preset in
      release) cmake -S "$repo" -B "$build" \
                     -DCMAKE_BUILD_TYPE=RelWithDebInfo ;;
      asan)    cmake -S "$repo" -B "$build" \
                     -DCMAKE_BUILD_TYPE=RelWithDebInfo \
                     -DSMTAVF_SANITIZE=address ;;
      tsan)    cmake -S "$repo" -B "$build" \
                     -DCMAKE_BUILD_TYPE=RelWithDebInfo \
                     -DSMTAVF_SANITIZE=thread ;;
      coverage) cmake -S "$repo" -B "$build" \
                      -DCMAKE_BUILD_TYPE=Debug \
                      -DSMTAVF_COVERAGE=ON ;;
      chaos)   cmake -S "$repo" -B "$build" \
                     -DCMAKE_BUILD_TYPE=RelWithDebInfo ;;
      ckpt)    cmake -S "$repo" -B "$build" \
                     -DCMAKE_BUILD_TYPE=RelWithDebInfo ;;
      *) echo "unknown preset: $preset (want release, asan, tsan," \
              "coverage, chaos or ckpt)" >&2
         exit 2 ;;
    esac

    echo "==> [$preset] build"
    cmake --build "$build" -j "$jobs"

    echo "==> [$preset] test"
    if [ "$preset" = tsan ]; then
        # Only the concurrency surface needs the (slow) TSan pass.
        (cd "$build" && ctest -L tsan --output-on-failure -j "$jobs")
    elif [ "$preset" = chaos ]; then
        # The fork/signal/rlimit surface: directed child-death
        # classification, crash-safe journal fsck, and the differential
        # thread-vs-process suites (tests/test_isolate.cc). The ASan leg
        # re-runs these under instrumentation via the full suite.
        (cd "$build" && ctest -L chaos --output-on-failure -j "$jobs")

        # Supervisor-crash recovery smoke: kill -9 the campaign
        # supervisor mid-flight, then prove `--resume` completes the
        # campaign and that the recovered journal carries exactly the
        # bytes of an uninterrupted run. Journals are canonicalized
        # (fingerprint-sorted, deduplicated) through merge-journals so
        # record completion order cannot mask or fake a difference.
        echo "==> [$preset] supervisor kill -9 / --resume smoke"
        cli="$build/tools/smtavf_cli"
        tmp=$(mktemp -d)
        trap 'rm -rf "$tmp"' EXIT
        args="--contexts 2 --instructions 400000 --isolate process \
              --jobs 2 --master-seed 99"
        # shellcheck disable=SC2086  # word splitting is the point
        "$cli" campaign $args --journal "$tmp/ref.journal" >/dev/null
        # shellcheck disable=SC2086
        "$cli" campaign $args --journal "$tmp/crash.journal" \
            >/dev/null 2>&1 &
        victim=$!
        sleep 0.4
        kill -9 "$victim" 2>/dev/null || true
        wait "$victim" 2>/dev/null || true
        # (If the kill won the race with the journal open, resume from
        # an empty journal -- the recovery path must handle that too.)
        [ -f "$tmp/crash.journal" ] || : > "$tmp/crash.journal"
        # Appends are atomic single write()s, so even a SIGKILL'd
        # supervisor must leave a journal fsck calls clean.
        "$cli" journal fsck "$tmp/crash.journal" >/dev/null
        # shellcheck disable=SC2086
        "$cli" campaign $args --journal "$tmp/crash.journal" --resume \
            >/dev/null
        "$cli" merge-journals --out "$tmp/ref.canon" \
            "$tmp/ref.journal" >/dev/null
        "$cli" merge-journals --out "$tmp/crash.canon" \
            "$tmp/crash.journal" >/dev/null
        cmp "$tmp/ref.canon" "$tmp/crash.canon"
        rm -rf "$tmp"
        trap - EXIT
    elif [ "$preset" = ckpt ]; then
        # Checkpoint/restore surface: the serializer/envelope/differential
        # unit suites, then an end-to-end smoke against the installed
        # binary — capture mid-run, SIGKILL a second in-flight copy after
        # its capture lands, restore from the orphaned file, and require
        # the restored run's report to carry exactly the bytes of the run
        # that checkpointed and continued (docs/CHECKPOINT.md: restore is
        # bit-identical to the *checkpointing* run, which drains at the
        # boundary, not to an uninterrupted run). Damage rejection must
        # exit with the dedicated checkpoint code 4.
        (cd "$build" && ctest --output-on-failure -j "$jobs" -R \
            'Serializer|CheckpointEnvelope|CheckpointRestore|CkptDifferential|ReportRestore|AvfIntervalSeries|SharedWarmupCampaign')

        echo "==> [$preset] checkpoint kill/restore smoke"
        cli="$build/tools/smtavf_cli"
        tmp=$(mktemp -d)
        trap 'rm -rf "$tmp"' EXIT
        args="--mix 2ctx-mix-A --instructions 300000 --seed 5"
        # Reference: capture at 150k, keep going to 300k.
        # shellcheck disable=SC2086  # word splitting is the point
        "$cli" run $args --checkpoint-at 150000 \
            --checkpoint-out "$tmp/ref.ckpt" --csv > "$tmp/ref.txt"
        # Victim: same run, killed once its checkpoint hits the disk.
        # shellcheck disable=SC2086
        "$cli" run $args --checkpoint-at 150000 \
            --checkpoint-out "$tmp/victim.ckpt" --csv \
            > "$tmp/victim.txt" 2>/dev/null &
        victim=$!
        # Wait for the capture to land fully: a nonzero size that is
        # stable across two polls (killing mid-write would make the
        # restore below reject a torn file and fail the leg).
        prev=-1
        while kill -0 "$victim" 2>/dev/null; do
            size=$(wc -c 2>/dev/null < "$tmp/victim.ckpt" || echo 0)
            [ "$size" -gt 0 ] && [ "$size" = "$prev" ] && break
            prev=$size
            sleep 0.05
        done
        kill -9 "$victim" 2>/dev/null || true
        wait "$victim" 2>/dev/null || true
        [ -s "$tmp/victim.ckpt" ] # the capture must have survived
        # Restore from the orphan and finish the victim's run; the
        # report must be byte-identical to the reference run's.
        # shellcheck disable=SC2086
        "$cli" run $args --restore "$tmp/victim.ckpt" --csv \
            > "$tmp/restored.txt"
        cmp "$tmp/ref.txt" "$tmp/restored.txt"

        # Fill order across the drained boundary: the MSHR maps land fills
        # in bucket order, so the capturing run must renew them at the
        # boundary as a restore starts fresh. This run's DL1-tag AVF
        # differed from its restore's while the grown maps were kept.
        echo "==> [$preset] checkpoint boundary fill-order smoke"
        args="--mix 8ctx-mem-A --seed 12 --instructions 60000"
        # shellcheck disable=SC2086
        "$cli" run $args --checkpoint-at 30000 \
            --checkpoint-out "$tmp/mem.ckpt" --json > "$tmp/mem-ref.json"
        # shellcheck disable=SC2086
        "$cli" run $args --restore "$tmp/mem.ckpt" --json \
            > "$tmp/mem-restored.json"
        cmp "$tmp/mem-ref.json" "$tmp/mem-restored.json"

        # Damage rejection: exit code 4, distinct from sim failure (1)
        # and usage (2).
        cp "$tmp/ref.ckpt" "$tmp/flip.ckpt"
        printf 'X' | dd of="$tmp/flip.ckpt" bs=1 seek=200 conv=notrunc \
            2>/dev/null
        head -c 100 "$tmp/ref.ckpt" > "$tmp/trunc.ckpt"
        for case in "--restore $tmp/flip.ckpt" \
                    "--restore $tmp/trunc.ckpt" \
                    "--restore $tmp/ref.ckpt --seed 6"; do
            set +e
            # shellcheck disable=SC2086
            "$cli" run --mix 2ctx-mix-A --instructions 300000 --seed 5 \
                $case >/dev/null 2>&1
            st=$?
            set -e
            if [ "$st" -ne 4 ]; then
                echo "run $case: expected exit 4, got $st" >&2
                exit 1
            fi
        done
        rm -rf "$tmp"
        trap - EXIT
    elif [ "$preset" = coverage ]; then
        # An unoptimized instrumented full suite would be slow for no
        # extra signal: the gates price src/protect/ and src/policy/
        # only, so run the tests that exercise those surfaces.
        (cd "$build" && ctest --output-on-failure -j "$jobs" -R \
            'ProtScheme|ProtectionConfig|ProtectedRun|CostModel|Coverage|Explorer|BeamProperties|ProtectCliFuzz|RunCliFuzz|CampaignCliFuzz|CliHelp|CampaignCsv|PolicyProperties|PolicyTest|FactoryTest')
        echo "==> [$preset] gate"
        python3 "$repo/tools/coverage_gate.py" "$build" \
            src/protect/ "$coverage_gate" \
            src/policy/ "$policy_coverage_gate" \
            src/cli/ "$cli_coverage_gate"
    else
        (cd "$build" && ctest --output-on-failure -j "$jobs")
    fi

    if [ "$preset" = release ]; then
        # Smoke-run the throughput benchmark so a perf-harness regression
        # (link error, crashed fixture) is caught pre-merge. Full timed
        # runs live in tools/bench.sh / the nightly CI job.
        echo "==> [$preset] bench smoke"
        "$build/bench/bench_micro_sim" --benchmark_min_time=0.05 \
            --benchmark_filter='BM_SimulatedInstructions' >/dev/null

        # End-to-end flag validation: malformed protect invocations,
        # counts too large for their field (which used to wrap silently),
        # shard specs with trailing junk or a count past 32 bits, output
        # flags --replicas would drop, and non-finite durations must exit
        # 2 (usage error) without starting a run. The unit-level
        # equivalents are tests/test_explorer_fuzz.cc and
        # tests/test_cli_fuzz.cc; this leg pins the parser-to-exit-code
        # wiring in the installed binary.
        echo "==> [$preset] cli flag smoke"
        small='--contexts 2 --instructions 2000'
        for bad in 'protect --explore=bogus' 'protect --beam-width 4' \
                   'protect --resume' \
                   'protect --explore=beam --beam-width 0' \
                   'protect --scrub-interval 0' \
                   'protect --explore --scheme parity' \
                   'protect --policy PRAT --prat-epoch 0' \
                   'protect --prat-cap 12' \
                   "campaign --jobs 4294967297 $small" \
                   'campaign --contexts 4294967298 --instructions 2000' \
                   "campaign --retries 4294967296 $small" \
                   "campaign --isolate process --runs-per-child 4294967296 $small" \
                   "campaign --isolate process --child-mem 17592186044416 $small" \
                   'run --replicas 4294967298 --instructions 2000' \
                   "campaign --shard 0/4x $small" \
                   "campaign --shard 0/4/7 $small" \
                   "campaign --shard +0/4 $small" \
                   "campaign --shard 0/+4 $small" \
                   "campaign --shard 0/99999999999 $small" \
                   'run --replicas 2 --json --instructions 2000' \
                   'run --replicas 2 --csv --instructions 2000' \
                   'run --replicas 2 --timeline-csv --instructions 2000' \
                   "campaign --isolate process --hard-timeout inf $small" \
                   "campaign --timeout nan $small" \
                   "campaign --backoff inf $small"; do
            set +e
            # shellcheck disable=SC2086  # word splitting is the point
            "$build/tools/smtavf_cli" $bad >/dev/null 2>&1
            st=$?
            set -e
            if [ "$st" -ne 2 ]; then
                echo "$bad: expected exit 2, got $st" >&2
                exit 1
            fi
        done

        # Batched-child smoke: a --runs-per-child campaign must complete
        # and journal the same canonical records as a one-child-per-run
        # campaign (the byte-level differential lives in
        # tests/test_reuse.cc; this pins the CLI wiring), and the flag
        # must be rejected outside process isolation.
        echo "==> [$preset] --runs-per-child smoke"
        cli="$build/tools/smtavf_cli"
        tmp=$(mktemp -d)
        trap 'rm -rf "$tmp"' EXIT
        args="--contexts 2 --instructions 200000 --isolate process \
              --jobs 2 --master-seed 7"
        # shellcheck disable=SC2086  # word splitting is the point
        "$cli" campaign $args --journal "$tmp/single.journal" >/dev/null
        # shellcheck disable=SC2086
        "$cli" campaign $args --runs-per-child 4 \
            --journal "$tmp/batched.journal" >/dev/null
        "$cli" merge-journals --out "$tmp/single.canon" \
            "$tmp/single.journal" >/dev/null
        "$cli" merge-journals --out "$tmp/batched.canon" \
            "$tmp/batched.journal" >/dev/null
        cmp "$tmp/single.canon" "$tmp/batched.canon"
        set +e
        "$cli" campaign --contexts 2 --instructions 200000 \
            --runs-per-child 4 >/dev/null 2>&1
        st=$?
        set -e
        if [ "$st" -ne 2 ]; then
            echo "--runs-per-child without --isolate process:" \
                 "expected exit 2, got $st" >&2
            exit 1
        fi
        rm -rf "$tmp"
        trap - EXIT
    fi
done

echo "==> all checks passed"
