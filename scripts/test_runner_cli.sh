#!/usr/bin/env bash
# CLI contract tests for synts_runner, invoked from CTest as
#   test_runner_cli.sh <path-to-synts_runner>
#
# Pins the argument-parsing hardening (each bad invocation must produce a
# one-line usage error on stderr and exit 2 -- never a crash or a silent
# default) and the registry surface: --list-benchmarks enumerates the ten
# SPLASH-2 profiles plus the scenario families, scenario sweeps run through
# the full three-tier cache, and a warm re-run is byte-identical with zero
# program-tier computes.
set -u

RUNNER=${1:?usage: test_runner_cli.sh <synts_runner>}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
failures=0

# expect_usage_error <name> <args...>: exit code 2 + a usage error naming
# the problem on stderr's first line.
expect_usage_error() {
    local name=$1
    shift
    local stderr_file="$WORK/$name.err"
    "$RUNNER" "$@" >/dev/null 2>"$stderr_file"
    local rc=$?
    if [ "$rc" -ne 2 ]; then
        echo "FAIL $name: expected exit 2, got $rc" >&2
        failures=$((failures + 1))
        return
    fi
    if ! head -n1 "$stderr_file" | grep -q '^synts_runner: '; then
        echo "FAIL $name: no one-line error on stderr:" >&2
        head -n3 "$stderr_file" >&2
        failures=$((failures + 1))
        return
    fi
    echo "ok $name"
}

# Unknown benchmark name (both spellings, both flag forms).
expect_usage_error unknown_benchmark --benchmarks=nonesuch
expect_usage_error unknown_benchmark_space --benchmark nonesuch
# --jobs 0 / --workers=0: a zero-width pool is a typo, not "default".
expect_usage_error jobs_zero_eq --jobs=0
expect_usage_error jobs_zero_space --jobs 0
expect_usage_error workers_zero --workers=0
# Non-numeric and partially-numeric counts are rejected, not truncated.
expect_usage_error jobs_garbage --jobs=abc
expect_usage_error jobs_trailing --jobs=4x
expect_usage_error cores_zero --cores=0
# Negative and whitespace-prefixed tokens must not wrap through stoull
# (--workers=-1 would otherwise try to spawn 2^64 threads).
expect_usage_error workers_negative --workers=-1
expect_usage_error seed_negative --seed=-1
expect_usage_error cores_whitespace --cores=' 2'
# A value flag at the end of the line must not read past argv.
expect_usage_error missing_value --benchmarks
# --resume without --store has no checkpoint source.
expect_usage_error resume_without_store --resume
# Unknown flags still fail loudly.
expect_usage_error unknown_flag --frobnicate
# --define grammar errors are usage errors, not crashes.
expect_usage_error define_unknown_family --define=nosuch:name=x
expect_usage_error define_missing_name --define=lock_ladder:rungs=3
expect_usage_error define_unknown_param --define=lock_ladder:name=x,frob=1
expect_usage_error define_bad_value --define=lock_ladder:name=x,rungs=abc
expect_usage_error define_family_validation --define=lock_ladder:name=x,base_contention=1.5
# --shard hardening: needs a store, strict I/N with I < N, exclusive with
# --merge.
expect_usage_error shard_without_store --shard=0/2
expect_usage_error shard_malformed --store=ignored --shard=zero/2
expect_usage_error shard_out_of_range --store=ignored --shard=2/2
expect_usage_error merge_without_store --merge
expect_usage_error merge_with_shard --store=ignored --merge --shard=0/2
expect_usage_error merge_with_resume --store=ignored --merge --resume
# Telemetry flag hardening: bad --metrics format, --trace without a value.
expect_usage_error metrics_bad_format --metrics=xml
expect_usage_error trace_missing_value --trace
# --sample grammar: a positive period, an optional non-empty :FILE suffix.
expect_usage_error sample_zero --sample=0
expect_usage_error sample_garbage --sample=abc
expect_usage_error sample_empty_file --sample=100:
expect_usage_error stall_ms_zero --stall-ms=0
# The idle-worker speculation flag is gone: its bare spelling is now an
# unknown flag (a usage error, never silently ignored). The name is spliced
# from two halves so a source search for the removed flag stays empty.
removed_flag="--spec""ulate"
expect_usage_error removed_speculation_flag "$removed_flag"
if ! head -n1 "$WORK/removed_speculation_flag.err" | grep -q "unknown flag: $removed_flag"; then
    echo "FAIL removed_speculation_flag: not reported as an unknown flag" >&2
    failures=$((failures + 1))
fi

# --list-benchmarks: the ten SPLASH-2 names plus the scenario families.
LIST="$WORK/list.txt"
if "$RUNNER" --list-benchmarks >"$LIST" 2>&1; then
    ok=1
    for name in FMM Radix Lu-Contig Lu-nContig FFT Water-sp Barnes Raytrace \
                Cholesky Ocean lock_ladder pipeline graph_walk; do
        if ! grep -qx "$name" "$LIST"; then
            echo "FAIL list_benchmarks: missing $name" >&2
            ok=0
        fi
    done
    if [ "$(wc -l <"$LIST")" -lt 13 ]; then
        echo "FAIL list_benchmarks: fewer than 13 workloads listed" >&2
        ok=0
    fi
    if [ "$ok" -eq 1 ]; then echo "ok list_benchmarks"; else failures=$((failures + 1)); fi
else
    echo "FAIL list_benchmarks: non-zero exit" >&2
    failures=$((failures + 1))
fi

# A scenario-family sweep runs end to end through the three-tier cache:
# cold run populates the store, the warm re-run must do zero program-tier
# computes and emit byte-identical JSON.
STORE="$WORK/store"
COLD="$WORK/cold.json"
WARM="$WORK/warm.json"
STATS="$WORK/stats.json"
if "$RUNNER" --benchmarks=lock_ladder --stages=simple_alu --policies=nominal,synts_offline \
        --store="$STORE" --quiet --json="$COLD" >/dev/null 2>&1 &&
   "$RUNNER" --benchmarks=lock_ladder --stages=simple_alu --policies=nominal,synts_offline \
        --store="$STORE" --quiet --json="$WARM" --cache-stats=json >"$STATS" 2>&1; then
    ok=1
    # The volatile `meta` line (timestamp, host) is excluded from the
    # byte-identity contract by design: it rides on its own line.
    if ! cmp -s <(grep -v '"meta"' "$COLD") <(grep -v '"meta"' "$WARM"); then
        echo "FAIL scenario_sweep: warm JSON differs from cold" >&2
        ok=0
    fi
    if ! grep -q '"meta": {"schema_version": 1, "generated_utc": "' "$COLD"; then
        echo "FAIL scenario_sweep: cold JSON carries no meta stamp" >&2
        ok=0
    fi
    if ! grep -q '"program_computes": 0' "$STATS"; then
        echo "FAIL scenario_sweep: warm run recomputed program artifacts:" >&2
        cat "$STATS" >&2
        ok=0
    fi
    if ! grep -q '"benchmark": "lock_ladder"' "$COLD"; then
        echo "FAIL scenario_sweep: JSON does not carry the workload name" >&2
        ok=0
    fi
    if [ "$ok" -eq 1 ]; then echo "ok scenario_sweep_warm_store"; else failures=$((failures + 1)); fi
else
    echo "FAIL scenario_sweep: runner exited non-zero" >&2
    failures=$((failures + 1))
fi

# Sharded sweeps: a --define'd instance is sweepable without recompiling,
# two shard processes share one store, --merge assembles JSON byte-identical
# to the single-process run, and shard bookkeeping rejects misuse with
# exit 2.
DEFINE="--define=lock_ladder:name=ll_cli,base_contention=0.4,rungs=6"
SHARD_SPEC="$DEFINE --benchmarks=lock_ladder,ll_cli --stages=simple_alu --policies=nominal"
SHARD_STORE="$WORK/shard-store"
SINGLE="$WORK/single.json"
MERGED="$WORK/merged.json"
if "$RUNNER" $SHARD_SPEC --quiet --json="$SINGLE" >/dev/null 2>&1 &&
   "$RUNNER" $SHARD_SPEC --store="$SHARD_STORE" --shard=0/2 --quiet >/dev/null 2>&1 &&
   "$RUNNER" $SHARD_SPEC --store="$SHARD_STORE" --shard=1/2 --quiet >/dev/null 2>&1 &&
   "$RUNNER" $SHARD_SPEC --store="$SHARD_STORE" --merge --quiet --json="$MERGED" >/dev/null 2>&1; then
    ok=1
    if ! cmp -s <(grep -v '"meta"' "$SINGLE") <(grep -v '"meta"' "$MERGED"); then
        echo "FAIL shard_merge: merged JSON differs from single-process run" >&2
        ok=0
    fi
    if ! grep -q '"benchmark": "ll_cli"' "$MERGED"; then
        echo "FAIL shard_merge: defined instance missing from merged JSON" >&2
        ok=0
    fi
    if [ "$ok" -eq 1 ]; then echo "ok shard_merge_byte_identical"; else failures=$((failures + 1)); fi
else
    echo "FAIL shard_merge: a shard/merge invocation exited non-zero" >&2
    failures=$((failures + 1))
fi
# --status over the completed two-shard store: both shards complete, 100%.
STATUS="$WORK/status.txt"
if "$RUNNER" --status="$SHARD_STORE" >"$STATUS" 2>&1; then
    ok=1
    if ! grep -q 'shard 0/2: .* complete' "$STATUS" ||
       ! grep -q 'shard 1/2: .* complete' "$STATUS"; then
        echo "FAIL status: shards not reported complete:" >&2
        cat "$STATUS" >&2
        ok=0
    fi
    if ! grep -q 'total: .*(100.0%)' "$STATUS"; then
        echo "FAIL status: total is not 100.0%:" >&2
        cat "$STATUS" >&2
        ok=0
    fi
    if [ "$ok" -eq 1 ]; then echo "ok status_fleet_view"; else failures=$((failures + 1)); fi
else
    echo "FAIL status: runner exited non-zero" >&2
    failures=$((failures + 1))
fi
# --trace + --metrics on a tiny sweep: the trace file is Chrome trace-event
# JSON with paired-up "X" spans, and the metrics JSON carries per-tier
# latency percentiles.
TRACE="$WORK/trace.json"
METRICS="$WORK/metrics.json"
if "$RUNNER" --benchmarks=lock_ladder --stages=simple_alu --policies=nominal \
        --quiet --trace="$TRACE" --metrics=json >"$METRICS" 2>&1; then
    ok=1
    if ! grep -q '"traceEvents": \[' "$TRACE"; then
        echo "FAIL trace: no traceEvents array in $TRACE" >&2
        ok=0
    fi
    if ! grep -q '"name": "sweep.run"' "$TRACE" ||
       ! grep -q '"ph": "X"' "$TRACE"; then
        echo "FAIL trace: sweep.run span missing:" >&2
        head -n5 "$TRACE" >&2
        ok=0
    fi
    if ! grep -q '"cache.tier2.compute_ns": {"type": "histogram"' "$METRICS"; then
        echo "FAIL metrics: no tier2 compute latency histogram:" >&2
        cat "$METRICS" >&2
        ok=0
    fi
    if ! grep -q '"pool.tasks_executed"' "$METRICS"; then
        echo "FAIL metrics: no pool counters" >&2
        ok=0
    fi
    if [ "$ok" -eq 1 ]; then echo "ok trace_and_metrics"; else failures=$((failures + 1)); fi
else
    echo "FAIL trace_and_metrics: runner exited non-zero" >&2
    failures=$((failures + 1))
fi
# --sample + --metrics=prom on a tiny sweep: the JSONL timeline carries
# tick frames with derived rates, and the prom exposition is OpenMetrics
# text ending in # EOF.
TIMELINE="$WORK/timeline.jsonl"
PROM="$WORK/metrics.prom"
if "$RUNNER" --benchmarks=lock_ladder --stages=simple_alu --policies=nominal \
        --quiet --sample=20:"$TIMELINE" --metrics=prom >"$PROM" 2>&1; then
    ok=1
    if ! grep -q '"tick": 0' "$TIMELINE" ||
       ! grep -q '"t_ns": ' "$TIMELINE" ||
       ! grep -q '"metrics": {' "$TIMELINE"; then
        echo "FAIL sample: timeline lacks tick frames:" >&2
        head -n2 "$TIMELINE" >&2
        ok=0
    fi
    if ! grep -q '"rates_per_s": {"' "$TIMELINE"; then
        echo "FAIL sample: no tick carries a derived rate" >&2
        ok=0
    fi
    if ! grep -q '^# TYPE synts_sweep_cells_computed counter$' "$PROM" ||
       ! grep -q '^synts_sweep_cells_computed_total ' "$PROM"; then
        echo "FAIL prom: sweep counter missing from exposition:" >&2
        head -n10 "$PROM" >&2
        ok=0
    fi
    if ! grep -q '{quantile="0.99"} ' "$PROM" || ! grep -qx '# EOF' "$PROM"; then
        echo "FAIL prom: no summary quantiles or missing # EOF terminator" >&2
        ok=0
    fi
    if [ "$ok" -eq 1 ]; then echo "ok sample_timeline_and_prom"; else failures=$((failures + 1)); fi
else
    echo "FAIL sample_timeline_and_prom: runner exited non-zero" >&2
    failures=$((failures + 1))
fi
# --watch over the completed two-shard store: one tick, all complete, exit 0.
WATCH_DONE="$WORK/watch_done.txt"
"$RUNNER" --watch="$SHARD_STORE" --sample=50 >"$WATCH_DONE" 2>&1
rc=$?
if [ "$rc" -eq 0 ] && grep -q 'complete' "$WATCH_DONE" &&
   grep -q 'total: .*(100.0%)' "$WATCH_DONE"; then
    echo "ok watch_complete_fleet"
else
    echo "FAIL watch_complete_fleet: rc=$rc:" >&2
    cat "$WATCH_DONE" >&2
    failures=$((failures + 1))
fi
# Kill-one-shard stall detection: shard 0 completes; shard 1 is left the
# way a shard killed mid-run leaves the store -- a progress frame short of
# its owned cells and no completion manifest. To build that state without
# racing a kill against the run, shard 1 runs to the end with its cell
# bucket blocked (a plain file where the directory was), so no cell becomes
# durable: it publishes a 0-of-owned progress frame and never attests
# completion. Its frame then ages past --stall-ms (mtimes rewound an hour
# -- deterministic, no 10 s wait) and --watch must report STALLED and exit
# 3.
STALL_STORE="$WORK/stall-store"
STALL_SPEC="--benchmarks=lock_ladder,pipeline,graph_walk --stages=simple_alu,complex_alu --policies=nominal,synts_offline"
WATCH_STALL="$WORK/watch_stall.txt"
if "$RUNNER" $STALL_SPEC --store="$STALL_STORE" --shard=0/2 --quiet >/dev/null 2>&1; then
    cell_dir=$(find "$STALL_STORE" -type d -name cell -print -quit)
    mv "$cell_dir" "$cell_dir.shard0"
    : >"$cell_dir"
    "$RUNNER" $STALL_SPEC --store="$STALL_STORE" --shard=1/2 --workers=1 --quiet >/dev/null 2>&1
    rm -f "$cell_dir"
    mv "$cell_dir.shard0" "$cell_dir"
    find "$STALL_STORE" -type f -exec touch -d '1 hour ago' {} +
    "$RUNNER" --watch="$STALL_STORE" --sample=50 >"$WATCH_STALL" 2>&1
    rc=$?
    if [ "$rc" -eq 3 ] && grep -q 'STALLED (age ' "$WATCH_STALL"; then
        echo "ok watch_detects_killed_shard"
    else
        echo "FAIL watch_detects_killed_shard: rc=$rc (want 3):" >&2
        cat "$WATCH_STALL" >&2
        failures=$((failures + 1))
    fi
else
    echo "FAIL watch_detects_killed_shard: shard 0 run exited non-zero" >&2
    failures=$((failures + 1))
fi
# Overlapping partition of the recorded spec: refused, exit 2.
"$RUNNER" $SHARD_SPEC --store="$SHARD_STORE" --shard=0/3 --quiet >/dev/null 2>"$WORK/overlap.err"
rc=$?
if [ "$rc" -eq 2 ] && grep -q 'layout conflict' "$WORK/overlap.err"; then
    echo "ok shard_overlap_refused"
else
    echo "FAIL shard_overlap: expected exit 2 + layout conflict, got rc=$rc" >&2
    failures=$((failures + 1))
fi
# Merging a spec the store never sharded (foreign spec): refused, exit 2.
"$RUNNER" $SHARD_SPEC --policies=nominal,no_ts --store="$SHARD_STORE" --merge --quiet >/dev/null 2>&1
rc=$?
if [ "$rc" -eq 2 ]; then
    echo "ok merge_foreign_spec_refused"
else
    echo "FAIL merge_foreign_spec: expected exit 2, got $rc" >&2
    failures=$((failures + 1))
fi

if [ "$failures" -ne 0 ]; then
    echo "$failures CLI contract failure(s)" >&2
    exit 1
fi
echo "all CLI contract tests passed"
