#!/usr/bin/env bash
# Runs the repo's benches that are not perfbench workloads or figure lines:
#   1. every built bench_micro_* (Google Benchmark; skipped when it is not
#      installed), failing the run on any non-zero exit;
#   2. the telemetry overhead gate bench_obs (disabled instrumentation must
#      cost <= 2% over bare), whose own JSON is captured as BENCH_obs.json.
#
# End-to-end and per-layer timings live in perfbench (python3
# perfbench/run.py); bit-identity is pinned by ctest.
#
# Usage: scripts/run_benches.sh [build-dir] (default: build)

set -u

build_dir="${1:-build}"

if [[ ! -d "${build_dir}" ]]; then
    echo "run_benches.sh: build dir '${build_dir}' not found (run cmake first)" >&2
    exit 1
fi

failures=0

# -- micro benches -----------------------------------------------------------
# Only the exit code is checked here; their timings are read by hand.
for exe in "${build_dir}"/bench_micro_*; do
    [[ -x "${exe}" ]] || continue
    bench="$(basename "${exe}")"
    echo "== ${bench}" >&2
    "${exe}" > /dev/null 2>&1
    code=$?
    if [[ "${code}" -ne 0 ]]; then
        echo "FAIL ${bench}: exit ${code}" >&2
        failures=$((failures + 1))
    fi
done

# -- telemetry overhead gate -------------------------------------------------
# bench_obs emits its own JSON (bare vs instrumented-disabled vs
# instrumented-enabled ns/iter) on stdout and gates disabled-over-bare at
# <= 2%, exiting non-zero on a regression.
obs_bench="${build_dir}/bench_obs"
obs_out="BENCH_obs.json"
if [[ ! -x "${obs_bench}" ]]; then
    echo "FAIL bench_obs: not built" >&2
    exit 1
fi
echo "== bench_obs" >&2
if ! "${obs_bench}" > "${obs_out}"; then
    echo "FAIL bench_obs" >&2
    failures=$((failures + 1))
fi
echo "wrote ${obs_out}" >&2
cat "${obs_out}"

# A failing bench must fail the CI step, not just be recorded in the
# artifact.
exit $((failures > 0 ? 1 : 0))
