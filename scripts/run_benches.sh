#!/usr/bin/env bash
# Runs the repo's benches that are not perfbench workloads or figure lines:
#   1. every built bench_micro_* (Google Benchmark; skipped when it is not
#      installed), failing the run on any non-zero exit;
#   2. the telemetry overhead gate bench_obs (disabled instrumentation must
#      cost <= 2% over bare), whose own JSON is captured as BENCH_obs.json.
# BENCH_obs.json is then stamped with a `meta` provenance block (UTC
# timestamp, host, hardware threads, git describe), and one line carrying
# it is appended to the local ledger BENCH_HISTORY.jsonl.
#
# End-to-end and per-layer timings live in perfbench (python3
# perfbench/run.py); bit-identity is pinned by ctest.
#
# Usage: scripts/run_benches.sh [build-dir] (default: build)

set -u

build_dir="${1:-build}"

# Provenance is computed at INVOCATION time, never inherited: a stale
# exported value from an earlier shell once shipped BENCH_obs.json claiming
# a commit several PRs behind HEAD. Empty (not a git checkout) simply omits
# the field.
git_describe="$(git describe --always --dirty 2> /dev/null || true)"

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

# -- provenance stamping -----------------------------------------------------
# The artifact gets a `meta` block (schema_version, UTC timestamp, host,
# hardware threads, git describe) so archived copies are self-describing.
# Python is the only JSON rewriter the image guarantees; stamping is
# best-effort and never fails the run.
if command -v python3 > /dev/null 2>&1; then
    python3 - "${obs_out}" "$(date -u +%Y-%m-%dT%H:%M:%SZ)" "$(hostname)" \
        "$(nproc)" "${git_describe}" <<'PYEOF' || \
        echo "warn: could not stamp ${obs_out}" >&2
import json
import sys

path, generated, host, threads, describe = sys.argv[1:6]
with open(path) as f:
    doc = json.load(f)
meta = {
    "schema_version": 1,
    "generated_utc": generated,
    "hostname": host,
    "hardware_concurrency": int(threads),
}
if describe:
    meta["git_describe"] = describe
doc["meta"] = meta
with open(path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
PYEOF
    echo "stamped meta into ${obs_out}" >&2
else
    echo "skip meta stamping: python3 not found" >&2
fi

# -- perf-regression ledger --------------------------------------------------
# One JSONL line per invocation, appended to BENCH_HISTORY.jsonl: the run's
# provenance plus the artifact inline, keyed by its name ("obs").
# Append-only and one-line-per-run on purpose -- `jq`-able, diffable, and
# `bench_diff` can be pointed at any two extracted lines to compare
# arbitrary commits. Best-effort like the stamping: never fails the run.
if command -v python3 > /dev/null 2>&1; then
    python3 - "$(date -u +%Y-%m-%dT%H:%M:%SZ)" "${git_describe}" \
        "$(hostname)" "${obs_out}" <<'PYEOF' || \
        echo "warn: could not append BENCH_HISTORY.jsonl" >&2
import json
import sys

generated, describe, host = sys.argv[1:4]
entry = {"generated_utc": generated, "hostname": host, "artifacts": {}}
if describe:
    entry["git_describe"] = describe
for path in sys.argv[4:]:
    name = path.removeprefix("BENCH_").removesuffix(".json")
    with open(path) as f:
        entry["artifacts"][name] = json.load(f)
with open("BENCH_HISTORY.jsonl", "a") as f:
    f.write(json.dumps(entry, sort_keys=True) + "\n")
PYEOF
    echo "appended BENCH_HISTORY.jsonl" >&2
else
    echo "skip BENCH_HISTORY.jsonl: python3 not found" >&2
fi

# A failing bench must fail the CI step, not just be recorded in the
# artifact.
exit $((failures > 0 ? 1 : 0))
