#!/usr/bin/env bash
# Runs the runtime micro benches and dumps wall-clock timings to
# BENCH_runtime.json (schema: {"generated_unix": N, "hardware_threads": N,
# "benches": [{"name", "seconds", "exit_code"}...]}), then runs the
# characterization phase-timing bench, whose own JSON (per-pipeline-phase
# serial vs parallel timings plus the bit-identity verdict) is captured as
# BENCH_characterization.json, then the telemetry overhead gate (disabled
# instrumentation must cost <= 2% over bare) as BENCH_obs.json. Finally
# every BENCH_*.json is stamped with a `meta` provenance block (UTC
# timestamp, host, hardware threads, git describe).
#
# Usage: scripts/run_benches.sh [build-dir] (default: build)

set -u

build_dir="${1:-build}"
out="BENCH_runtime.json"

# Recompute provenance at INVOCATION time and export it for every child:
# benches that stamp their own meta (via collect_sweep_json_meta) read
# SYNTS_GIT_DESCRIBE from the environment, and a stale exported value from
# an earlier shell once shipped BENCH_obs.json claiming a commit several
# PRs behind HEAD. Empty (not a git checkout) simply omits the field.
SYNTS_GIT_DESCRIBE="$(git describe --always --dirty 2> /dev/null || true)"
export SYNTS_GIT_DESCRIBE

if [[ ! -d "${build_dir}" ]]; then
    echo "run_benches.sh: build dir '${build_dir}' not found (run cmake first)" >&2
    exit 1
fi

# The micro + runtime benches: small enough for CI, and together they cover
# the solver hot path, the estimator, the circuit simulator, and the new
# parallel sweep runtime.
benches=(
    bench_runtime_scaling
    bench_micro_solver
    bench_micro_estimator
    bench_micro_circuit
)

now_s() { date +%s.%N; }

json_rows=""
failures=0
for bench in "${benches[@]}"; do
    exe="${build_dir}/${bench}"
    if [[ ! -x "${exe}" ]]; then
        echo "skip ${bench}: not built" >&2
        continue
    fi
    echo "== ${bench}" >&2
    t0=$(now_s)
    "${exe}" > /dev/null 2>&1
    code=$?
    t1=$(now_s)
    seconds=$(awk -v a="${t0}" -v b="${t1}" 'BEGIN { printf "%.3f", b - a }')
    if [[ "${code}" -ne 0 ]]; then
        echo "FAIL ${bench}: exit ${code}" >&2
        failures=$((failures + 1))
    fi
    [[ -n "${json_rows}" ]] && json_rows+=","
    json_rows+=$'\n    '"{\"name\": \"${bench}\", \"seconds\": ${seconds}, \"exit_code\": ${code}}"
done

cat > "${out}" <<EOF
{
  "generated_unix": $(date +%s),
  "hardware_threads": $(nproc),
  "benches": [${json_rows}
  ]
}
EOF

echo "wrote ${out}" >&2
cat "${out}"

# -- characterization phase timings ------------------------------------------
# bench_characterization emits its own JSON (phase-by-phase serial vs
# parallel timings) on stdout and checks parallel/serial bit-identity
# itself, exiting non-zero on divergence.
char_bench="${build_dir}/bench_characterization"
char_out="BENCH_characterization.json"
if [[ -x "${char_bench}" ]]; then
    echo "== bench_characterization" >&2
    if ! "${char_bench}" > "${char_out}"; then
        echo "FAIL bench_characterization" >&2
        failures=$((failures + 1))
    fi
    echo "wrote ${char_out}" >&2
    cat "${char_out}"
else
    echo "skip bench_characterization: not built" >&2
fi

# -- telemetry overhead gate -------------------------------------------------
# bench_obs emits its own JSON (bare vs instrumented-disabled vs
# instrumented-enabled ns/iter) on stdout and gates disabled-over-bare at
# <= 2%, exiting non-zero on a regression.
obs_bench="${build_dir}/bench_obs"
obs_out="BENCH_obs.json"
if [[ -x "${obs_bench}" ]]; then
    echo "== bench_obs" >&2
    if ! "${obs_bench}" > "${obs_out}"; then
        echo "FAIL bench_obs" >&2
        failures=$((failures + 1))
    fi
    echo "wrote ${obs_out}" >&2
    cat "${obs_out}"
else
    echo "skip bench_obs: not built" >&2
fi

# -- provenance stamping -----------------------------------------------------
# Every BENCH_*.json gets a `meta` block (schema_version, UTC timestamp,
# host, hardware threads, git describe) so archived artifacts are
# self-describing. Python is the only JSON rewriter the image guarantees;
# stamping is best-effort and never fails the run.
if command -v python3 > /dev/null 2>&1; then
    meta_generated="$(date -u +%Y-%m-%dT%H:%M:%SZ)"
    meta_host="$(hostname)"
    meta_threads="$(nproc)"
    meta_describe="${SYNTS_GIT_DESCRIBE}"
    for artifact in BENCH_*.json; do
        [[ -f "${artifact}" ]] || continue
        python3 - "${artifact}" "${meta_generated}" "${meta_host}" \
            "${meta_threads}" "${meta_describe}" <<'PYEOF' || \
            echo "warn: could not stamp ${artifact}" >&2
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
    done
    echo "stamped meta into BENCH_*.json" >&2
else
    echo "skip meta stamping: python3 not found" >&2
fi

# -- perf-regression ledger --------------------------------------------------
# One JSONL line per invocation, appended to BENCH_HISTORY.jsonl: the run's
# provenance plus every BENCH_*.json document inline. Append-only and
# one-line-per-run on purpose -- `jq`-able, diffable, and a later
# `bench_diff` can be pointed at any two extracted lines to compare
# arbitrary commits. Best-effort like the stamping: never fails the run.
if command -v python3 > /dev/null 2>&1; then
    python3 - "$(date -u +%Y-%m-%dT%H:%M:%SZ)" "${SYNTS_GIT_DESCRIBE}" \
        "$(hostname)" BENCH_*.json <<'PYEOF' || \
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

# A failing bench (e.g. bench_runtime_scaling's bit-identity check) must
# fail the CI step, not just be recorded in the artifact.
exit $((failures > 0 ? 1 : 0))
