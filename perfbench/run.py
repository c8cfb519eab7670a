#!/usr/bin/env python3
"""SynTS performance benchmark: builds the program from source, runs one
workload, checks every sweep cell and prints one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-reference

Workloads: canonical_cold_par, canonical_cold_serial, warm_eval. With
--trace 0 the result carries the end-to-end metrics, with --trace 1 the
per-layer metrics of BENCHMARK.json. --record-reference rewrites the
per-cell references of seed 42 under perfbench/reference/. NOTES.md
describes the workloads, the metrics and what each should move.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
REFERENCE_SEED = 42
CANONICAL_CELLS = 105
# Launches per run that measure process set-up; the median is reported.
SETUP_LAUNCHES = 25
# warm_eval processes per run, one after another; each fills its own cache
# and then runs its share of the timed phase.
WARM_PROCESSES = 3
# Untraced/traced runner pairs in the traced canonical_cold_par run.
TRACED_RUNNER_PAIRS = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "cells_per_s": "cells/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
POLICIES = ("nominal", "no_ts", "per_core_ts", "synts_offline", "synts_online")
PER_LAYER_UNITS = {
    "circuit.step_batch_s": "s",
    "circuit.ns_per_vector": "ns",
    "circuit.sta_s": "s",
    "circuit.input_toggle_frac": "fraction",
    "arch.extract_s": "s",
    "arch.profile_s": "s",
    "arch.driving_vectors": "count",
    "util.histogram_s": "s",
    "workload.trace_gen_s": "s",
    "workload.micro_ops": "count",
    "core.characterize_s": "s",
    "core.characterize_other_s": "s",
    "core.experiment_build_s": "s",
    "core.equal_weight_theta_s": "s",
    "core.pareto_s": "s",
    **{f"core.policy.{p}_s": "s" for p in POLICIES},
    "runtime.sweep_s": "s",
    "runtime.effective_threads": "threads",
    "runtime.worker_util": "fraction",
    "runtime.longest_pair_s": "s",
    "runtime.tail_share": "fraction",
    "runtime.pool.steals": "count",
    "runtime.pool.tasks": "count",
    "runtime.cache.stage_hits": "count",
    "runtime.cache.stage_misses": "count",
    "runtime.cache.program_computes": "count",
    "runtime.cache.hit_lookup_us": "us",
    "runtime.nproc": "count",
    "runtime.workers": "count",
    "obs.trace_overhead": "ratio",
    "obs.unattributed_share": "fraction",
}


class SetupError(Exception):
    """The checkout cannot build the program (exit 2, no result)."""


class BenchError(Exception):
    """A step of the run failed (exit 1, no result)."""


# ------------------------------------------------------------ processes --


class Finished:
    """A child process run to completion, with its own resource usage."""

    def __init__(self, code, start, wall, cpu, rss_mb):
        self.code = code
        self.start = start
        self.wall = wall
        self.cpu = cpu
        self.rss_mb = rss_mb


def run_processes(cmds, stdout_paths=None, env=None):
    """Runs cmds side by side to completion, one Finished each, in order;
    stdout of each goes to its path, or nowhere. start is the
    time.monotonic() before the spawn; wall is exact only for a single
    command. Every child is reaped, on errors too."""
    outs = [open(p, "w") if p else subprocess.DEVNULL
            for p in stdout_paths or [None] * len(cmds)]
    procs, starts, finished = [], [], []
    try:
        for cmd, out in zip(cmds, outs):
            starts.append(time.monotonic())
            procs.append(subprocess.Popen(cmd, stdout=out, env=env))
        for proc, start in zip(procs, starts):
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            finished.append(Finished(proc.returncode, start, time.monotonic() - start,
                                     usage.ru_utime + usage.ru_stime,
                                     usage.ru_maxrss / 1024.0))
    except BaseException:
        for proc in procs:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        raise
    finally:
        for out in outs:
            if out is not subprocess.DEVNULL:
                out.close()
    return finished


def run_process(cmd, stdout_path=None, env=None):
    return run_processes([cmd], [stdout_path], env)[0]


def nproc():
    return len(os.sched_getaffinity(0))


def steal_seconds():
    """CPU time the hypervisor took from this machine's CPUs so far (the
    steal column of /proc/stat); None where it is not available."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configures and builds synts_runner and perfbench_driver (incremental)."""
    for needed in ("CMakeLists.txt", "src", "tools/synts_runner.cpp"):
        if not (ROOT / needed).exists():
            raise SetupError(f"{needed} not found: run from the repository root")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log_path = out.parent / "perfbench-build.log"
    steps = []
    if not (out / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    steps.append(["cmake", "--build", str(out), "--target", "synts_runner",
                  "perfbench_driver", "--parallel", str(nproc())])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                raise SetupError(f"build failed, see {log_path}")
    return out / "synts" / "synts_runner", out / "perfbench_driver"


# ---------------------------------------------------------- output check --

CELL_RE = re.compile(r'^\s*\{"benchmark": "([^"]*)", "stage": "([^"]*)", "policy": "([^"]*)"')


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def digest_doc(text):
    """Per-cell SHA-256 of a sweep JSON document without its meta line:
    {"header": digest of the non-cell lines, "cells": {b/s/p: digest}}."""
    header, cells = [], {}
    for line in text.splitlines():
        if '"meta"' in line:
            continue
        match = CELL_RE.match(line)
        if match:
            cells["/".join(match.groups())] = sha256(line.rstrip(","))
        else:
            header.append(line)
    return {"header": sha256("\n".join(header)), "cells": cells}


def count_failed(text, expected):
    """Cells of `expected` that are missing from `text` or differ, plus
    cells `text` has that `expected` lacks (at most all of them)."""
    got = digest_doc(text)
    if got["header"] != expected["header"]:
        return len(expected["cells"])
    wrong = sum(1 for key, digest in expected["cells"].items() if got["cells"].get(key) != digest)
    extra = sum(1 for key in got["cells"] if key not in expected["cells"])
    return min(len(expected["cells"]), wrong + extra)


def reference_dir():
    return Path(os.environ.get("PERFBENCH_REFERENCE_DIR", HERE / "reference"))


def reference_name(workload):
    return "warm_eval" if workload == "warm_eval" else "canonical"


def load_reference(workload, seed):
    path = reference_dir() / f"{reference_name(workload)}_seed{seed}.json"
    if not path.exists():
        return None
    with open(path) as f:
        return json.load(f)


class CellCheck:
    """Counts attempted and failed cells over every document a run produced.
    Without a recorded reference the expected cells come from a second code
    path (set_expected); documents seen before that are checked then."""

    def __init__(self, expected):
        self.expected = expected
        self.pending = []
        self.attempted = 0
        self.failed = 0

    def add(self, text, count=1):
        if self.expected is None:
            self.pending.append((text, count))
            return
        self.attempted += count * len(self.expected["cells"])
        self.failed += count * count_failed(text, self.expected)

    def set_expected(self, text):
        self.expected = digest_doc(text)
        pending, self.pending = self.pending, []
        for doc, count in pending:
            self.add(doc, count)


# ------------------------------------------------------------- workloads --


class Context:
    def __init__(self, args, runner, driver, run_dir, check):
        self.seed = args.seed
        self.seconds = args.seconds
        self.runner = runner
        self.driver = driver
        self.dir = run_dir
        self.check = check
        self.nproc = nproc()
        # The caller of sweep_scheduler::run executes pair tasks too, so a
        # pool of nproc - 1 workers keeps nproc threads busy.
        self.workers = max(1, self.nproc - 1)
        self.problems = []

    def require(self, ok, problem):
        if not ok:
            self.problems.append(problem)


class RunnerRun:
    def __init__(self, proc, wall, cells, doc, metrics, trace_path):
        self.proc = proc
        self.wall = wall
        self.cells = cells
        self.doc = doc
        self.metrics = metrics
        self.trace_path = trace_path


SUMMARY_RE = re.compile(r"^(\d+) cells in ([0-9.]+) s on \d+ workers", re.M)
RUNNER_ENV = dict(os.environ, SYNTS_GIT_DESCRIBE="perfbench")


def run_runner(ctx, tag, traced=False, seed=None):
    """One canonical sweep through the shipped CLI in a fresh process."""
    json_path = ctx.dir / f"{tag}.json"
    out_path = ctx.dir / f"{tag}.out"
    trace_path = ctx.dir / f"{tag}.trace.json" if traced else None
    cmd = [str(ctx.runner), "--benchmarks=reported", "--ladder=default",
           f"--workers={ctx.workers}", f"--seed={ctx.seed if seed is None else seed}",
           f"--json={json_path}"]
    if traced:
        cmd += [f"--trace={trace_path}", "--metrics=json"]
    proc = run_process(cmd, out_path, RUNNER_ENV)
    if proc.code != 0:
        raise BenchError(f"synts_runner exited {proc.code}")
    stdout = out_path.read_text()
    summary = SUMMARY_RE.search(stdout)
    if summary is None:
        raise BenchError("synts_runner printed no summary line")
    metrics = None
    if traced:
        metrics = json.loads(stdout[stdout.index("{", summary.end()):])
    return RunnerRun(proc, float(summary.group(2)), int(summary.group(1)),
                     json_path.read_text(), metrics, trace_path)


def run_drivers(ctx, mode, tag, extra, copies):
    """Runs `copies` driver processes side by side; (result, proc, out dir)
    of each."""
    outs = [ctx.dir / f"{tag}_{i}" for i in range(copies)]
    for out in outs:
        out.mkdir()
    procs = run_processes([[str(ctx.driver), mode, "--out", str(out), "--seed", str(ctx.seed),
                            *extra] for out in outs])
    runs = []
    for proc, out in zip(procs, outs):
        if proc.code != 0:
            raise BenchError(f"perfbench_driver {mode} exited {proc.code}")
        with open(out / "result.json") as f:
            runs.append((json.load(f), proc, out))
    return runs


def run_driver(ctx, mode, tag, extra):
    return run_drivers(ctx, mode, tag, extra, 1)[0]


def driver_docs(out, entries):
    return [((out / e["file"]).read_text(), e["count"]) for e in entries]


def serial_reference_doc(ctx):
    """One serial pass: the cross-check of a parallel run at a seed with no
    recorded reference."""
    result, _, out = run_driver(ctx, "serial", "cross_serial", ["--seconds", "0"])
    return driver_docs(out, result["docs"])[0][0]


def median(values):
    return statistics.median(values)


def samples(name, values):
    """Logs the per-sweep samples behind a reported median to stderr."""
    print(f"perfbench: {name} samples {[round(v, 4) for v in values]}", file=sys.stderr)
    return values


def canonical_cold_par(ctx):
    setups = [run_process([str(ctx.runner), "--list-benchmarks"]).wall
              for _ in range(SETUP_LAUNCHES)]
    runs = []
    start = time.monotonic()
    while not runs or time.monotonic() - start < ctx.seconds:
        run = run_runner(ctx, f"par_{len(runs)}")
        ctx.check.add(run.doc)
        runs.append(run)
    if ctx.check.expected is None:
        ctx.check.set_expected(serial_reference_doc(ctx))
    return {
        "setup_s": median(samples("setup_s", setups)),
        "cells_per_s": median(samples("cells_per_s", [r.cells / r.wall for r in runs])),
        "cpu_s": median(samples("cpu_s", [r.proc.cpu for r in runs])),
        "peak_rss_mb": median([r.proc.rss_mb for r in runs]),
    }


def setup_times(ctx, count):
    """Spawn-to-ready seconds of `count` serial driver processes that stop
    where the timed phase would begin."""
    times = []
    for i in range(count):
        result, proc, _ = run_driver(ctx, "serial", f"setup_{i}", ["--setup-only"])
        times.append(result["ready_mono"] - proc.start)
    return times


def canonical_cold_serial(ctx):
    setups = setup_times(ctx, SETUP_LAUNCHES)
    # One independent single-threaded process per CPU: each pass is still
    # serial, but a run samples every CPU, so host contention on the one CPU
    # a lone process would land on does not decide the run.
    runs = run_drivers(ctx, "serial", "main", ["--seconds", str(ctx.seconds)], ctx.nproc)
    walls, cpus = [], []
    for result, _, out in runs:
        for doc, count in driver_docs(out, result["docs"]):
            ctx.check.add(doc, count)
        walls += result["walls_s"]
        cpus += result["cpus_s"]
    if ctx.check.expected is None:
        ctx.check.set_expected(run_runner(ctx, "cross_par").doc)
    return {
        "setup_s": median(samples("setup_s", setups)),
        "cells_per_s": median(samples("cells_per_s", [CANONICAL_CELLS / w for w in walls])),
        "cpu_s": median(samples("cpu_s", cpus)),
        "peak_rss_mb": median([proc.rss_mb for _, proc, _ in runs]),
    }


def run_warm(ctx, seconds, tag, traced=False):
    extra = ["--seconds", str(seconds), "--workers", str(ctx.workers)]
    if ctx.check.expected is None:
        extra.append("--cross-check")
    if traced:
        extra.append("--trace")
    result, proc, out = run_driver(ctx, "warm", tag, extra)
    for doc, count in driver_docs(out, result["docs"]):
        ctx.check.add(doc, count)
    if ctx.check.expected is None:
        ctx.check.set_expected(driver_docs(out, result["cross_docs"])[0][0])
    for doc, count in driver_docs(out, result.get("layer_docs", [])):
        ctx.check.add(doc, count)
    # The timed phase must be pure evaluation on the warm cache.
    ctx.require(result["stage_misses"] == 0,
                f"warm_eval: {result['stage_misses']} stage-tier misses in the timed phase")
    ctx.require(result["program_computes"] == 0,
                f"warm_eval: {result['program_computes']} program computes in the timed phase")
    ctx.require(result["characterized_vectors"] == 0,
                f"warm_eval: {result['characterized_vectors']} vectors characterized "
                "in the timed phase")
    return result, proc


def warm_eval(ctx):
    # The timed phase is split over several processes, each with its own
    # cache fill, so one process's thread placement and memory layout do not
    # decide the run; the median is over all their sweeps.
    runs = [run_warm(ctx, ctx.seconds / WARM_PROCESSES, f"main_{i}")
            for i in range(WARM_PROCESSES)]
    walls = [w for result, _ in runs for w in result["walls_s"]]
    return {
        "setup_s": median(samples("setup_s", [result["ready_mono"] - proc.start
                                              for result, proc in runs])),
        "cells_per_s": median(samples("cells_per_s", [CANONICAL_CELLS / w for w in walls])),
        "cpu_s": median(samples("cpu_s", [c for result, _ in runs for c in result["cpus_s"]])),
        "peak_rss_mb": median([proc.rss_mb for _, proc in runs]),
    }


# ---------------------------------------------------------- traced runs --


def check_layers(ctx, result, program_vectors=None):
    """The replay must reproduce the program's characterization: identical
    histograms, and as many driving vectors as its own counter saw."""
    layers = result["layers"]
    ctx.require(result["layers_replay_mismatches"] == 0,
                f"replay: {result['layers_replay_mismatches']} intervals differ from the "
                "characterizer's histograms")
    counted = result["layers_counted_vectors"] if program_vectors is None else program_vectors
    ctx.require(layers["arch.driving_vectors"] == counted,
                f"replay: {layers['arch.driving_vectors']} driving vectors, the program's "
                f"characterize.vectors counter says {counted}")
    return dict(layers)


def longest_pair_s(events):
    """Longest (workload, stage) pair task in a runner trace: from its
    cache.stage_build span to the end of its last sweep.cell span, on the
    thread that ran its cells."""
    builds, cells = {}, {}
    for e in events:
        if e.get("ph") != "X":
            continue
        name, tid, start, end = e["name"], e["tid"], e["ts"], e["ts"] + e["dur"]
        if name.startswith("cache.stage_build:"):
            builds.setdefault((tid, name.split(":", 1)[1]), []).append(start)
        elif name.startswith("sweep.cell:"):
            workload, stage, _ = name.split(":", 1)[1].split("/")
            span = cells.setdefault((workload, stage), [tid, start, end])
            span[1], span[2] = min(span[1], start), max(span[2], end)
    longest = 0.0
    for (workload, _), (tid, first, last) in cells.items():
        starts = [s for s in builds.get((tid, workload), []) if s <= first]
        longest = max(longest, last - (max(starts) if starts else first))
    return longest / 1e6


def canonical_cold_par_traced(ctx):
    plain, traced = [], []
    for i in range(TRACED_RUNNER_PAIRS):
        for runs, flag in ((plain, False), (traced, True)):
            run = run_runner(ctx, f"{'t' if flag else 'u'}{i}", traced=flag)
            ctx.check.add(run.doc)
            runs.append(run)
    result, _, out = run_driver(ctx, "serial", "layers", ["--seconds", "0", "--trace"])
    serial_docs = driver_docs(out, result["docs"])
    if ctx.check.expected is None:
        ctx.check.set_expected(serial_docs[0][0])
    for doc, count in serial_docs:
        ctx.check.add(doc, count)

    last = traced[-1]
    counters = {name: m.get("value", 0) for name, m in last.metrics.items()}
    metrics = check_layers(ctx, result, counters["characterize.vectors"])
    with open(last.trace_path) as f:
        events = json.load(f)["traceEvents"]
    sweep_s = max(e["dur"] for e in events if e["name"] == "sweep.run") / 1e6
    threads = ctx.workers + 1
    effective = last.proc.cpu / sweep_s
    longest = longest_pair_s(events)
    metrics.update({
        "runtime.sweep_s": sweep_s,
        "runtime.effective_threads": effective,
        "runtime.worker_util": effective / threads,
        "runtime.longest_pair_s": longest,
        "runtime.tail_share": longest / sweep_s,
        "runtime.pool.steals": counters["pool.steals"],
        "runtime.pool.tasks": counters["pool.tasks_executed"],
        "runtime.cache.stage_hits": counters["cache.tier1.hits"],
        "runtime.cache.stage_misses": counters["cache.tier1.misses"],
        "runtime.cache.program_computes": counters["cache.tier2.computes"],
        "runtime.nproc": ctx.nproc,
        "runtime.workers": ctx.workers,
        "obs.trace_overhead": median([r.wall for r in traced]) / median([r.wall for r in plain]),
        "obs.unattributed_share": 1.0 - result["layers_work_s"] / (sweep_s * threads),
    })
    return metrics


def canonical_cold_serial_traced(ctx):
    result, _, out = run_driver(ctx, "serial", "main", ["--seconds", "0", "--trace"])
    for doc, count in driver_docs(out, result["docs"]):
        ctx.check.add(doc, count)
    if ctx.check.expected is None:
        ctx.check.set_expected(run_runner(ctx, "cross_par").doc)
    metrics = check_layers(ctx, result)
    pass_s = result["layers_pass_s"]
    effective = result["layers_pass_cpu_s"] / pass_s
    longest = result["layers_longest_pair_s"]
    metrics.update({
        "runtime.sweep_s": pass_s,
        "runtime.effective_threads": effective,
        "runtime.worker_util": effective,
        "runtime.longest_pair_s": longest,
        "runtime.tail_share": longest / pass_s,
        "runtime.pool.steals": 0,
        "runtime.pool.tasks": 0,
        "runtime.cache.stage_hits": 0,
        "runtime.cache.stage_misses": 0,
        "runtime.cache.program_computes": 0,
        "runtime.nproc": ctx.nproc,
        "runtime.workers": 0,
        "obs.trace_overhead": pass_s / result["walls_s"][0],
        "obs.unattributed_share": 1.0 - result["layers_work_s"] / pass_s,
    })
    return metrics


def warm_eval_traced(ctx):
    # The characterization-side metrics are the timed phase's zeros, which
    # run_warm's self-checks back with the program's counters.
    result, _ = run_warm(ctx, ctx.seconds, "main", traced=True)
    metrics = check_layers(ctx, result)
    sweep_s = median(result["walls_s"])
    threads = ctx.workers + 1
    effective = sum(result["cpus_s"]) / sum(result["walls_s"])
    longest = result["layers_longest_pair_s"]
    lookups_s = CANONICAL_CELLS // len(POLICIES) * metrics["runtime.cache.hit_lookup_us"] / 1e6
    metrics.update({
        "runtime.sweep_s": sweep_s,
        "runtime.effective_threads": effective,
        "runtime.worker_util": effective / threads,
        "runtime.longest_pair_s": longest,
        "runtime.tail_share": longest / sweep_s,
        "runtime.pool.steals": result["pool_steals_per_sweep"],
        "runtime.pool.tasks": result["pool_tasks_per_sweep"],
        "runtime.cache.stage_hits": result["stage_hits"],
        "runtime.cache.stage_misses": result["stage_misses"],
        "runtime.cache.program_computes": result["program_computes"],
        "runtime.nproc": ctx.nproc,
        "runtime.workers": ctx.workers,
        "obs.trace_overhead": result["layers_pass_s"] / result["untraced_eval_s"],
        "obs.unattributed_share":
            1.0 - (result["layers_eval_s"] + lookups_s) / (sweep_s * threads),
    })
    return metrics


WORKLOADS = {
    "canonical_cold_par": (canonical_cold_par, canonical_cold_par_traced),
    "canonical_cold_serial": (canonical_cold_serial, canonical_cold_serial_traced),
    "warm_eval": (warm_eval, warm_eval_traced),
}


# ---------------------------------------------------------------- output --


def declared_units(trace):
    """Metric name -> unit as BENCHMARK.json declares them for the mode."""
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def validate_metrics(values, units, declared):
    """Raises unless the measured names are exactly the declared ones and
    each unit this file assigns matches the declared unit."""
    if set(values) != set(declared):
        raise BenchError(f"metrics differ from BENCHMARK.json: extra "
                         f"{sorted(set(values) - set(declared))}, missing "
                         f"{sorted(set(declared) - set(values))}")
    wrong = sorted(n for n in values if units.get(n) != declared[n])
    if wrong:
        raise BenchError(f"units differ from BENCHMARK.json for {wrong}")


def record_reference(ctx):
    """Writes the seed-42 per-cell references; each must agree with a second
    code path first (serial pass == CLI sweep, warm sweep == serial
    evaluation of the warm experiments)."""
    serial = serial_reference_doc(ctx)
    par = run_runner(ctx, "par").doc
    warm, _, out = run_driver(ctx, "warm", "warm", ["--seconds", "0", "--workers",
                                                   str(ctx.workers), "--cross-check"])
    documents = {
        "canonical": (serial, par),
        "warm_eval": (driver_docs(out, warm["docs"])[0][0],
                      driver_docs(out, warm["cross_docs"])[0][0]),
    }
    for name, (first, second) in documents.items():
        if digest_doc(first) != digest_doc(second):
            raise BenchError(f"{name}: the two code paths disagree; no reference written")
        reference = {"seed": ctx.seed, **digest_doc(first)}
        path = reference_dir() / f"{name}_seed{ctx.seed}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            json.dump(reference, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"wrote {path} ({len(reference['cells'])} cells)", file=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()
    if not args.record_reference and args.workload is None:
        parser.error("--workload is required")
    if args.record_reference:
        args.seed = REFERENCE_SEED

    try:
        runner, driver = build()
    except SetupError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2

    run_dir = build_dir().parent / "perfbench-runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        expected = None if args.record_reference else load_reference(args.workload, args.seed)
        ctx = Context(args, runner, driver, run_dir, CellCheck(expected))
        if args.record_reference:
            record_reference(ctx)
            return 0
        print(f"perfbench: {args.workload} seed={args.seed} nproc={ctx.nproc} "
              f"workers={ctx.workers} reference={'recorded' if expected else 'cross-check'}",
              file=sys.stderr)
        steal_start, wall_start = steal_seconds(), time.monotonic()
        values = WORKLOADS[args.workload][args.trace](ctx)
        if steal_start is not None:
            # Contention from other guests: the main source of run-to-run
            # spread on shared VMs (see NOTES.md).
            print(f"perfbench: host steal {steal_seconds() - steal_start:.1f} CPU-s over "
                  f"{time.monotonic() - wall_start:.1f} s wall", file=sys.stderr)
        units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
        validate_metrics(values, units, declared_units(args.trace))
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    check = ctx.check
    for problem in ctx.problems:
        print(f"perfbench: self-check failed: {problem}", file=sys.stderr)
    if check.failed:
        print(f"perfbench: {check.failed} of {check.attempted} cells differ from the "
              "expected output", file=sys.stderr)
    result = {
        "correct": check.failed == 0 and not ctx.problems and check.attempted > 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
