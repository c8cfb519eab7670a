// synts_runner -- batched sweep CLI over the experiment runtime.
//
// Expands a declarative sweep spec (workload set x stage set x theta
// ladder x policy set) onto the work-stealing thread pool, memoizing
// characterizations in the process-wide experiment cache, and emits the
// aggregate as a console table plus optional CSV / JSON files. Workloads
// are resolved through the workload registry, so the sweep axis covers the
// ten built-in SPLASH-2 profiles AND every registered scenario-family
// instance (--list-benchmarks enumerates them).
//
// Examples:
//   synts_runner --benchmarks=reported --stages=all --policies=all
//   synts_runner --benchmarks=lock_ladder,graph_walk --stages=simple_alu
//                --ladder=default --workers=4 --pareto-csv=fronts.csv
//                --summary-csv=summary.csv --json=sweep.json
//   (one line; wrapped here for width)

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>

#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "runtime/fleet_watch.h"
#include "runtime/sweep.h"
#include "runtime/sweep_io.h"
#include "storage/artifact_store.h"
#include "workload/registry.h"

namespace {

using namespace synts;

constexpr std::string_view usage = R"(synts_runner -- batched SynTS experiment sweeps

  --benchmarks=LIST   comma list of registered workload names, "all" (every
                      registered workload), "splash2" (the built-in ten), or
                      "reported" (the paper's seven; default). --benchmark
                      is an alias; --list-benchmarks enumerates the names.
  --define=SPEC       register a parametric scenario instance at runtime so
                      it is sweepable without recompiling; repeatable.
                      SPEC is family:name=NAME[,param=value]..., e.g.
                      --define=lock_ladder:name=ll9,base_contention=0.9
                      (families: lock_ladder, pipeline, graph_walk; pipeline
                      stage_weights is '+'-separated: 1.0+0.5+0.25). Defines
                      apply before --benchmarks is resolved, regardless of
                      flag order.
  --stages=LIST       comma list of decode,simple_alu,complex_alu or "all"
                      (default: all)
  --policies=LIST     comma list of nominal,no_ts,per_core_ts,synts_offline,
                      synts_online or "all" (default: all)
  --ladder=SPEC       theta multipliers: "default" (2^-6..2^6), "none", or a
                      comma list of numbers (default: none)
  --workers=N         thread-pool width, N >= 1 (default: hardware
                      concurrency)
  --jobs=N            alias for --workers (last one given wins)
  --cores=M           modeled CMP cores per experiment, M >= 1 (default: 4)
  --seed=N            workload seed (default: 42)
  --pareto-csv=PATH   write per-multiplier Pareto fronts as CSV
  --summary-csv=PATH  write equal-weight operating points as CSV
  --json=PATH         write the full result (spec echo + cells; byte-stable
                      across cold/warm/resumed runs of one spec)
  --store[=DIR]       persist program artifacts and finished sweep cells in
                      DIR (default .synts-store), and reuse artifacts from
                      it: a warm re-run performs zero trace generations and
                      zero profiler runs. Safe to share between concurrent
                      runners (atomic write-back).
  --resume            with --store: skip cells already materialized in the
                      store, so a killed sweep restarts where it died
  --shard=I/N         with --store: run only shard I of an N-way
                      pair-granular partition of the sweep, checkpointing
                      its cells under their GLOBAL indices in the shared
                      store -- N runner processes with --shard=0/N .. N-1/N
                      and one store jointly cover the spec. Records the
                      layout in the store and refuses a partition that
                      conflicts with one already recorded for this spec
                      (exit 2). Table/CSV/JSON outputs cover this shard's
                      cells only; assemble the full document with --merge.
  --merge             with --store: do not compute anything -- verify that
                      every shard of this spec recorded completion in the
                      store, assemble the full result from the checkpoints,
                      and emit it (byte-identical JSON to a single-process
                      run of the same spec). Missing, foreign or mismatched
                      manifests exit 2. Mutually exclusive with --shard and
                      --resume.
  --cache-stats[=FMT] print hit/miss counts of every cache tier (program
                      artifacts, stage experiments, disk store, cell
                      checkpoints) plus the compute count, sourced from the
                      process metrics registry; FMT: table (default), csv,
                      json
  --metrics[=FMT]     after the run, print the whole metrics registry --
                      pool.*, cache.tier<N>.*, store.*, sweep.* counters,
                      gauges and latency histograms (p50/p95/p99); FMT:
                      table (default), csv, json, prom (Prometheus/
                      OpenMetrics text exposition, synts_* names)
  --sample=MS[:FILE]  sample the metrics registry every MS milliseconds
                      during the run (background thread, fixed-capacity
                      per-series rings, drop-oldest) and write the JSONL
                      timeline -- one object per tick with totals and
                      derived per-second rates -- to FILE (default
                      metrics_timeline.jsonl). Implies telemetry on.
  --trace=FILE        record spans (sweep cells, cache builds/computes)
                      during the run and write Chrome trace-event JSON to
                      FILE (open in Perfetto or chrome://tracing)
  --status[=DIR]      standalone: print the fleet view of every sweep
                      recorded in DIR's store (per-shard cells-done/owned
                      progress, completion marks) and exit; DIR defaults to
                      the --store directory, else .synts-store
  --watch[=DIR]       standalone: live fleet view over DIR's store (DIR
                      defaults like --status), reprinted every --sample
                      period (default 1000 ms) with per-shard cells/s, ETA,
                      and a STALLED flag once a shard's progress frame is
                      older than --stall-ms. Exits 0 when every sweep is
                      complete (or none is recorded), 3 on the first
                      detected stall.
  --stall-ms=N        --watch staleness threshold in milliseconds, N >= 1
                      (default 10000 -- 40x the publisher's 250 ms cadence)
  --list-benchmarks   print every registered workload name (one per line:
                      the SPLASH-2 profiles, then the scenario-family
                      instances) and exit
  --quiet             suppress the console table
  --help              this text

  Value flags accept both --flag=VALUE and --flag VALUE, except --store,
  --cache-stats, --metrics, --status and --watch, whose bare spellings
  select their defaults (use = to pass a value).
)";

std::optional<std::string_view> flag_value(std::string_view arg, std::string_view name)
{
    if (arg.size() > name.size() + 3 && arg.starts_with("--") &&
        arg.substr(2, name.size()) == name && arg[2 + name.size()] == '=') {
        return arg.substr(name.size() + 3);
    }
    return std::nullopt;
}

std::vector<double> parse_ladder(std::string_view spec)
{
    if (spec == "default") {
        return core::default_theta_multipliers();
    }
    if (spec == "none" || spec.empty()) {
        return {};
    }
    std::vector<double> ladder;
    for (const std::string_view raw : runtime::split_csv(spec)) {
        const std::string token(raw);
        std::size_t consumed = 0;
        double value = 0.0;
        try {
            value = std::stod(token, &consumed);
        } catch (const std::exception&) {
            consumed = 0;
        }
        if (token.empty() || consumed != token.size() || value <= 0.0) {
            throw std::invalid_argument("bad theta multiplier: \"" + token + "\"");
        }
        ladder.push_back(value);
    }
    return ladder;
}

/// Strict unsigned parse: the whole token must be digits -- no silent
/// truncation of "4x" to 4, and no leading sign/whitespace (std::stoull
/// would happily wrap "-1" to 2^64-1, turning --workers=-1 into an attempt
/// to spawn 2^64 threads instead of a usage error).
std::uint64_t parse_u64(std::string_view flag, std::string_view token)
{
    std::uint64_t value = 0;
    std::size_t consumed = 0;
    const bool starts_with_digit = !token.empty() && token[0] >= '0' && token[0] <= '9';
    if (starts_with_digit) {
        try {
            value = std::stoull(std::string(token), &consumed);
        } catch (const std::exception&) {
            consumed = 0;
        }
    }
    if (!starts_with_digit || consumed != token.size()) {
        throw std::invalid_argument(std::string(flag) + " expects an unsigned integer, got \"" +
                                    std::string(token) + "\"");
    }
    return value;
}

/// Like parse_u64 but rejects 0 (worker pools and CMP core counts cannot
/// be empty; 0 silently meaning "default" hid typos like --jobs 0).
std::uint64_t parse_positive(std::string_view flag, std::string_view token)
{
    const std::uint64_t value = parse_u64(flag, token);
    if (value == 0) {
        throw std::invalid_argument(std::string(flag) + " must be >= 1");
    }
    return value;
}

/// "I/N" with I < N, N >= 1 (strict digits on both sides).
runtime::sweep_shard parse_shard(std::string_view token)
{
    const std::size_t slash = token.find('/');
    if (slash == std::string_view::npos) {
        throw std::invalid_argument("--shard expects I/N (e.g. 0/4), got \"" +
                                    std::string(token) + "\"");
    }
    const std::uint64_t index = parse_u64("--shard index", token.substr(0, slash));
    const std::uint64_t count = parse_u64("--shard count", token.substr(slash + 1));
    if (count == 0 || index >= count) {
        throw std::invalid_argument("--shard: index must be < count and count >= 1, "
                                    "got \"" + std::string(token) + "\"");
    }
    return runtime::sweep_shard{static_cast<std::size_t>(index),
                                static_cast<std::size_t>(count)};
}

/// "table" / "csv" / "json" / "prom" for --metrics (--cache-stats shares
/// the first three).
obs::metrics_format parse_metrics_format(std::string_view token)
{
    if (token == "table") {
        return obs::metrics_format::table;
    }
    if (token == "csv") {
        return obs::metrics_format::csv;
    }
    if (token == "json") {
        return obs::metrics_format::json;
    }
    if (token == "prom") {
        return obs::metrics_format::prom;
    }
    throw std::invalid_argument("bad --metrics format: \"" + std::string(token) + "\"");
}

} // namespace

int main(int argc, char** argv)
{
    runtime::sweep_spec spec;
    {
        spec.stages = runtime::parse_stage_list("all");
        const auto all = core::all_policies();
        spec.policies.assign(all.begin(), all.end());
    }
    std::size_t workers = 0; // 0 = hardware concurrency (only via default)
    std::string pareto_csv_path;
    std::string summary_csv_path;
    std::string json_path;
    std::string store_dir; // empty = no persistent store
    // Benchmark resolution is deferred until after every --define has
    // registered (flag order must not matter), so only the raw list text
    // is captured in the flag loop.
    std::string benchmarks_csv = "reported";
    std::vector<std::string> defines;
    bool list_benchmarks = false;
    bool resume = false;
    bool merge = false;
    std::optional<runtime::sweep_shard> shard;
    bool quiet = false;
    std::optional<runtime::cache_stats_format> cache_stats;
    std::optional<obs::metrics_format> metrics;
    std::string trace_path;
    bool status = false;
    std::string status_dir;
    bool watch = false;
    std::string watch_dir;
    std::uint64_t stall_ms = 10'000;
    std::optional<std::uint64_t> sample_period_ms;
    std::string sample_path = "metrics_timeline.jsonl";
    workload::workload_registry& registry = workload::workload_registry::global();

    try {
        // Value flags accept --flag=VALUE and --flag VALUE; `take` consumes
        // the next argv word in the latter form and usage-errors when the
        // value is missing instead of silently reading past argc.
        int i = 1;
        const auto take = [&](std::string_view flag) -> std::string_view {
            if (i + 1 >= argc) {
                throw std::invalid_argument(std::string(flag) + " expects a value");
            }
            return argv[++i];
        };
        // "MS" or "MS:FILE" for --sample.
        const auto parse_sample = [&](std::string_view v) {
            const std::size_t colon = v.find(':');
            sample_period_ms = parse_positive(
                "--sample", colon == std::string_view::npos ? v : v.substr(0, colon));
            if (colon != std::string_view::npos) {
                if (colon + 1 >= v.size()) {
                    throw std::invalid_argument("--sample: empty FILE after ':'");
                }
                sample_path = v.substr(colon + 1);
            }
        };
        for (; i < argc; ++i) {
            const std::string_view arg = argv[i];
            if (arg == "--help" || arg == "-h") {
                std::fputs(usage.data(), stdout);
                return 0;
            }
            if (arg == "--list-benchmarks") {
                list_benchmarks = true;
            } else if (arg == "--quiet") {
                quiet = true;
            } else if (arg == "--store") {
                store_dir = ".synts-store";
            } else if (const auto v = flag_value(arg, "store")) {
                store_dir = *v;
            } else if (arg == "--resume") {
                resume = true;
            } else if (arg == "--merge") {
                merge = true;
            } else if (arg == "--shard") {
                shard = parse_shard(take(arg));
            } else if (const auto v = flag_value(arg, "shard")) {
                shard = parse_shard(*v);
            } else if (arg == "--define") {
                defines.emplace_back(take(arg));
            } else if (const auto v = flag_value(arg, "define")) {
                defines.emplace_back(*v);
            } else if (arg == "--cache-stats") {
                cache_stats = runtime::cache_stats_format::table;
            } else if (const auto v = flag_value(arg, "cache-stats")) {
                cache_stats = runtime::parse_cache_stats_format(*v);
                if (!cache_stats) {
                    throw std::invalid_argument("bad --cache-stats format: \"" +
                                                std::string(*v) + "\"");
                }
            } else if (arg == "--metrics") {
                metrics = obs::metrics_format::table;
            } else if (const auto v = flag_value(arg, "metrics")) {
                metrics = parse_metrics_format(*v);
            } else if (arg == "--trace") {
                trace_path = take(arg);
            } else if (const auto v = flag_value(arg, "trace")) {
                trace_path = *v;
            } else if (arg == "--status") {
                status = true;
            } else if (const auto v = flag_value(arg, "status")) {
                status = true;
                status_dir = *v;
            } else if (arg == "--watch") {
                watch = true;
            } else if (const auto v = flag_value(arg, "watch")) {
                watch = true;
                watch_dir = *v;
            } else if (arg == "--stall-ms") {
                stall_ms = parse_positive(arg, take(arg));
            } else if (const auto v = flag_value(arg, "stall-ms")) {
                stall_ms = parse_positive("--stall-ms", *v);
            } else if (arg == "--sample") {
                parse_sample(take(arg));
            } else if (const auto v = flag_value(arg, "sample")) {
                parse_sample(*v);
            } else if (arg == "--benchmarks" || arg == "--benchmark") {
                benchmarks_csv = take(arg);
            } else if (const auto v = flag_value(arg, "benchmarks")) {
                benchmarks_csv = *v;
            } else if (const auto v = flag_value(arg, "benchmark")) {
                benchmarks_csv = *v;
            } else if (arg == "--stages") {
                spec.stages = runtime::parse_stage_list(take(arg));
            } else if (const auto v = flag_value(arg, "stages")) {
                spec.stages = runtime::parse_stage_list(*v);
            } else if (arg == "--policies") {
                spec.policies = runtime::parse_policy_list(take(arg));
            } else if (const auto v = flag_value(arg, "policies")) {
                spec.policies = runtime::parse_policy_list(*v);
            } else if (arg == "--ladder") {
                spec.theta_multipliers = parse_ladder(take(arg));
            } else if (const auto v = flag_value(arg, "ladder")) {
                spec.theta_multipliers = parse_ladder(*v);
            } else if (arg == "--workers" || arg == "--jobs") {
                workers = parse_positive(arg, take(arg));
            } else if (const auto v = flag_value(arg, "workers")) {
                workers = parse_positive("--workers", *v);
            } else if (const auto v = flag_value(arg, "jobs")) {
                workers = parse_positive("--jobs", *v);
            } else if (arg == "--cores") {
                spec.config.thread_count = parse_positive(arg, take(arg));
            } else if (const auto v = flag_value(arg, "cores")) {
                spec.config.thread_count = parse_positive("--cores", *v);
            } else if (arg == "--seed") {
                spec.config.seed = parse_u64(arg, take(arg));
            } else if (const auto v = flag_value(arg, "seed")) {
                spec.config.seed = parse_u64("--seed", *v);
            } else if (arg == "--pareto-csv") {
                pareto_csv_path = take(arg);
            } else if (const auto v = flag_value(arg, "pareto-csv")) {
                pareto_csv_path = *v;
            } else if (arg == "--summary-csv") {
                summary_csv_path = take(arg);
            } else if (const auto v = flag_value(arg, "summary-csv")) {
                summary_csv_path = *v;
            } else if (arg == "--json") {
                json_path = take(arg);
            } else if (const auto v = flag_value(arg, "json")) {
                json_path = *v;
            } else {
                throw std::invalid_argument("unknown flag: " + std::string(arg));
            }
        }
        if (resume && store_dir.empty()) {
            throw std::invalid_argument("--resume requires --store");
        }
        if (shard.has_value() && store_dir.empty()) {
            throw std::invalid_argument(
                "--shard requires --store (the shared store is where a shard's "
                "cells land)");
        }
        if (merge && store_dir.empty()) {
            throw std::invalid_argument("--merge requires --store");
        }
        if (merge && shard.has_value()) {
            throw std::invalid_argument("--merge and --shard are mutually exclusive "
                                        "(merge assembles, it does not compute)");
        }
        if (merge && resume) {
            throw std::invalid_argument("--merge and --resume are mutually exclusive");
        }

        // Register every --define, THEN resolve the benchmark list against
        // the enlarged registry.
        for (const std::string& define : defines) {
            (void)registry.register_defined(define);
        }
        if (list_benchmarks) {
            for (const workload::workload_key& key : registry.keys()) {
                std::printf("%s\n", key.name.c_str());
            }
            return 0;
        }
        spec.benchmarks = runtime::parse_workload_list(registry, benchmarks_csv);
    } catch (const std::exception& error) {
        std::fprintf(stderr, "synts_runner: %s\n\n%s", error.what(), usage.data());
        return 2;
    }

    try {
        if (status) {
            // Standalone fleet view: read-only over the store's manifest
            // bucket, no sweep is run.
            const std::string dir = !status_dir.empty() ? status_dir
                                    : !store_dir.empty() ? store_dir
                                                         : ".synts-store";
            const storage::artifact_store status_store(dir);
            std::fputs(runtime::render_store_status(status_store).c_str(), stdout);
            return 0;
        }

        if (watch) {
            // Standalone watchdog loop: --status plus the time axis. Reads
            // only the store, so it can watch a fleet of shard processes
            // from any machine sharing the directory.
            const std::string dir = !watch_dir.empty()  ? watch_dir
                                    : !store_dir.empty() ? store_dir
                                                         : ".synts-store";
            const storage::artifact_store watch_store(dir);
            runtime::watch_config watch_cfg;
            watch_cfg.stall_ns = stall_ms * 1'000'000ull;
            runtime::fleet_watch watcher(watch_store, watch_cfg);
            const std::chrono::milliseconds period(sample_period_ms.value_or(1000));
            for (;;) {
                const runtime::watch_report report = watcher.tick(obs::now_ns());
                std::fputs(runtime::render_watch_report(report).c_str(), stdout);
                std::fflush(stdout);
                if (report.sweeps.empty()) {
                    return 0; // nothing to watch; don't spin forever in CI
                }
                if (report.any_stalled) {
                    return 3;
                }
                if (report.all_complete) {
                    return 0;
                }
                std::this_thread::sleep_for(period);
            }
        }

        // Telemetry switches on BEFORE the pool/cache/store exist so their
        // instruments observe the whole run. Counters are always live; this
        // flag arms the clock-reading paths (latency histograms, spans).
        if (metrics.has_value() || !trace_path.empty() || sample_period_ms.has_value()) {
            obs::set_enabled(true);
        }
        if (!trace_path.empty()) {
            obs::trace_recorder::global().set_enabled(true);
        }
        std::unique_ptr<obs::sampler> sampler;
        if (sample_period_ms.has_value()) {
            obs::sampler_config sampler_cfg;
            sampler_cfg.period = std::chrono::milliseconds(*sample_period_ms);
            sampler = std::make_unique<obs::sampler>(obs::metrics_registry::global(),
                                                     sampler_cfg);
            sampler->start();
        }

        runtime::experiment_cache& cache = runtime::experiment_cache::process_cache();
        runtime::sweep_options options;
        std::shared_ptr<storage::artifact_store> store;
        if (!store_dir.empty()) {
            store = std::make_shared<storage::artifact_store>(store_dir);
            cache.attach_store(store);
            options.store = store.get();
            options.resume = resume;
            options.shard = shard;
        }

        runtime::sweep_result result;
        if (merge) {
            result = runtime::merge_sweep_shards(spec, *store);
            if (!quiet) {
                std::fputs(runtime::render_sweep_table(result).c_str(), stdout);
                std::printf("merged %zu cells from the store's checkpoints\n",
                            result.cells.size());
            }
        } else {
            runtime::thread_pool pool(workers);
            runtime::sweep_scheduler scheduler(pool, cache);
            result = scheduler.run(spec, options);

            if (!quiet) {
                std::fputs(runtime::render_sweep_table(result).c_str(), stdout);
                if (shard.has_value()) {
                    std::printf("shard %zu/%zu: ", shard->index, shard->count);
                }
                std::printf("%zu cells in %.2f s on %zu workers "
                            "(stage cache: %llu hits, %llu misses; program cache: "
                            "%llu hits, %llu misses; %llu steals)\n",
                            result.cells.size(), result.wall_seconds,
                            pool.worker_count(),
                            static_cast<unsigned long long>(result.cache_hits),
                            static_cast<unsigned long long>(result.cache_misses),
                            static_cast<unsigned long long>(result.program_cache_hits),
                            static_cast<unsigned long long>(result.program_cache_misses),
                            static_cast<unsigned long long>(pool.steal_count()));
                if (store != nullptr) {
                    std::printf("store %s: %llu artifact disk hits, %llu computes, "
                                "%llu cells restored, %llu cells persisted\n",
                                store->root().c_str(),
                                static_cast<unsigned long long>(result.disk_hits),
                                static_cast<unsigned long long>(result.program_computes),
                                static_cast<unsigned long long>(result.cells_loaded),
                                static_cast<unsigned long long>(result.cells_stored));
                }
            }
        }
        if (sampler != nullptr) {
            sampler->stop(); // guaranteed final tick: end-of-run totals
        }
        if (cache_stats) {
            // Registry-sourced: the process-wide counters are the single
            // source of truth (byte-identical layout to the sink-sourced
            // renderer, which remains for multi-sweep attribution).
            std::fputs(runtime::render_cache_stats_from_metrics(*cache_stats).c_str(),
                       stdout);
        }
        if (metrics.has_value()) {
            std::fputs(obs::render_metrics(obs::metrics_registry::global().snapshot(),
                                           *metrics)
                           .c_str(),
                       stdout);
        }

        const auto write_file = [](const std::string& path, const auto& writer) {
            std::ofstream out(path);
            if (!out) {
                throw std::runtime_error("cannot open " + path);
            }
            writer(out);
        };
        if (!trace_path.empty()) {
            obs::trace_recorder::global().set_enabled(false);
            write_file(trace_path, [](std::ostream& out) {
                obs::trace_recorder::global().write_chrome_trace(out);
            });
        }
        if (sampler != nullptr) {
            write_file(sample_path, [&](std::ostream& out) {
                sampler->write_timeline_jsonl(out);
            });
        }
        // Slow-cell outliers (cells beyond k x p99 of characterize.cell_ns)
        // go to stderr: a health signal, not part of any machine-parsed
        // stdout document. Only populated when telemetry was on.
        if (const obs::health_monitor& slow = obs::health_monitor::cell_monitor();
            slow.event_count() > 0) {
            std::ostringstream log;
            slow.write_log(log);
            std::fputs(log.str().c_str(), stderr);
        }
        if (!pareto_csv_path.empty()) {
            write_file(pareto_csv_path,
                       [&](std::ostream& out) { runtime::write_pareto_csv(result, out); });
        }
        if (!summary_csv_path.empty()) {
            write_file(summary_csv_path, [&](std::ostream& out) {
                runtime::write_summary_csv(result, out);
            });
        }
        if (!json_path.empty()) {
            // Always stamped: meta rides on its own line, so determinism
            // consumers strip it with `grep -v '"meta"'`.
            const runtime::sweep_json_meta meta = runtime::collect_sweep_json_meta();
            write_file(json_path, [&](std::ostream& out) {
                runtime::write_sweep_json(result, out, &meta);
            });
        }
        return 0;
    } catch (const runtime::shard_error& error) {
        // The store's shard bookkeeping and the request disagree (layout
        // conflict, missing/foreign manifest): a usage-class refusal, not
        // a runtime failure -- nothing was computed or overwritten.
        std::fprintf(stderr, "synts_runner: %s\n", error.what());
        return 2;
    } catch (const std::exception& error) {
        std::fprintf(stderr, "synts_runner: %s\n", error.what());
        return 1;
    }
}
