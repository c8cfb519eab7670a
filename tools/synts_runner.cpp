// synts_runner -- batched sweep CLI over the experiment runtime.
//
// Expands a declarative sweep spec (workload set x stage set x theta
// ladder x policy set) into one thread_pool::parallel_for over its
// (workload, stage) pairs, claimed in index order, memoizing
// characterizations in the process-wide experiment cache, and emits the
// aggregate as a console table plus optional CSV / JSON files. Workloads
// are resolved through the workload registry, so the sweep axis covers the
// ten built-in SPLASH-2 profiles AND the two instances of the lock_ladder
// family (--list-benchmarks enumerates them).
//
// Examples:
//   synts_runner --benchmarks=reported --stages=all --policies=all
//   synts_runner --benchmarks=lock_ladder,lock_ladder_heavy --stages=simple_alu
//                --ladder=default --workers=4 --pareto-csv=fronts.csv
//                --summary-csv=summary.csv --json=sweep.json
//   (one line; wrapped here for width)

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>

#include <sys/resource.h>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/sweep.h"
#include "runtime/sweep_io.h"
#include "workload/registry.h"

namespace {

using namespace synts;

constexpr std::string_view usage = R"(synts_runner -- batched SynTS experiment sweeps

  --benchmarks=LIST   comma list of registered workload names, "all" (every
                      registered workload), "splash2" (the built-in ten), or
                      "reported" (the paper's seven; default);
                      --list-benchmarks enumerates the names.
  --stages=LIST       comma list of decode,simple_alu,complex_alu or "all"
                      (default: all)
  --policies=LIST     comma list of nominal,no_ts,per_core_ts,synts_offline,
                      synts_online or "all" (default: all)
  --ladder=SPEC       theta multipliers: "default" (2^-6..2^6), "none", or a
                      comma list of numbers (default: none)
  --workers=N         thread-pool width, 1 <= N <= 1024 (default: hardware
                      concurrency); the calling thread also runs cells, so
                      a sweep runs on N + 1 threads
  --cores=M           modeled CMP cores per experiment, 1 <= M <= 256
                      (default: 4)
  --seed=N            workload seed (default: 42)
  --pareto-csv=PATH   write per-multiplier Pareto fronts as CSV
  --summary-csv=PATH  write equal-weight operating points as CSV
  --json=PATH         write the full result (spec echo + cells; byte-stable
                      across cold/warm runs and worker counts)
  --metrics[=FMT]     after the run, print the whole metrics registry --
                      pool.*, cache.tier<N>.*, sweep.*, characterize.*
                      counters (hit/miss counts of both cache tiers among
                      them; *_ns names are nanosecond totals, timed only
                      under --metrics/--trace) and gauges, plus
                      end-of-run gauges: process.peak_rss_kb,
                      cache.tier2.resident (program entries still held)
                      and sweep.threads (workers + 1); FMT: table
                      (default), csv, json
  --trace=FILE        record spans (sweep cells, cache builds/computes)
                      during the run and write Chrome trace-event JSON to
                      FILE (open in Perfetto or chrome://tracing)
  --list-benchmarks   print every registered workload name (one per line:
                      the SPLASH-2 profiles, then the lock_ladder family's
                      instances) and exit
  --quiet             suppress the console table
  --help              this text

  Value flags accept both --flag=VALUE and --flag VALUE, except --metrics,
  whose bare spelling selects its default (use = to pass a value).
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
/// be empty; 0 silently meaning "default" hid typos like --workers 0).
std::uint64_t parse_positive(std::string_view flag, std::string_view token)
{
    const std::uint64_t value = parse_u64(flag, token);
    if (value == 0) {
        throw std::invalid_argument(std::string(flag) + " must be >= 1");
    }
    return value;
}

/// Widest pool --workers may ask for. Rejecting more at parse
/// time keeps a typo like --workers=100000 from starting that many OS
/// threads before anything fails.
constexpr std::uint64_t max_workers = 1024;

/// Most CMP cores --cores may model. Each modeled core adds ~2.2 MB of
/// peak RSS, so --cores=100000 would ask for ~220 GB before anything
/// fails; the paper models 4 cores and bench_scale_cores at most 16.
constexpr std::uint64_t max_cores = 256;

/// parse_positive that also rejects values above `max`.
std::size_t parse_at_most(std::string_view flag, std::string_view token, std::uint64_t max)
{
    const std::uint64_t value = parse_positive(flag, token);
    if (value > max) {
        throw std::invalid_argument(std::string(flag) + " must be <= " + std::to_string(max));
    }
    return static_cast<std::size_t>(value);
}

/// "table" / "csv" / "json" for --metrics.
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
    throw std::invalid_argument("bad --metrics format: \"" + std::string(token) + "\"");
}

/// Peak resident set size of this process so far, in KiB.
std::int64_t peak_rss_kb()
{
    rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) != 0) {
        return 0;
    }
    return static_cast<std::int64_t>(usage.ru_maxrss); // KiB on Linux
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
    // The flag loop captures only the raw list text; it is resolved after
    // the loop, so --list-benchmarks lists even when the list is bad.
    std::string benchmarks_csv = "reported";
    bool list_benchmarks = false;
    bool quiet = false;
    std::optional<obs::metrics_format> metrics;
    std::string trace_path;
    const workload::workload_registry& registry = workload::workload_registry::global();

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
            } else if (arg == "--metrics") {
                metrics = obs::metrics_format::table;
            } else if (const auto v = flag_value(arg, "metrics")) {
                metrics = parse_metrics_format(*v);
            } else if (arg == "--trace") {
                trace_path = take(arg);
            } else if (const auto v = flag_value(arg, "trace")) {
                trace_path = *v;
            } else if (arg == "--benchmarks") {
                benchmarks_csv = take(arg);
            } else if (const auto v = flag_value(arg, "benchmarks")) {
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
            } else if (arg == "--workers") {
                workers = parse_at_most(arg, take(arg), max_workers);
            } else if (const auto v = flag_value(arg, "workers")) {
                workers = parse_at_most("--workers", *v, max_workers);
            } else if (arg == "--cores") {
                spec.config.thread_count = parse_at_most(arg, take(arg), max_cores);
            } else if (const auto v = flag_value(arg, "cores")) {
                spec.config.thread_count = parse_at_most("--cores", *v, max_cores);
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
        // Telemetry switches on BEFORE the pool and cache exist so their
        // instruments observe the whole run. Counters are always live; this
        // flag arms the clock-reading paths (*_ns timers, spans).
        if (metrics.has_value() || !trace_path.empty()) {
            obs::set_enabled(true);
        }
        if (!trace_path.empty()) {
            obs::trace_recorder::global().set_enabled(true);
        }

        runtime::experiment_cache& cache = runtime::experiment_cache::process_cache();
        runtime::thread_pool pool(workers);
        runtime::sweep_scheduler scheduler(pool, cache);
        const runtime::sweep_result result = scheduler.run(spec);

        if (!quiet) {
            std::fputs(runtime::render_sweep_table(result).c_str(), stdout);
            // The calling thread claims pairs while it waits, so the
            // sweep runs on one thread more than the pool has workers.
            // Milliseconds: a sweep of ~0.2 s printed to 10 ms would
            // quantize any throughput read from this line to ~5% steps.
            std::printf("%zu cells in %.3f s on %zu workers (%zu threads) "
                        "(stage cache: %llu hits, %llu misses; program cache: "
                        "%llu hits, %llu misses; %llu steals)\n",
                        result.cells.size(), result.wall_seconds, pool.worker_count(),
                        pool.worker_count() + 1,
                        static_cast<unsigned long long>(result.cache_hits),
                        static_cast<unsigned long long>(result.cache_misses),
                        static_cast<unsigned long long>(result.program_cache_hits),
                        static_cast<unsigned long long>(result.program_cache_misses),
                        static_cast<unsigned long long>(pool.steal_count()));
        }
        if (metrics.has_value()) {
            // End-of-run gauges: what the program tier and the process hold
            // once the sweep is done.
            obs::metrics_registry& registry = obs::metrics_registry::global();
            registry.gauge_at("cache.tier2.resident")
                .set(static_cast<std::int64_t>(cache.program_size()));
            registry.gauge_at("process.peak_rss_kb").set(peak_rss_kb());
            std::fputs(obs::render_metrics(registry.snapshot(), *metrics).c_str(), stdout);
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
    } catch (const std::exception& error) {
        std::fprintf(stderr, "synts_runner: %s\n", error.what());
        return 1;
    }
}
