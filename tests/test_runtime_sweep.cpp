// Tests for runtime/sweep + sweep_io: spec expansion, scheduler results
// bit-identical to the serial pareto_sweep path, schedule independence
// across worker counts, error propagation, concurrent use of one shared
// benchmark_experiment (the run_policy/pareto_sweep thread-safety
// contract), per-sweep cache-traffic attribution when sweeps share one
// cache, and the CSV/JSON emitters and name parsers the runner CLI uses.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "runtime/sweep.h"
#include "runtime/sweep_io.h"
#include "util/hashing.h"
#include "workload/registry.h"
#include "workload/scenarios.h"

namespace {

using namespace synts;
using core::policy_kind;

runtime::sweep_spec small_spec()
{
    runtime::sweep_spec spec;
    spec.benchmarks = {workload::benchmark_id::radix};
    spec.stages = {circuit::pipe_stage::simple_alu, circuit::pipe_stage::decode};
    spec.policies = {policy_kind::synts_offline, policy_kind::per_core_ts};
    spec.theta_multipliers = {0.5, 1.0, 2.0};
    return spec;
}

/// Registers (once) and returns a tiny workload in the global registry --
/// 1 interval x 500 instructions, ~100x cheaper than a built-in profile.
/// Distinct `salt`s are distinct workloads (distinct identity AND distinct
/// operand streams).
workload::workload_key tiny_workload(const std::string& name, std::uint64_t salt)
{
    workload::workload_registry& global = workload::workload_registry::global();
    if (global.contains(name)) {
        return global.key(name);
    }
    util::digest_builder h;
    h.text("tiny_sweep_test_workload");
    h.text(name);
    h.u64(salt);
    const workload::workload_key key{name, h.digest()};
    global.add(key, [salt](std::size_t thread_count) {
        workload::benchmark_profile profile =
            workload::make_lock_ladder_profile(workload::lock_ladder_params{},
                                               thread_count);
        profile.stream_salt = salt;
        profile.interval_count = 1;
        profile.instructions_per_interval = 500;
        return profile;
    });
    return key;
}

TEST(runtime_sweep, expansion_cross_product_and_explicit_pairs)
{
    runtime::sweep_spec spec = small_spec();
    EXPECT_EQ(spec.expanded_pairs().size(), 2u);
    EXPECT_EQ(spec.task_count(), 4u);

    spec.pairs = {{workload::benchmark_id::fmm, circuit::pipe_stage::complex_alu}};
    ASSERT_EQ(spec.expanded_pairs().size(), 1u); // explicit list wins
    EXPECT_EQ(spec.expanded_pairs()[0].first, workload::benchmark_id::fmm);
    EXPECT_EQ(spec.task_count(), 2u);
}

TEST(runtime_sweep, scheduler_matches_serial_sweep_bit_for_bit)
{
    const runtime::sweep_spec spec = small_spec();

    runtime::thread_pool pool(4);
    runtime::experiment_cache cache;
    const runtime::sweep_scheduler scheduler(pool, cache);
    const runtime::sweep_result result = scheduler.run(spec);

    ASSERT_EQ(result.cells.size(), 4u);
    EXPECT_EQ(result.cache_misses, 2u); // one per pair
    EXPECT_EQ(result.cache_hits, 0u);   // per-pair tasks fetch once, share across cells

    for (const auto& [benchmark, stage] : spec.expanded_pairs()) {
        const core::benchmark_experiment serial(benchmark, stage, spec.config);
        const double theta_eq = serial.equal_weight_theta();
        for (const policy_kind kind : spec.policies) {
            const runtime::sweep_cell* cell = result.find(benchmark, stage, kind);
            ASSERT_NE(cell, nullptr);
            EXPECT_EQ(cell->theta_eq, theta_eq);

            const auto serial_run = serial.run_policy(kind, theta_eq);
            EXPECT_EQ(cell->equal_weight.sum.energy, serial_run.sum.energy);
            EXPECT_EQ(cell->equal_weight.sum.time_ps, serial_run.sum.time_ps);

            const auto serial_front =
                core::pareto_sweep(serial, kind, spec.theta_multipliers);
            ASSERT_EQ(cell->pareto.size(), serial_front.size());
            for (std::size_t i = 0; i < serial_front.size(); ++i) {
                EXPECT_EQ(cell->pareto[i].theta, serial_front[i].theta);
                EXPECT_EQ(cell->pareto[i].energy, serial_front[i].energy);
                EXPECT_EQ(cell->pareto[i].time, serial_front[i].time);
            }
        }
    }
}

TEST(runtime_sweep, results_independent_of_worker_count)
{
    runtime::sweep_spec spec = small_spec();
    spec.stages = {circuit::pipe_stage::simple_alu};

    std::vector<runtime::sweep_result> results;
    for (const std::size_t workers : {1u, 3u}) {
        runtime::thread_pool pool(workers);
        runtime::experiment_cache cache;
        results.push_back(runtime::sweep_scheduler(pool, cache).run(spec));
    }
    ASSERT_EQ(results[0].cells.size(), results[1].cells.size());
    for (std::size_t c = 0; c < results[0].cells.size(); ++c) {
        const auto& a = results[0].cells[c];
        const auto& b = results[1].cells[c];
        EXPECT_EQ(a.workload, b.workload); // cell order is schedule-independent
        EXPECT_EQ(a.policy, b.policy);
        EXPECT_EQ(a.theta_eq, b.theta_eq);
        EXPECT_EQ(a.task_seed, b.task_seed);
        EXPECT_EQ(a.equal_weight.sum.energy, b.equal_weight.sum.energy);
        ASSERT_EQ(a.pareto.size(), b.pareto.size());
        for (std::size_t i = 0; i < a.pareto.size(); ++i) {
            EXPECT_EQ(a.pareto[i].energy, b.pareto[i].energy);
            EXPECT_EQ(a.pareto[i].time, b.pareto[i].time);
        }
    }
}

TEST(runtime_sweep, task_seeds_are_deterministic_streams)
{
    runtime::thread_pool pool(2);
    runtime::experiment_cache cache;
    runtime::sweep_spec spec = small_spec();
    spec.stages = {circuit::pipe_stage::simple_alu};
    const runtime::sweep_result result = runtime::sweep_scheduler(pool, cache).run(spec);
    ASSERT_EQ(result.cells.size(), 2u);
    EXPECT_EQ(result.cells[0].task_seed, util::hash_mix(spec.config.seed, 0));
    EXPECT_EQ(result.cells[1].task_seed, util::hash_mix(spec.config.seed, 1));
    EXPECT_NE(result.cells[0].task_seed, result.cells[1].task_seed);
}

TEST(runtime_sweep, nested_run_on_single_worker_pool_does_not_deadlock)
{
    // run() may be called from inside a parallel_for body (composed
    // sweeps); the nested loop's caller must drain the cells itself even
    // when it occupies the pool's only worker.
    runtime::thread_pool pool(1);
    runtime::experiment_cache cache;
    runtime::sweep_spec spec = small_spec();
    spec.stages = {circuit::pipe_stage::simple_alu};
    spec.policies = {policy_kind::nominal};
    spec.theta_multipliers.clear();

    std::vector<std::size_t> cell_counts(2);
    pool.parallel_for(0, cell_counts.size(), [&](std::size_t i) {
        cell_counts[i] = runtime::sweep_scheduler(pool, cache).run(spec).cells.size();
    }, 1);
    EXPECT_EQ(cell_counts, (std::vector<std::size_t>{1, 1}));
}

TEST(runtime_sweep, cell_errors_propagate)
{
    runtime::thread_pool pool(2);
    runtime::experiment_cache cache;
    runtime::sweep_spec spec = small_spec();
    spec.config.thread_count = 0; // experiment construction throws
    EXPECT_THROW((void)runtime::sweep_scheduler(pool, cache).run(spec),
                 std::invalid_argument);
}

TEST(runtime_sweep, shared_experiment_safe_for_concurrent_policy_runs)
{
    // The cache hands ONE experiment instance to every worker; run_policy,
    // make_solver_input and pareto_sweep must therefore be const all the
    // way down. Hammer one instance from several threads and require
    // bit-identical outcomes to the serial call.
    runtime::experiment_cache cache;
    const auto experiment =
        cache.get_or_create(workload::benchmark_id::radix, circuit::pipe_stage::decode);
    const double theta = experiment->equal_weight_theta();
    const auto expected = experiment->run_policy(policy_kind::synts_online, theta);
    const std::vector<double> ladder = {0.5, 1.0};
    const auto expected_front =
        core::pareto_sweep(*experiment, policy_kind::synts_offline, ladder);

    runtime::thread_pool pool(4);
    pool.parallel_for(0, 8, [&](std::size_t) {
        const auto run = experiment->run_policy(policy_kind::synts_online, theta);
        ASSERT_EQ(run.sum.energy, expected.sum.energy);
        ASSERT_EQ(run.sum.time_ps, expected.sum.time_ps);
        const auto front = core::pareto_sweep(*experiment, policy_kind::synts_offline, ladder);
        ASSERT_EQ(front.size(), expected_front.size());
        for (std::size_t p = 0; p < front.size(); ++p) {
            ASSERT_EQ(front[p].energy, expected_front[p].energy);
            ASSERT_EQ(front[p].time, expected_front[p].time);
        }
    }, 1);
}

TEST(runtime_sweep, concurrent_sweeps_on_one_cache_attribute_their_own_traffic)
{
    // Two different single-pair sweeps share ONE experiment cache and run
    // concurrently. Before per-sweep sinks, each sweep's stats were
    // computed by differencing the cache's GLOBAL counters around its run
    // window -- so each sweep also swallowed the other's traffic. With
    // attribution threaded through the lookups, each must see exactly its
    // own: 1 program miss, 1 stage miss, 1 compute, 0 hits.
    const workload::workload_key key_a = tiny_workload("sweep_stats_a", 77);
    const workload::workload_key key_b = tiny_workload("sweep_stats_b", 88);

    runtime::experiment_cache cache; // shared by both sweeps
    runtime::thread_pool pool_a(2);
    runtime::thread_pool pool_b(2);
    const runtime::sweep_scheduler scheduler_a(pool_a, cache);
    const runtime::sweep_scheduler scheduler_b(pool_b, cache);

    runtime::sweep_spec spec_a;
    spec_a.benchmarks = {key_a};
    spec_a.stages = {circuit::pipe_stage::simple_alu};
    spec_a.policies = {core::policy_kind::nominal};
    runtime::sweep_spec spec_b = spec_a;
    spec_b.benchmarks = {key_b};

    // The process-wide registry counters --metrics prints, read as deltas.
    obs::metrics_registry& registry = obs::metrics_registry::global();
    const char* const tier_counters[] = {"cache.tier2.hits", "cache.tier2.misses",
                                         "cache.tier2.computes", "cache.tier1.hits",
                                         "cache.tier1.misses"};
    std::vector<std::uint64_t> before;
    for (const char* name : tier_counters) {
        before.push_back(registry.counter_at(name).value());
    }

    runtime::sweep_result result_a;
    runtime::sweep_result result_b;
    std::thread other([&] { result_b = scheduler_b.run(spec_b); });
    result_a = scheduler_a.run(spec_a);
    other.join();

    for (const runtime::sweep_result* result : {&result_a, &result_b}) {
        EXPECT_EQ(result->program_cache_misses, 1u);
        EXPECT_EQ(result->program_cache_hits, 0u);
        EXPECT_EQ(result->program_computes, 1u);
        EXPECT_EQ(result->cache_misses, 1u);
        EXPECT_EQ(result->cache_hits, 0u);
    }
    // The registry counters see the union: no hits, and per sweep one miss
    // on each tier and one compute.
    const std::uint64_t expected_delta[] = {0, 2, 2, 0, 2};
    for (std::size_t i = 0; i < std::size(tier_counters); ++i) {
        EXPECT_EQ(registry.counter_at(tier_counters[i]).value() - before[i],
                  expected_delta[i])
            << tier_counters[i];
    }

    // A re-run of sweep A against the warm cache reports pure hits -- and
    // zero computes, where the old differencing could even wrap negative
    // when another thread's traffic landed in the window.
    const runtime::sweep_result warm = scheduler_a.run(spec_a);
    EXPECT_EQ(warm.cache_hits, 1u);
    EXPECT_EQ(warm.cache_misses, 0u);
    EXPECT_EQ(warm.program_cache_misses, 0u);
    EXPECT_EQ(warm.program_computes, 0u);
}

TEST(runtime_sweep, emitters_cover_every_cell)
{
    runtime::thread_pool pool(2);
    runtime::experiment_cache cache;
    runtime::sweep_spec spec = small_spec();
    spec.stages = {circuit::pipe_stage::simple_alu};
    const runtime::sweep_result result = runtime::sweep_scheduler(pool, cache).run(spec);

    std::ostringstream pareto_csv;
    runtime::write_pareto_csv(result, pareto_csv);
    // header + cells * multipliers rows
    const std::string pareto_text = pareto_csv.str();
    EXPECT_EQ(static_cast<std::size_t>(
                  std::count(pareto_text.begin(), pareto_text.end(), '\n')),
              1 + result.cells.size() * spec.theta_multipliers.size());
    EXPECT_NE(pareto_text.find("Radix"), std::string::npos);

    std::ostringstream summary_csv;
    runtime::write_summary_csv(result, summary_csv);
    const std::string summary_text = summary_csv.str();
    EXPECT_EQ(static_cast<std::size_t>(
                  std::count(summary_text.begin(), summary_text.end(), '\n')),
              1 + result.cells.size());

    std::ostringstream json;
    runtime::write_sweep_json(result, json);
    const std::string json_text = json.str();
    EXPECT_NE(json_text.find("\"cells\""), std::string::npos);
    EXPECT_NE(json_text.find("synts_offline"), std::string::npos);
    EXPECT_NE(json_text.find("per_core_ts"), std::string::npos);

    EXPECT_NE(runtime::render_sweep_table(result).find("Radix"), std::string::npos);
}

TEST(runtime_sweep, sweep_json_meta_rides_on_one_strippable_line)
{
    // The meta contract: ONE extra line, so determinism consumers recover
    // the unstamped document with `grep -v '"meta"'`.
    runtime::sweep_result result;
    std::ostringstream bare;
    runtime::write_sweep_json(result, bare);

    runtime::sweep_json_meta meta = runtime::collect_sweep_json_meta();
    EXPECT_FALSE(meta.generated_utc.empty());
    EXPECT_GE(meta.hardware_concurrency, 1u);
    meta.git_describe = "v1.2.3-4-gabcdef0";
    std::ostringstream stamped;
    runtime::write_sweep_json(result, stamped, &meta);

    std::istringstream lines(stamped.str());
    std::string line;
    std::string stripped;
    std::size_t meta_lines = 0;
    while (std::getline(lines, line)) {
        if (line.find("\"meta\"") != std::string::npos) {
            ++meta_lines;
            EXPECT_NE(line.find("\"schema_version\": 1"), std::string::npos);
            EXPECT_NE(line.find("\"generated_utc\": \""), std::string::npos);
            EXPECT_NE(line.find("\"hostname\": \""), std::string::npos);
            EXPECT_NE(line.find("\"hardware_concurrency\": "), std::string::npos);
            EXPECT_NE(line.find("\"git_describe\": \"v1.2.3-4-gabcdef0\""),
                      std::string::npos);
            continue;
        }
        stripped += line + "\n";
    }
    EXPECT_EQ(meta_lines, 1u);
    EXPECT_EQ(stripped, bare.str());
}

TEST(runtime_sweep, name_parsers_are_forgiving)
{
    EXPECT_EQ(runtime::parse_stage("SimpleALU"), circuit::pipe_stage::simple_alu);
    EXPECT_EQ(runtime::parse_stage("simple_alu"), circuit::pipe_stage::simple_alu);
    EXPECT_EQ(runtime::parse_policy("per-core-ts"), policy_kind::per_core_ts);
    EXPECT_EQ(runtime::parse_policy("Per-core TS"), policy_kind::per_core_ts);
    EXPECT_EQ(runtime::parse_policy("nonesuch"), std::nullopt);
    EXPECT_EQ(runtime::parse_stage_list("all").size(), circuit::pipe_stage_count);
    EXPECT_EQ(runtime::parse_policy_list("all").size(), core::policy_count);
    EXPECT_EQ(runtime::parse_policy_list("nominal,no_ts").size(), 2u);
    EXPECT_THROW((void)runtime::parse_policy_list("nominal,bogus"),
                 std::invalid_argument);
}

TEST(runtime_sweep, workload_parsers_resolve_registry_names)
{
    const workload::workload_registry& registry = workload::workload_registry::global();
    EXPECT_EQ(runtime::parse_workload(registry, "radix")->name, "Radix");
    EXPECT_EQ(runtime::parse_workload(registry, "Lock-Ladder")->name, "lock_ladder");
    const workload::workload_key lu_contig =
        workload::builtin_key(workload::benchmark_id::lu_contig);
    EXPECT_EQ(runtime::parse_workload(registry, "lu-contig"), lu_contig);
    EXPECT_EQ(runtime::parse_workload(registry, "LU_CONTIG"), lu_contig);
    EXPECT_EQ(runtime::parse_workload(registry, "nonesuch"), std::nullopt);
    EXPECT_EQ(runtime::parse_workload_list(registry, "reported").size(), 7u);
    EXPECT_EQ(runtime::parse_workload_list(registry, "splash2").size(),
              workload::benchmark_count);
    // "all" means every registered workload: the ten plus the two
    // lock_ladder instances at minimum (tests may add() more late).
    EXPECT_GE(runtime::parse_workload_list(registry, "all").size(),
              workload::benchmark_count + 2);
    EXPECT_THROW((void)runtime::parse_workload_list(registry, "fmm,bogus"),
                 std::invalid_argument);
    EXPECT_THROW((void)runtime::parse_workload_list(registry, "fmm,,radix"),
                 std::invalid_argument);
    // The resolved key is the registry identity, so sweeps over parsed
    // names and sweeps over constructed keys cache-share.
    EXPECT_EQ(*runtime::parse_workload(registry, "fmm"),
              workload::builtin_key(workload::benchmark_id::fmm));
}

} // namespace
