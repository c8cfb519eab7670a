// Tests for the experiment cache's program tier: one artifact set shared by
// all pipe stages of a benchmark (the trace is generated and the
// architectural profiler run exactly once), keying on workload_digest()
// only, the entry's lifetime (released once all three stages settle),
// pool-parallel construction bit-identity, and the contract that a
// characterization failure leaves no entry behind on either tier. Hits,
// misses and computes are read from the caller's cache_traffic sink.

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "core/experiment.h"
#include "runtime/experiment_cache.h"
#include "runtime/sweep.h"
#include "runtime/thread_pool.h"

namespace {

using namespace synts;
using runtime::experiment_cache;

constexpr auto kBenchmark = workload::benchmark_id::radix;

TEST(runtime_program_cache, three_stages_share_one_program_artifact)
{
    experiment_cache cache;
    runtime::cache_traffic traffic;
    const auto decode =
        cache.get_or_create(kBenchmark, circuit::pipe_stage::decode, {}, nullptr, &traffic);
    const auto simple = cache.get_or_create(kBenchmark, circuit::pipe_stage::simple_alu, {},
                                            nullptr, &traffic);
    const auto complex_alu = cache.get_or_create(kBenchmark, circuit::pipe_stage::complex_alu,
                                                 {}, nullptr, &traffic);

    // The acceptance pin: characterizing all three pipe stages generated the
    // trace and ran the architectural profiler exactly once.
    EXPECT_EQ(traffic.program.misses.load(), 1u);
    EXPECT_EQ(traffic.program.hits.load(), 2u);
    EXPECT_EQ(traffic.program_computes.load(), 1u);
    EXPECT_EQ(traffic.stage.misses.load(), 3u);
    // ...and once the third stage settled, the trace was let go.
    EXPECT_EQ(cache.program_size(), 0u);

    // Each experiment carries the one artifact set's profiles.
    EXPECT_EQ(decode->arch_profiles(), simple->arch_profiles());
    EXPECT_EQ(decode->arch_profiles(), complex_alu->arch_profiles());
    EXPECT_EQ(decode->arch_profiles(),
              core::make_program_artifacts(kBenchmark)->arch_profiles);
    ASSERT_EQ(decode->arch_profiles().size(), decode->thread_count());
    for (const auto& thread : decode->arch_profiles()) {
        ASSERT_EQ(thread.size(), decode->interval_count());
    }
}

TEST(runtime_program_cache, program_tier_keys_on_workload_digest_only)
{
    experiment_cache cache;
    runtime::cache_traffic traffic;
    const core::experiment_config base;

    core::experiment_config evaluation_only = base;
    evaluation_only.params.leakage_power = 1e-6;
    evaluation_only.sampling.sample_fraction = 0.2;
    ASSERT_NE(evaluation_only.digest(), base.digest());
    ASSERT_EQ(evaluation_only.workload_digest(), base.workload_digest());

    const auto a =
        cache.get_or_create(kBenchmark, circuit::pipe_stage::decode, base, nullptr, &traffic);
    const auto b = cache.get_or_create(kBenchmark, circuit::pipe_stage::decode,
                                       evaluation_only, nullptr, &traffic);

    // Distinct experiments (different stage-tier keys), one shared artifact.
    EXPECT_NE(a.get(), b.get());
    EXPECT_EQ(a->arch_profiles(), b->arch_profiles());
    EXPECT_EQ(traffic.program.misses.load(), 1u);
    EXPECT_EQ(traffic.program.hits.load(), 1u);
    EXPECT_EQ(traffic.program_computes.load(), 1u);

    // A workload knob, by contrast, forces fresh artifacts.
    core::experiment_config reseeded = base;
    reseeded.seed = 43;
    ASSERT_NE(reseeded.workload_digest(), base.workload_digest());
    const auto c = cache.get_or_create(kBenchmark, circuit::pipe_stage::decode, reseeded,
                                       nullptr, &traffic);
    EXPECT_EQ(traffic.program.misses.load(), 2u);
    EXPECT_EQ(traffic.program_computes.load(), 2u);
    EXPECT_EQ(c->arch_profiles(),
              core::make_program_artifacts(kBenchmark, reseeded)->arch_profiles);
    // One stage per config: both entries stay resident.
    EXPECT_EQ(cache.program_size(), 2u);
}

TEST(runtime_program_cache, get_or_create_program_is_directly_usable)
{
    experiment_cache cache;
    runtime::cache_traffic traffic;
    const auto artifacts = cache.get_or_create_program(kBenchmark, {}, nullptr, &traffic);
    ASSERT_NE(artifacts, nullptr);
    EXPECT_NO_THROW(artifacts->validate());
    EXPECT_EQ(artifacts->workload, workload::workload_key(kBenchmark));
    EXPECT_EQ(traffic.program.misses.load(), 1u);

    // The stage tier reuses a pre-seeded program entry.
    const auto experiment = cache.get_or_create(kBenchmark, circuit::pipe_stage::simple_alu,
                                                {}, nullptr, &traffic);
    EXPECT_EQ(experiment->arch_profiles(), artifacts->arch_profiles);
    EXPECT_EQ(traffic.program.misses.load(), 1u);
    EXPECT_EQ(traffic.program.hits.load(), 1u);
    EXPECT_EQ(traffic.program_computes.load(), 1u);
}

TEST(runtime_program_cache, entry_stays_until_all_three_stages_settle)
{
    experiment_cache cache;
    runtime::cache_traffic traffic;
    const auto get = [&](circuit::pipe_stage stage, const core::experiment_config& config) {
        (void)cache.get_or_create(kBenchmark, stage, config, nullptr, &traffic);
    };
    get(circuit::pipe_stage::decode, {});
    EXPECT_EQ(cache.program_size(), 1u);
    get(circuit::pipe_stage::complex_alu, {});
    EXPECT_EQ(cache.program_size(), 1u);
    // A stage-tier hit builds nothing and releases nothing.
    get(circuit::pipe_stage::decode, {});
    EXPECT_EQ(cache.program_size(), 1u);
    get(circuit::pipe_stage::simple_alu, {});
    EXPECT_EQ(cache.program_size(), 0u);
    EXPECT_EQ(traffic.program_computes.load(), 1u);
    EXPECT_EQ(cache.size(), 3u);

    // A config sharing the workload digest regenerates the released trace.
    core::experiment_config evaluation_only;
    evaluation_only.params.leakage_power = 1e-6;
    get(circuit::pipe_stage::decode, evaluation_only);
    EXPECT_EQ(traffic.program_computes.load(), 2u);
    EXPECT_EQ(cache.program_size(), 1u);
}

TEST(runtime_program_cache, released_program_dies_with_its_last_holder)
{
    experiment_cache cache;
    auto artifacts = cache.get_or_create_program(kBenchmark);
    const std::weak_ptr<const core::program_artifacts> weak = artifacts;
    for (const auto stage : {circuit::pipe_stage::decode, circuit::pipe_stage::simple_alu,
                             circuit::pipe_stage::complex_alu}) {
        (void)cache.get_or_create(kBenchmark, stage);
    }
    EXPECT_EQ(cache.program_size(), 0u);
    // The caller's copy is the last one: no experiment holds the trace.
    EXPECT_FALSE(weak.expired());
    artifacts.reset();
    EXPECT_TRUE(weak.expired());
}

TEST(runtime_program_cache, pooled_sweep_ends_with_no_program_resident)
{
    // Two workloads x three stages on a two-worker pool: the stages of one
    // workload build concurrently, so whichever settles last must see the
    // other two settled and release the entry.
    runtime::thread_pool pool(2);
    experiment_cache cache;
    runtime::sweep_spec spec;
    spec.benchmarks = {kBenchmark, workload::benchmark_id::fmm};
    spec.stages = {circuit::pipe_stage::decode, circuit::pipe_stage::simple_alu,
                   circuit::pipe_stage::complex_alu};
    spec.policies = {core::policy_kind::nominal};

    const runtime::sweep_result result = runtime::sweep_scheduler(pool, cache).run(spec);
    EXPECT_EQ(result.cells.size(), 6u);
    EXPECT_EQ(result.program_computes, 2u);
    EXPECT_EQ(result.program_cache_misses, 2u);
    EXPECT_EQ(result.program_cache_hits, 4u);
    EXPECT_EQ(cache.program_size(), 0u);
    EXPECT_EQ(cache.size(), 6u);
}

TEST(runtime_program_cache, pool_parallel_construction_is_bit_identical)
{
    experiment_cache cache;
    runtime::thread_pool pool(4);
    const auto parallel = cache.get_or_create(
        kBenchmark, circuit::pipe_stage::simple_alu, {}, &pool);

    // Forced-serial reference: no pool anywhere in the construction path.
    const core::benchmark_experiment serial(kBenchmark, circuit::pipe_stage::simple_alu,
                                            {});

    const double theta = serial.equal_weight_theta();
    EXPECT_EQ(parallel->equal_weight_theta(), theta);
    for (const core::policy_kind kind : core::all_policies()) {
        const auto a = parallel->run_policy(kind, theta);
        const auto b = serial.run_policy(kind, theta);
        ASSERT_EQ(a.intervals.size(), b.intervals.size());
        EXPECT_EQ(a.sum.energy, b.sum.energy);
        EXPECT_EQ(a.sum.time_ps, b.sum.time_ps);
        for (std::size_t k = 0; k < a.intervals.size(); ++k) {
            EXPECT_EQ(a.intervals[k].energy, b.intervals[k].energy);
            EXPECT_EQ(a.intervals[k].time_ps, b.intervals[k].time_ps);
        }
    }

    // The raw characterization bits agree too, not just the derived runs.
    const auto& ca = parallel->characterization();
    const auto& cb = serial.characterization();
    EXPECT_EQ(ca.tnom_ps, cb.tnom_ps);
    ASSERT_EQ(ca.threads.size(), cb.threads.size());
    for (std::size_t t = 0; t < ca.threads.size(); ++t) {
        ASSERT_EQ(ca.threads[t].size(), cb.threads[t].size());
        for (std::size_t k = 0; k < ca.threads[t].size(); ++k) {
            EXPECT_EQ(ca.threads[t][k].sampling_delays_ps,
                      cb.threads[t][k].sampling_delays_ps);
            EXPECT_EQ(ca.threads[t][k].vector_count, cb.threads[t][k].vector_count);
        }
    }
}

TEST(runtime_program_cache, characterization_failure_drops_entries_on_both_tiers)
{
    experiment_cache cache;
    runtime::cache_traffic traffic;
    core::experiment_config broken;
    broken.thread_count = 0; // make_profile rejects this during phase one
    EXPECT_THROW((void)cache.get_or_create(kBenchmark, circuit::pipe_stage::decode, broken,
                                           nullptr, &traffic),
                 std::invalid_argument);
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.program_size(), 0u);

    // Retry attempts construction again on both tiers (no poisoned entry).
    EXPECT_THROW((void)cache.get_or_create(kBenchmark, circuit::pipe_stage::decode, broken,
                                           nullptr, &traffic),
                 std::invalid_argument);
    EXPECT_EQ(traffic.stage.misses.load(), 2u);
    EXPECT_EQ(traffic.program.misses.load(), 2u);
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.program_size(), 0u);
}

TEST(runtime_program_cache, scheduler_sweep_shares_artifacts_without_deadlock)
{
    // Regression guard for the self-wait cycle the help-with-anything
    // parallel_for allowed: a sweep worker characterizing inside the cache
    // would lift another pair task off the pool, which then blocked on the
    // program-tier entry the lower stack frame was mid-constructing. With
    // more pairs than workers and the pool threaded into construction, this
    // configuration deadlocked before parallel_for became self-claiming.
    runtime::thread_pool pool(2);
    experiment_cache cache;
    runtime::sweep_spec spec;
    spec.benchmarks = {kBenchmark};
    spec.stages = {circuit::pipe_stage::decode, circuit::pipe_stage::simple_alu,
                   circuit::pipe_stage::complex_alu};
    spec.policies = {core::policy_kind::nominal};

    const runtime::sweep_scheduler scheduler(pool, cache);
    const runtime::sweep_result result = scheduler.run(spec);
    EXPECT_EQ(result.cells.size(), 3u);
    EXPECT_EQ(result.program_cache_misses, 1u);
    EXPECT_EQ(result.program_cache_hits, 2u);
    EXPECT_EQ(result.cache_misses, 3u);
}

TEST(runtime_program_cache, clear_forgets_both_tiers)
{
    experiment_cache cache;
    runtime::cache_traffic traffic;
    (void)cache.get_or_create(kBenchmark, circuit::pipe_stage::decode, {}, nullptr, &traffic);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.program_size(), 1u);
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.program_size(), 0u);
    (void)cache.get_or_create(kBenchmark, circuit::pipe_stage::decode, {}, nullptr, &traffic);
    EXPECT_EQ(traffic.program.misses.load(), 2u);
}

} // namespace
