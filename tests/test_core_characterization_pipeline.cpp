// Tests for the staged characterization pipeline: make_program_artifacts,
// the artifact-consuming characterizer overload, and the
// bit-identity of every parallel phase (trace generation, architectural
// profiling, per-(thread, interval) timing simulation) against the serial
// path. The identity checks are exact -- EXPECT_EQ on doubles/floats -- by
// design: the parallel fan-out must not change a single bit.

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "core/characterization.h"
#include "core/experiment.h"
#include "core/program_artifacts.h"
#include "runtime/thread_pool.h"
#include "workload/splash2.h"

#include "helpers.h"

namespace {

using namespace synts;

constexpr auto kBenchmark = workload::benchmark_id::radix;
constexpr auto kStage = circuit::pipe_stage::simple_alu;
constexpr std::uint64_t kSeed = 42;
constexpr std::size_t kThreads = 4;

void expect_same_trace(const arch::program_trace& a, const arch::program_trace& b)
{
    ASSERT_EQ(a.thread_count(), b.thread_count());
    for (std::size_t t = 0; t < a.thread_count(); ++t) {
        EXPECT_EQ(a.threads[t].barrier_points, b.threads[t].barrier_points);
        ASSERT_EQ(a.threads[t].ops.size(), b.threads[t].ops.size());
        for (std::size_t n = 0; n < a.threads[t].ops.size(); ++n) {
            const arch::micro_op& x = a.threads[t].ops[n];
            const arch::micro_op& y = b.threads[t].ops[n];
            ASSERT_EQ(x.cls, y.cls);
            ASSERT_EQ(x.encoding, y.encoding);
            ASSERT_EQ(x.operand_a, y.operand_a);
            ASSERT_EQ(x.operand_b, y.operand_b);
            ASSERT_EQ(x.address, y.address);
            ASSERT_EQ(x.branch_taken, y.branch_taken);
        }
    }
}

void expect_same_characterization(const core::stage_characterization& a,
                                  const core::stage_characterization& b)
{
    EXPECT_EQ(a.stage, b.stage);
    EXPECT_EQ(a.tnom_ps, b.tnom_ps);
    EXPECT_EQ(a.corner_vdd, b.corner_vdd);
    ASSERT_EQ(a.threads.size(), b.threads.size());
    for (std::size_t t = 0; t < a.threads.size(); ++t) {
        ASSERT_EQ(a.threads[t].size(), b.threads[t].size());
        for (std::size_t k = 0; k < a.threads[t].size(); ++k) {
            const core::interval_characterization& x = a.threads[t][k];
            const core::interval_characterization& y = b.threads[t][k];
            EXPECT_EQ(x.instruction_count, y.instruction_count);
            EXPECT_EQ(x.vector_count, y.vector_count);
            EXPECT_EQ(x.sampling_delays_ps, y.sampling_delays_ps);
            EXPECT_EQ(x.sampling_instr_index, y.sampling_instr_index);
            ASSERT_EQ(x.delay_histograms.size(), y.delay_histograms.size());
            for (std::size_t c = 0; c < x.delay_histograms.size(); ++c) {
                ASSERT_EQ(x.delay_histograms[c].bin_count(),
                          y.delay_histograms[c].bin_count());
                EXPECT_EQ(x.delay_histograms[c].total(), y.delay_histograms[c].total());
                for (std::size_t i = 0; i < x.delay_histograms[c].bin_count(); ++i) {
                    ASSERT_EQ(x.delay_histograms[c].count_at(i),
                              y.delay_histograms[c].count_at(i));
                }
            }
        }
    }
}

/// Radix's program artifacts at kThreads cores and kSeed, built once.
const core::program_artifacts& radix_artifacts()
{
    static const auto artifacts = [] {
        core::experiment_config config;
        config.thread_count = kThreads;
        config.seed = kSeed;
        return core::make_program_artifacts(kBenchmark, config);
    }();
    return *artifacts;
}

/// capacity() == size() == vector_count for both sampling vectors of every
/// interval: the pre-pass count sizes them exactly.
void expect_exact_sampling_buffers(const core::stage_characterization& result)
{
    for (const auto& thread : result.threads) {
        for (const core::interval_characterization& data : thread) {
            EXPECT_EQ(data.sampling_delays_ps.size(), data.vector_count);
            EXPECT_EQ(data.sampling_delays_ps.capacity(), data.vector_count);
            EXPECT_EQ(data.sampling_instr_index.size(), data.vector_count);
            EXPECT_EQ(data.sampling_instr_index.capacity(), data.vector_count);
        }
    }
}

TEST(characterization_pipeline, make_program_artifacts_produces_valid_artifacts)
{
    const core::program_artifacts& artifacts = radix_artifacts();
    EXPECT_NO_THROW(artifacts.validate());
    EXPECT_EQ(artifacts.workload, workload::workload_key(kBenchmark));
    EXPECT_EQ(artifacts.thread_count, kThreads);
    EXPECT_EQ(artifacts.seed, kSeed);
    EXPECT_EQ(artifacts.workload_digest, core::workload_digest(kThreads, kSeed, {}));
    EXPECT_EQ(artifacts.trace.thread_count(), kThreads);
    EXPECT_GT(artifacts.interval_count(), 0u);
    ASSERT_EQ(artifacts.arch_profiles.size(), kThreads);
    for (const arch::thread_profile& profile : artifacts.arch_profiles) {
        EXPECT_EQ(profile.size(), artifacts.interval_count());
        for (const arch::interval_profile& p : profile) {
            EXPECT_GT(p.instruction_count, 0u);
            EXPECT_GT(p.cpi_base, 0.0);
        }
    }
}

TEST(characterization_pipeline, trace_generation_parallel_is_bit_identical)
{
    const workload::benchmark_profile profile =
        workload::make_profile(kBenchmark, kThreads);
    const arch::program_trace serial = workload::generate_program_trace(profile, kSeed);

    runtime::thread_pool pool(4);
    const arch::program_trace parallel =
        workload::generate_program_trace(profile, kSeed, runtime::make_parallel_for(pool));
    expect_same_trace(serial, parallel);
}

TEST(characterization_pipeline, profiler_parallel_is_bit_identical)
{
    const workload::benchmark_profile profile =
        workload::make_profile(kBenchmark, kThreads);
    const arch::program_trace trace = workload::generate_program_trace(profile, kSeed);

    arch::multicore_profiler profiler({});
    const auto serial = profiler.profile(trace);

    runtime::thread_pool pool(4);
    const auto parallel = profiler.profile(trace, runtime::make_parallel_for(pool));
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t t = 0; t < serial.size(); ++t) {
        ASSERT_EQ(serial[t].size(), parallel[t].size());
        for (std::size_t k = 0; k < serial[t].size(); ++k) {
            EXPECT_EQ(serial[t][k].instruction_count, parallel[t][k].instruction_count);
            EXPECT_EQ(serial[t][k].base_cycles, parallel[t][k].base_cycles);
            EXPECT_EQ(serial[t][k].cpi_base, parallel[t][k].cpi_base);
            EXPECT_EQ(serial[t][k].dcache_miss_rate, parallel[t][k].dcache_miss_rate);
            EXPECT_EQ(serial[t][k].branch_misprediction_rate,
                      parallel[t][k].branch_misprediction_rate);
        }
    }
}

TEST(characterization_pipeline, artifact_overload_matches_legacy_trace_overload)
{
    const core::program_artifacts& artifacts = radix_artifacts();

    const auto lib = circuit::cell_library::standard_22nm();
    const circuit::voltage_model vm(0.04);
    const core::characterizer chars(lib, vm, {});

    // The trace path: re-profile the stored trace, then characterize the
    // rebuilt artifacts. It must match the stored artifacts exactly.
    const core::stage_characterization staged = chars.characterize(artifacts, kStage);
    const core::stage_characterization reprofiled =
        chars.characterize(test::characterize_trace(artifacts.trace), kStage);
    expect_same_characterization(staged, reprofiled);
}

TEST(characterization_pipeline, parallel_characterization_is_bit_identical)
{
    const core::program_artifacts& artifacts = radix_artifacts();

    const auto lib = circuit::cell_library::standard_22nm();
    const circuit::voltage_model vm(0.04);
    const core::characterizer chars(lib, vm, {});

    const core::stage_characterization serial = chars.characterize(artifacts, kStage);

    runtime::thread_pool pool(4);
    const core::stage_characterization parallel =
        chars.characterize(artifacts, kStage, runtime::make_parallel_for(pool));
    expect_same_characterization(serial, parallel);
}

TEST(characterization_pipeline, sampling_vectors_are_exact_size)
{
    const core::program_artifacts& artifacts = radix_artifacts();

    const auto lib = circuit::cell_library::standard_22nm();
    const circuit::voltage_model vm(0.04);
    const core::characterizer chars(lib, vm, {});
    runtime::thread_pool pool(4);
    for (const auto stage : {circuit::pipe_stage::decode, circuit::pipe_stage::simple_alu,
                             circuit::pipe_stage::complex_alu}) {
        SCOPED_TRACE(circuit::pipe_stage_name(stage));
        expect_exact_sampling_buffers(chars.characterize(artifacts, stage));
        expect_exact_sampling_buffers(
            chars.characterize(artifacts, stage, runtime::make_parallel_for(pool), 4));
    }
}

TEST(characterization_pipeline, driven_vector_count_must_match_the_pre_pass)
{
    EXPECT_NO_THROW(core::detail::check_driven_vectors(17, 17));
    EXPECT_THROW(core::detail::check_driven_vectors(17, 18), std::logic_error);
    EXPECT_THROW(core::detail::check_driven_vectors(17, 16), std::logic_error);
}

TEST(characterization_pipeline, artifact_experiment_matches_direct_construction)
{
    const core::experiment_config config;
    const auto artifacts = core::make_program_artifacts(kBenchmark, config);
    const core::benchmark_experiment staged(artifacts, kStage, config);
    const core::benchmark_experiment direct(kBenchmark, kStage, config);

    // The experiment copies the architectural profiles; it holds no
    // reference to the artifacts, so dropping them frees the trace.
    EXPECT_EQ(staged.arch_profiles(), artifacts->arch_profiles);
    EXPECT_EQ(staged.arch_profiles(), direct.arch_profiles());
    EXPECT_EQ(artifacts.use_count(), 1);
    EXPECT_EQ(staged.workload(), direct.workload());
    const double theta = direct.equal_weight_theta();
    EXPECT_EQ(staged.equal_weight_theta(), theta);
    for (const core::policy_kind kind : core::all_policies()) {
        const auto a = staged.run_policy(kind, theta);
        const auto b = direct.run_policy(kind, theta);
        EXPECT_EQ(a.sum.energy, b.sum.energy);
        EXPECT_EQ(a.sum.time_ps, b.sum.time_ps);
    }
}

TEST(characterization_pipeline, artifact_constructor_rejects_bad_inputs)
{
    const core::experiment_config config;
    const auto artifacts = core::make_program_artifacts(kBenchmark, config);

    EXPECT_THROW(core::benchmark_experiment(nullptr, kStage, config),
                 std::invalid_argument);

    core::experiment_config mismatched = config;
    mismatched.thread_count = 8;
    EXPECT_THROW(core::benchmark_experiment(artifacts, kStage, mismatched),
                 std::invalid_argument);

    core::experiment_config reseeded = config;
    reseeded.seed = config.seed + 1;
    EXPECT_THROW(core::benchmark_experiment(artifacts, kStage, reseeded),
                 std::invalid_argument);

    // A different core model changes the architectural profiles, so the
    // stamped provenance digest must reject it too.
    core::experiment_config remodeled = config;
    remodeled.characterization.core.dcache.miss_penalty_cycles += 6;
    EXPECT_THROW(core::benchmark_experiment(artifacts, kStage, remodeled),
                 std::invalid_argument);
}

} // namespace
