// Differential tests pinning the batched characterization hot path
// (chunked interval grain + 64-lane step_batch + bulk histogram insert)
// bit-identical to the scalar per-cell reference walk of
// reference_characterizer.h, over every real pipe stage, serial and
// pool-parallel, across chunk-sizing worker hints. Identity is exact --
// EXPECT_EQ on floats/doubles and histogram bin counts -- because the
// batch contract is bit-identity, not tolerance.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/characterization.h"
#include "core/program_artifacts.h"
#include "runtime/thread_pool.h"

#include "reference_characterizer.h"

namespace {

using namespace synts;

constexpr auto kBenchmark = workload::benchmark_id::radix;
constexpr std::uint64_t kSeed = 42;
constexpr std::size_t kThreads = 2;

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
                              y.delay_histograms[c].count_at(i))
                        << "thread " << t << " interval " << k << " corner " << c
                        << " bin " << i;
                }
            }
        }
    }
}

const core::program_artifacts& shared_artifacts()
{
    static const core::program_artifacts artifacts =
        core::program_characterizer{}.characterize(kBenchmark, kThreads, kSeed);
    return artifacts;
}

class characterization_batch
    : public ::testing::TestWithParam<circuit::pipe_stage> {};

TEST_P(characterization_batch, batched_serial_matches_scalar_reference)
{
    const auto lib = circuit::cell_library::standard_22nm();
    const circuit::voltage_model vm(0.04);

    const core::characterizer batched_chars(lib, vm, {});

    const auto scalar = test::reference_characterize(lib, vm, {}, shared_artifacts(),
                                                     GetParam());
    const auto batched = batched_chars.characterize(shared_artifacts(), GetParam());
    expect_same_characterization(scalar, batched);
}

TEST_P(characterization_batch, batched_parallel_matches_scalar_reference)
{
    const auto lib = circuit::cell_library::standard_22nm();
    const circuit::voltage_model vm(0.04);

    const core::characterizer batched_chars(lib, vm, {});

    const auto scalar = test::reference_characterize(lib, vm, {}, shared_artifacts(),
                                                     GetParam());

    runtime::thread_pool pool(3);
    const auto parallel = batched_chars.characterize(
        shared_artifacts(), GetParam(), runtime::make_parallel_for(pool),
        pool.worker_count());
    expect_same_characterization(scalar, parallel);
}

INSTANTIATE_TEST_SUITE_P(stages, characterization_batch,
                         ::testing::Values(circuit::pipe_stage::decode,
                                           circuit::pipe_stage::simple_alu,
                                           circuit::pipe_stage::complex_alu),
                         [](const auto& info) {
                             return std::string(circuit::pipe_stage_name(info.param));
                         });

TEST(characterization_batch, worker_hints_never_change_the_result)
{
    const auto lib = circuit::cell_library::standard_22nm();
    const circuit::voltage_model vm(0.04);
    const core::characterizer chars(lib, vm, {});
    constexpr auto kStage = circuit::pipe_stage::simple_alu;

    // The worker hint sizes chunks only; every partition of the interval
    // axis must chain to the same bits. Hint 1 is the degenerate
    // one-chunk-per-thread serial walk; large hints force many tiny chunks
    // (more warm-up replays, same output).
    const auto reference = chars.characterize(shared_artifacts(), kStage);

    runtime::thread_pool pool(2);
    const auto parallel = runtime::make_parallel_for(pool);
    for (const std::size_t hint : {std::size_t{1}, std::size_t{2}, std::size_t{7},
                                   std::size_t{64}}) {
        const auto hinted =
            chars.characterize(shared_artifacts(), kStage, parallel, hint);
        expect_same_characterization(reference, hinted);
    }
}

TEST(characterization_batch, sampling_trace_off_matches_scalar)
{
    const auto lib = circuit::cell_library::standard_22nm();
    const circuit::voltage_model vm(0.04);
    constexpr auto kStage = circuit::pipe_stage::simple_alu;

    core::characterization_config config;
    config.keep_sampling_trace = false;

    const auto scalar =
        test::reference_characterize(lib, vm, config, shared_artifacts(), kStage);
    const auto batched =
        core::characterizer(lib, vm, config).characterize(shared_artifacts(), kStage);
    expect_same_characterization(scalar, batched);
    for (const auto& thread : batched.threads) {
        for (const auto& cell : thread) {
            EXPECT_TRUE(cell.sampling_delays_ps.empty());
            EXPECT_TRUE(cell.sampling_instr_index.empty());
        }
    }
}

} // namespace
