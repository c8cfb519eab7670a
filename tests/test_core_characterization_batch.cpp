// Differential tests pinning the batched characterization hot path
// (chunked interval grain + 64-lane step_batch + bulk histogram insert)
// bit-identical to the scalar per-cell reference walk of
// reference_characterizer.h, over every real pipe stage driven by Radix and
// by lock_ladder, serial and pool-parallel, across chunk-sizing worker
// hints. Identity is exact -- EXPECT_EQ on floats/doubles and histogram
// bin counts -- because the batch contract is bit-identity, not
// tolerance. Both walks apply the delay floor (circuit::exact_delay_floor),
// each from its own pass; a soundness test holds the floor to step() on a
// canonical Decode interval, and the error models built from a floored
// characterization refuse queries at or below the floor.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuit/sta.h"
#include "core/characterization.h"
#include "core/experiment.h"
#include "runtime/thread_pool.h"
#include "workload/registry.h"

#include "reference_characterizer.h"

namespace {

using namespace synts;

constexpr auto kBenchmark = workload::benchmark_id::radix;
constexpr std::uint64_t kSeed = 42;
constexpr std::size_t kThreads = 2;

/// The output nets of the gates whose static arrival, from one STA per
/// supply level, reaches `floor` * t_nom at some level: the gates whose
/// settle time can reach the floor at all.
std::vector<circuit::net_id> reference_deep_nets(const circuit::netlist& nl,
                                                 const circuit::cell_library& lib,
                                                 const circuit::voltage_model& vm,
                                                 std::span<const double> vdd_levels,
                                                 double floor)
{
    const circuit::static_timing_analyzer sta(nl);
    const std::vector<double> nominal = sta.nominal_gate_delays(lib);
    const auto gates = nl.gates();
    std::vector<bool> deep(gates.size(), false);
    std::vector<double> delays(gates.size());
    for (const double vdd : vdd_levels) {
        vm.scale_gate_delays(gates, nominal, delays, vdd);
        const circuit::timing_report report = sta.analyze(delays);
        for (std::size_t g = 0; g < gates.size(); ++g) {
            deep[g] = deep[g] ||
                      report.arrival_ps[gates[g].output] >= floor * report.critical_delay_ps;
        }
    }
    std::vector<circuit::net_id> nets;
    for (std::size_t g = 0; g < gates.size(); ++g) {
        if (deep[g]) {
            nets.push_back(gates[g].output);
        }
    }
    return nets;
}

/// Whether the last step() toggled one of `nets`, given their values
/// before it.
bool toggled_any(circuit::dynamic_timing_simulator& sim,
                 const std::vector<circuit::net_id>& nets,
                 const std::vector<std::uint8_t>& before)
{
    for (std::size_t d = 0; d < before.size(); ++d) {
        if (sim.net_values()[nets[d]] != before[d]) {
            return true;
        }
    }
    return false;
}

void expect_same_characterization(const core::stage_characterization& a,
                                  const core::stage_characterization& b)
{
    EXPECT_EQ(a.stage, b.stage);
    EXPECT_EQ(a.tnom_ps, b.tnom_ps);
    EXPECT_EQ(a.corner_vdd, b.corner_vdd);
    EXPECT_EQ(a.delay_floor, b.delay_floor);
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

/// `workload`'s program artifacts at kThreads cores and kSeed.
std::shared_ptr<const core::program_artifacts>
make_artifacts(const workload::workload_key& workload)
{
    core::experiment_config config;
    config.thread_count = kThreads;
    config.seed = kSeed;
    return core::make_program_artifacts(workload, config);
}

const core::program_artifacts& shared_artifacts()
{
    static const auto artifacts = make_artifacts(kBenchmark);
    return *artifacts;
}

/// lock_ladder's convoy structure puts many non-driving ops between ALU
/// vectors: sparse driving patterns, next to Radix's dense ones.
const core::program_artifacts& lock_ladder_artifacts()
{
    static const auto artifacts =
        make_artifacts(workload::workload_registry::global().key("lock_ladder"));
    return *artifacts;
}

constexpr std::array kStages{circuit::pipe_stage::decode, circuit::pipe_stage::simple_alu,
                             circuit::pipe_stage::complex_alu};

/// One differential case: each real pipe stage driven by Radix, then by
/// lock_ladder. One byte wide, like the pipe_stage it extends, so the
/// Radix cases keep their test names.
enum class batch_case : std::uint8_t {
    decode,
    simple_alu,
    complex_alu,
    lock_ladder_decode,
    lock_ladder_simple_alu,
    lock_ladder_complex_alu,
};

circuit::pipe_stage stage_of(batch_case c)
{
    return kStages[static_cast<std::size_t>(c) % kStages.size()];
}

bool on_lock_ladder(batch_case c)
{
    return static_cast<std::size_t>(c) >= kStages.size();
}

const core::program_artifacts& artifacts_of(batch_case c)
{
    return on_lock_ladder(c) ? lock_ladder_artifacts() : shared_artifacts();
}

class characterization_batch : public ::testing::TestWithParam<batch_case> {};

TEST_P(characterization_batch, batched_serial_matches_scalar_reference)
{
    const auto lib = circuit::cell_library::standard_22nm();
    const circuit::voltage_model vm(0.04);

    const core::characterizer batched_chars(lib, vm, {});

    const core::program_artifacts& artifacts = artifacts_of(GetParam());
    const circuit::pipe_stage stage = stage_of(GetParam());
    const auto scalar = test::reference_characterize(lib, vm, {}, artifacts, stage);
    const auto batched = batched_chars.characterize(artifacts, stage);
    expect_same_characterization(scalar, batched);
}

TEST_P(characterization_batch, batched_parallel_matches_scalar_reference)
{
    const auto lib = circuit::cell_library::standard_22nm();
    const circuit::voltage_model vm(0.04);

    const core::characterizer batched_chars(lib, vm, {});

    const core::program_artifacts& artifacts = artifacts_of(GetParam());
    const circuit::pipe_stage stage = stage_of(GetParam());
    const auto scalar = test::reference_characterize(lib, vm, {}, artifacts, stage);

    runtime::thread_pool pool(3);
    const auto parallel = batched_chars.characterize(
        artifacts, stage, runtime::make_parallel_for(pool), pool.worker_count());
    expect_same_characterization(scalar, parallel);
}

INSTANTIATE_TEST_SUITE_P(stages, characterization_batch,
                         ::testing::Values(batch_case::decode, batch_case::simple_alu,
                                           batch_case::complex_alu,
                                           batch_case::lock_ladder_decode,
                                           batch_case::lock_ladder_simple_alu,
                                           batch_case::lock_ladder_complex_alu),
                         [](const auto& info) {
                             return std::string(circuit::pipe_stage_name(
                                        stage_of(info.param))) +
                                    (on_lock_ladder(info.param) ? "_lock_ladder" : "");
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

TEST(characterization_batch, pruned_vectors_settle_below_the_floor_at_every_corner)
{
    // One canonical interval (Radix, seed 42, 4 threads: thread 0, interval
    // 0) through step() on tables at the production floor: every vector that
    // toggles no deep gate (static arrival at or above the floor at some
    // corner) has a sensitized delay below exact_delay_floor * t_nom at all
    // 7 corners. Most of Decode's vectors are such vectors.
    const auto lib = circuit::cell_library::standard_22nm();
    const circuit::voltage_model vm(0.04);
    core::experiment_config config;
    config.thread_count = 4;
    config.seed = kSeed;
    const auto program = core::make_program_artifacts(kBenchmark, config);
    const circuit::stage_netlist stage_nl = circuit::build_stage(circuit::pipe_stage::decode);
    const auto tables = circuit::make_corner_tables(stage_nl.nl, lib, vm,
                                                    circuit::paper_voltage_levels());
    ASSERT_EQ(tables->delay_floor, circuit::exact_delay_floor);
    ASSERT_EQ(tables->corner_count(), 7u);
    const arch::stage_tap tap(circuit::pipe_stage::decode, stage_nl.layout);

    circuit::dynamic_timing_simulator sim(stage_nl.nl, tables);
    const auto bits_storage = std::make_unique<bool[]>(tap.width());
    const std::span<bool> bits(bits_storage.get(), tap.width());
    std::vector<double> delays(tables->corner_count());
    const std::vector<circuit::net_id> deep_nets = reference_deep_nets(
        stage_nl.nl, lib, vm, circuit::paper_voltage_levels(), tables->delay_floor);
    std::vector<std::uint8_t> deep_before(deep_nets.size());
    std::size_t vectors = 0;
    std::size_t pruned = 0;
    for (const arch::micro_op& op : program->trace.threads[0].interval(0)) {
        if (!tap.extract(op, bits)) {
            continue;
        }
        for (std::size_t d = 0; d < deep_before.size(); ++d) {
            deep_before[d] = sim.net_values()[deep_nets[d]];
        }
        sim.step(bits, delays);
        ++vectors;
        if (toggled_any(sim, deep_nets, deep_before)) {
            continue;
        }
        ++pruned;
        for (std::size_t c = 0; c < delays.size(); ++c) {
            ASSERT_LT(delays[c], circuit::exact_delay_floor * tables->nominal_period_ps[c])
                << "vector " << vectors - 1 << " corner " << c;
        }
    }
    ASSERT_GT(vectors, 1000u);
    EXPECT_GT(pruned, vectors / 2) << pruned << " of " << vectors;
}

TEST(characterization_batch, floored_error_models_refuse_queries_at_the_floor)
{
    // The characterizer carries its floor into the stage product and every
    // model built from it: queries from the speculation range answer, a
    // query at or below the floor throws.
    const auto lib = circuit::cell_library::standard_22nm();
    const circuit::voltage_model vm(0.04);
    const auto stage = core::characterizer(lib, vm, {}).characterize(
        shared_artifacts(), circuit::pipe_stage::decode);
    EXPECT_EQ(stage.delay_floor, circuit::exact_delay_floor);
    const core::empirical_error_model model = stage.make_error_model(0, 0);
    for (std::size_t v = 0; v < model.corner_count(); ++v) {
        EXPECT_NO_THROW((void)model.error_probability(v, 0.64));
        EXPECT_NO_THROW((void)model.error_probability(v, 1.0));
        EXPECT_THROW((void)model.error_probability(v, circuit::exact_delay_floor),
                     std::invalid_argument);
        EXPECT_THROW((void)model.error_probability(v, 0.1), std::invalid_argument);
        EXPECT_THROW((void)model.error_probability(v, -1.0), std::invalid_argument);
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
