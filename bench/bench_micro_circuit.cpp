// Microbenchmark: circuit-layer throughput -- dynamic timing steps per
// second (the characterization bottleneck) and STA runtime per stage.
//
// bm_step_batch/<stage>/<kernel> replays the real driving vectors of one
// registered workload (Radix, seed 42, the characterizer's serial walk)
// through step_batch with each delay-kernel instantiation this CPU runs,
// and reports ns_per_vector and live_per_vector (circuit.live_pairs per
// vector).

#include <benchmark/benchmark.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "arch/stage_taps.h"
#include "circuit/dynamic_timing.h"
#include "circuit/netlist_builder.h"
#include "circuit/sta.h"
#include "core/experiment.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace {

using namespace synts::circuit;

const stage_netlist& stage_for(int index)
{
    static const stage_netlist decode = build_decode_stage();
    static const stage_netlist simple = build_simple_alu();
    static const stage_netlist complex_alu = build_complex_alu();
    switch (index) {
    case 0:
        return decode;
    case 1:
        return simple;
    default:
        return complex_alu;
    }
}

void bm_dynamic_timing_step(benchmark::State& state)
{
    const stage_netlist& stage = stage_for(static_cast<int>(state.range(0)));
    const cell_library lib = cell_library::standard_22nm();
    const voltage_model vm(0.04);
    const auto corners = paper_voltage_levels();
    dynamic_timing_simulator sim(stage.nl, lib, vm, corners);

    synts::util::xoshiro256 rng(1);
    const std::size_t width = stage.nl.input_count();
    auto bits = std::make_unique<bool[]>(width);
    std::vector<double> delays(corners.size());

    for (auto _ : state) {
        for (std::size_t i = 0; i < width; ++i) {
            bits[i] = rng.bernoulli(0.5);
        }
        benchmark::DoNotOptimize(
            sim.step(std::span<const bool>(bits.get(), width), delays));
    }
    state.SetItemsProcessed(state.iterations());
    state.SetLabel(std::string(pipe_stage_name(static_cast<pipe_stage>(state.range(0)))) +
                   " " + std::to_string(stage.nl.gate_count()) + " gates x 7 corners");
}
BENCHMARK(bm_dynamic_timing_step)->DenseRange(0, 2, 1);

void bm_sta(benchmark::State& state)
{
    const stage_netlist& stage = stage_for(static_cast<int>(state.range(0)));
    const cell_library lib = cell_library::standard_22nm();
    const static_timing_analyzer sta(stage.nl);
    const auto delays = sta.nominal_gate_delays(lib);
    for (auto _ : state) {
        benchmark::DoNotOptimize(sta.analyze(delays));
    }
}
BENCHMARK(bm_sta)->DenseRange(0, 2, 1);

void bm_build_stage(benchmark::State& state)
{
    for (auto _ : state) {
        benchmark::DoNotOptimize(build_stage(static_cast<pipe_stage>(state.range(0))));
    }
}
BENCHMARK(bm_build_stage)->DenseRange(0, 2, 1);

/// Every step_batch call the characterizer makes for one stage of Radix at
/// seed 42 with one worker: per thread, one fresh simulator and its
/// batches in order.
struct recorded_stage {
    stage_netlist stage;
    std::shared_ptr<const timing_corner_tables> tables;
    /// [thread][call]: one word per stage input, and the call's lane count.
    std::vector<std::vector<std::vector<std::uint64_t>>> words;
    std::vector<std::vector<std::size_t>> lanes;
    std::uint64_t vectors = 0;
};

recorded_stage record_stage(pipe_stage which)
{
    const synts::core::experiment_config config;
    const auto program =
        synts::core::make_program_artifacts(synts::workload::benchmark_id::radix, config);
    recorded_stage rec;
    rec.stage = build_stage(which);
    const cell_library lib = cell_library::standard_22nm();
    const voltage_model vm(config.voltage_class_spread);
    rec.tables = make_corner_tables(rec.stage.nl, lib, vm, paper_voltage_levels());
    const synts::arch::stage_tap tap(which, rec.stage.layout);
    constexpr std::size_t lanes_max = dynamic_timing_simulator::max_batch_lanes;
    std::vector<std::uint64_t> lane_words(tap.width());
    std::array<std::uint32_t, lanes_max> lane_op_index{};
    for (const auto& trace : program->trace.threads) {
        auto& words = rec.words.emplace_back();
        auto& lanes = rec.lanes.emplace_back();
        for (std::size_t k = 0; k < program->trace.interval_count(); ++k) {
            const auto ops = trace.interval(k);
            for (std::size_t offset = 0; offset < ops.size();) {
                const auto batch = tap.extract_batch(
                    ops.subspan(offset), lane_words,
                    std::span<std::uint32_t>(lane_op_index.data(), lanes_max));
                if (batch.lanes > 0) {
                    words.push_back(lane_words);
                    lanes.push_back(batch.lanes);
                    rec.vectors += batch.lanes;
                }
                offset += batch.ops_consumed;
            }
        }
    }
    return rec;
}

const recorded_stage& recorded(pipe_stage which)
{
    static std::array<std::unique_ptr<recorded_stage>, 3> cache;
    auto& slot = cache[static_cast<std::size_t>(which)];
    if (!slot) {
        slot = std::make_unique<recorded_stage>(record_stage(which));
    }
    return *slot;
}

void bm_step_batch(benchmark::State& state, pipe_stage which,
                   const detail::delay_kernel* kernel)
{
    const recorded_stage& rec = recorded(which);
    std::vector<double> delays(rec.tables->corner_count() *
                               dynamic_timing_simulator::max_batch_lanes);
    const auto& live = synts::obs::metrics_registry::global().counter_at("circuit.live_pairs");
    const std::uint64_t live_before = live.value();
    const auto start = std::chrono::steady_clock::now();
    for (auto _ : state) {
        for (std::size_t t = 0; t < rec.words.size(); ++t) {
            dynamic_timing_simulator sim(rec.stage.nl, rec.tables);
            for (std::size_t call = 0; call < rec.words[t].size(); ++call) {
                const std::size_t lanes = rec.lanes[t][call];
                detail::step_batch_with(
                    *kernel, sim, rec.words[t][call], lanes,
                    std::span<double>(delays.data(), rec.tables->corner_count() * lanes));
            }
            benchmark::DoNotOptimize(delays.data());
        }
        benchmark::ClobberMemory();
    }
    const std::chrono::duration<double, std::nano> elapsed =
        std::chrono::steady_clock::now() - start;
    const double vectors =
        static_cast<double>(rec.vectors) * static_cast<double>(state.iterations());
    state.counters["ns_per_vector"] = elapsed.count() / vectors;
    state.counters["live_per_vector"] = static_cast<double>(live.value() - live_before) / vectors;
    state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(rec.vectors));
}

const bool step_batch_registered = [] {
    for (const pipe_stage which :
         {pipe_stage::decode, pipe_stage::simple_alu, pipe_stage::complex_alu}) {
        for (const detail::delay_kernel& kernel : detail::delay_kernels()) {
            if (!kernel.supported) {
                continue;
            }
            benchmark::RegisterBenchmark((std::string("bm_step_batch/") +
                                          std::string(pipe_stage_name(which)) + "/" +
                                          kernel.name)
                                             .c_str(),
                                         bm_step_batch, which, &kernel)
                ->Unit(benchmark::kMillisecond);
        }
    }
    return true;
}();

} // namespace

BENCHMARK_MAIN();
