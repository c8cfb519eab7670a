// reference_characterizer.h -- the scalar per-cell characterization walk:
// every (thread, interval) cell gets its own simulator, replays the last
// driving vector of the preceding intervals to reconstruct the serial
// state, then steps its vectors one at a time through the scalar step().
// This is the walk the characterizer ran before it became chunked and
// 64-lane batched; differential tests hold characterizer::characterize to
// it bit for bit. It applies the delay floor to its own scalar walk: per
// corner c, a delay below delay_floor * t_nom,c of the tables is recorded
// as +0.0, every other one as step() computed it.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "arch/stage_taps.h"
#include "circuit/dynamic_timing.h"
#include "circuit/netlist_builder.h"
#include "core/characterization.h"

namespace synts::test {

/// reference_warmup_op's answer when no driving op precedes the interval
/// (the cell starts from a fresh simulator).
inline constexpr std::size_t no_warmup_op = static_cast<std::size_t>(-1);

/// Index of the last op before interval `k` of `trace` that drives the
/// stage, found by a backward scan.
inline std::size_t reference_warmup_op(const arch::thread_trace& trace,
                                       const arch::stage_tap& tap, std::size_t k)
{
    const std::size_t begin = k == 0 ? 0 : trace.barrier_points[k - 1];
    for (std::size_t n = begin; n > 0; --n) {
        if (tap.drives_stage(trace.ops[n - 1])) {
            return n - 1;
        }
    }
    return no_warmup_op;
}

/// One cell: a fresh simulator, the warm-up replay (delays discarded), then
/// the interval's driving vectors through step(), each corner's delay
/// recorded at +0.0 when it lies below the floor.
inline core::interval_characterization reference_characterize_interval(
    const circuit::stage_netlist& stage_nl, const arch::stage_tap& tap,
    const std::shared_ptr<const circuit::timing_corner_tables>& tables,
    const core::characterization_config& config, const arch::thread_trace& trace,
    std::size_t k)
{
    const std::size_t corner_count = tables->vdd.size();
    circuit::dynamic_timing_simulator sim(stage_nl.nl, tables);
    const auto bits_storage = std::make_unique<bool[]>(tap.width());
    const std::span<bool> bits(bits_storage.get(), tap.width());
    const std::span<const bool> inputs(bits_storage.get(), tap.width());
    std::vector<double> corner_delays(corner_count);

    const std::size_t warmup_op = reference_warmup_op(trace, tap, k);
    if (warmup_op != no_warmup_op) {
        if (!tap.extract(trace.ops[warmup_op], bits)) {
            throw std::logic_error("reference_characterizer: warm-up op does not drive");
        }
        sim.step(inputs, corner_delays);
    }

    core::interval_characterization data;
    data.delay_histograms.reserve(corner_count);
    for (std::size_t c = 0; c < corner_count; ++c) {
        data.delay_histograms.emplace_back(
            0.0, tables->nominal_period_ps[c] * config.histogram_headroom,
            config.histogram_bins);
    }

    const auto ops = trace.interval(k);
    data.instruction_count = ops.size();
    for (std::size_t n = 0; n < ops.size(); ++n) {
        if (!tap.extract(ops[n], bits)) {
            continue;
        }
        sim.step(inputs, corner_delays);
        for (std::size_t c = 0; c < corner_count; ++c) {
            if (corner_delays[c] < tables->delay_floor * tables->nominal_period_ps[c]) {
                corner_delays[c] = 0.0;
            }
        }
        ++data.vector_count;
        for (std::size_t c = 0; c < corner_count; ++c) {
            data.delay_histograms[c].add(corner_delays[c]);
        }
        if (config.keep_sampling_trace) {
            data.sampling_delays_ps.push_back(static_cast<float>(corner_delays[0]));
            data.sampling_instr_index.push_back(static_cast<std::uint32_t>(n));
        }
    }
    return data;
}

/// The whole stage, cell by cell on the calling thread.
inline core::stage_characterization
reference_characterize(const circuit::cell_library& lib, const circuit::voltage_model& vm,
                       const core::characterization_config& config,
                       const core::program_artifacts& program, circuit::pipe_stage stage)
{
    const circuit::stage_netlist stage_nl = circuit::build_stage(stage);
    const auto corners = circuit::paper_voltage_levels();
    const std::shared_ptr<const circuit::timing_corner_tables> tables =
        circuit::make_corner_tables(stage_nl.nl, lib, vm, corners);
    const arch::stage_tap tap(stage, stage_nl.layout);

    core::stage_characterization result;
    result.stage = stage;
    result.corner_vdd.assign(corners.begin(), corners.end());
    result.tnom_ps = tables->nominal_period_ps;
    result.delay_floor = tables->delay_floor;
    for (const arch::thread_trace& trace : program.trace.threads) {
        std::vector<core::interval_characterization>& cells = result.threads.emplace_back();
        for (std::size_t k = 0; k < program.trace.interval_count(); ++k) {
            cells.push_back(
                reference_characterize_interval(stage_nl, tap, tables, config, trace, k));
        }
    }
    return result;
}

} // namespace synts::test
