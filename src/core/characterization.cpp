#include "core/characterization.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "circuit/dynamic_timing.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace synts::core {

empirical_error_model stage_characterization::make_error_model(std::size_t thread,
                                                               std::size_t interval) const
{
    const interval_characterization& data = threads.at(thread).at(interval);
    return empirical_error_model(data.delay_histograms, tnom_ps, data.drive_fraction());
}

characterizer::characterizer(const circuit::cell_library& lib,
                             const circuit::voltage_model& vm,
                             characterization_config config)
    : lib_(lib), vm_(vm), config_(std::move(config))
{
}

interval_characterization characterizer::characterize_interval(
    const circuit::stage_netlist& stage_nl, const arch::stage_tap& tap,
    const std::shared_ptr<const circuit::timing_corner_tables>& tables,
    const arch::thread_trace& trace, std::size_t interval,
    std::size_t warmup_op) const
{
    // One simulator per cell: the stage's datapath state is private to the
    // core the thread runs on, and a settled netlist's node values are a
    // pure function of the last applied vector. Replaying the last driving
    // vector of the preceding intervals -- `warmup_op`, precomputed by
    // characterize() -- with its delays discarded therefore reproduces
    // exactly the state a single serial walk of the whole thread would
    // carry into this interval: cells stay bit-identical to serial while
    // running embarrassingly parallel. The shared corner tables keep
    // per-cell construction cheap (no STA).
    const std::size_t corner_count = tables->vdd.size();
    const std::vector<double>& tnom_ps = tables->nominal_period_ps;
    circuit::dynamic_timing_simulator sim(stage_nl.nl, tables);
    const auto bits_storage = std::make_unique<bool[]>(tap.width());
    const std::span<bool> bits(bits_storage.get(), tap.width());
    std::vector<double> corner_delays(corner_count);

    if (warmup_op != no_warmup_op) {
        if (!tap.extract(trace.ops[warmup_op], bits)) {
            throw std::logic_error("characterizer: warm-up op does not drive the stage");
        }
        sim.step(std::span<const bool>(bits_storage.get(), tap.width()), corner_delays);
    }

    interval_characterization data;
    data.delay_histograms.reserve(corner_count);
    for (std::size_t c = 0; c < corner_count; ++c) {
        data.delay_histograms.emplace_back(
            0.0, tnom_ps[c] * config_.histogram_headroom, config_.histogram_bins);
    }

    const auto ops = trace.interval(interval);
    data.instruction_count = ops.size();
    for (std::size_t n = 0; n < ops.size(); ++n) {
        if (!tap.extract(ops[n], bits)) {
            continue;
        }
        sim.step(std::span<const bool>(bits_storage.get(), tap.width()), corner_delays);

        ++data.vector_count;
        for (std::size_t c = 0; c < corner_count; ++c) {
            data.delay_histograms[c].add(corner_delays[c]);
        }
        if (config_.keep_sampling_trace) {
            data.sampling_delays_ps.push_back(static_cast<float>(corner_delays[0]));
            data.sampling_instr_index.push_back(static_cast<std::uint32_t>(n));
        }
    }
    return data;
}

stage_characterization characterizer::characterize(const program_artifacts& program,
                                                   circuit::pipe_stage stage,
                                                   const util::parallel_for_fn& parallel,
                                                   std::size_t worker_hint,
                                                   const util::cancel_token& cancel) const
{
    program.validate();
    cancel.throw_if_cancelled();

    obs::metrics_registry& registry = obs::metrics_registry::global();
    obs::counter& cells_counter = registry.counter_at("characterize.cells");
    obs::counter& vectors_counter = registry.counter_at("characterize.vectors");
    obs::latency_histogram& cell_ns = registry.histogram_at("characterize.cell_ns");
    obs::health_monitor& slow_cells = obs::health_monitor::cell_monitor();
    const obs::trace_span span(obs::trace_recorder::global(), [stage] {
        return std::string("characterize.stage:") + circuit::pipe_stage_name(stage);
    });

    const circuit::stage_netlist stage_nl = circuit::build_stage(stage);
    const auto corners = circuit::paper_voltage_levels();

    stage_characterization result;
    result.stage = stage;
    result.corner_vdd.assign(corners.begin(), corners.end());

    // One STA pass for the whole stage: the corner tables (per-gate delays
    // and the nominal periods, which depend only on (netlist, corner), not
    // on stepping history) are computed once up front and shared by every
    // cell's simulator.
    const std::shared_ptr<const circuit::timing_corner_tables> tables =
        circuit::make_corner_tables(stage_nl.nl, lib_, vm_, corners);
    result.tnom_ps = tables->nominal_period_ps;

    const arch::stage_tap tap(stage, stage_nl.layout);
    const std::size_t thread_count = program.trace.thread_count();
    const std::size_t interval_count = program.trace.interval_count();

    result.threads.resize(thread_count);
    for (auto& intervals : result.threads) {
        intervals.resize(interval_count);
    }

    // Pre-pass: each interval's replay vector is the last op *before* it
    // that drives the stage. One forward scan per thread finds them all;
    // a per-cell backward scan would re-walk the whole preceding history
    // per interval -- quadratic exactly when the stage fires rarely and
    // there is little simulation work to amortize it. drives_stage alone
    // decides -- no bit extraction on this scan.
    std::vector<std::vector<std::size_t>> warmup_ops(
        thread_count, std::vector<std::size_t>(interval_count, no_warmup_op));
    util::for_each_index(parallel, thread_count, [&](std::size_t t) {
        cancel.throw_if_cancelled();
        const arch::thread_trace& trace = program.trace.threads[t];
        std::size_t last_driving = no_warmup_op;
        for (std::size_t k = 0; k < interval_count; ++k) {
            warmup_ops[t][k] = last_driving;
            const std::size_t begin = k == 0 ? 0 : trace.barrier_points[k - 1];
            for (std::size_t n = begin; n < trace.barrier_points[k]; ++n) {
                if (tap.drives_stage(trace.ops[n])) {
                    last_driving = n;
                }
            }
        }
    });

    if (!config_.batched) {
        // Scalar reference walk: every (thread, interval) cell is
        // independent (see characterize_interval) and lands in its
        // pre-assigned slot, so the merge order is deterministic
        // regardless of schedule.
        util::for_each_index(parallel, thread_count * interval_count,
                             [&](std::size_t cell) {
                                 cancel.throw_if_cancelled();
                                 const std::size_t t = cell / interval_count;
                                 const std::size_t k = cell % interval_count;
                                 const obs::monitored_timer timer(
                                     cell_ns, slow_cells, [stage, t, k] {
                                         return std::string("stage=") +
                                                circuit::pipe_stage_name(stage) +
                                                " thread=" + std::to_string(t) +
                                                " interval=" + std::to_string(k);
                                     });
                                 result.threads[t][k] = characterize_interval(
                                     stage_nl, tap, tables, program.trace.threads[t], k,
                                     warmup_ops[t][k]);
                                 cells_counter.add(1);
                                 vectors_counter.add(result.threads[t][k].vector_count);
                             });
        return result;
    }

    // Batched mode: the task grain is a contiguous run of intervals of one
    // thread. Within a chunk the simulator CHAINS -- the carried state
    // entering interval k is the settled last driving vector before k,
    // exactly what the scalar path's warm-up replay reconstructs -- so
    // chunking eliminates all warm-up work except one step at chunk entry.
    // Chunk count scales with the worker pool: enough chunks to load every
    // worker (with slack for imbalance), never more. At one worker this is
    // ONE chunk per thread, i.e. the plain serial walk with zero replay.
    std::size_t workers = worker_hint;
    if (workers == 0) {
        workers = parallel ? std::max<std::size_t>(std::thread::hardware_concurrency(), 1)
                           : 1;
    }
    std::size_t chunks_per_thread = 1;
    if (workers > 1 && thread_count > 0 && interval_count > 0) {
        // Aim for ~4 chunks per worker across all threads so the tail of an
        // uneven schedule still has work to steal.
        const std::size_t target_chunks = 4 * workers;
        chunks_per_thread = (target_chunks + thread_count - 1) / thread_count;
        chunks_per_thread = std::clamp<std::size_t>(chunks_per_thread, 1, interval_count);
    }

    struct chunk {
        std::size_t thread = 0;
        std::size_t begin_interval = 0;
        std::size_t end_interval = 0;
    };
    std::vector<chunk> chunks;
    chunks.reserve(thread_count * chunks_per_thread);
    for (std::size_t t = 0; t < thread_count; ++t) {
        for (std::size_t i = 0; i < chunks_per_thread; ++i) {
            const std::size_t begin = interval_count * i / chunks_per_thread;
            const std::size_t end = interval_count * (i + 1) / chunks_per_thread;
            if (begin < end) {
                chunks.push_back(chunk{t, begin, end});
            }
        }
    }

    const std::size_t corner_count = tables->vdd.size();
    const std::vector<double>& tnom_ps = tables->nominal_period_ps;
    constexpr std::size_t lanes_max = circuit::dynamic_timing_simulator::max_batch_lanes;
    // The partition's shape, observable from outside: at one worker these
    // move by thread_count and 0 per stage.
    obs::counter& chunks_counter = registry.counter_at("characterize.chunks");
    obs::counter& warmups_counter = registry.counter_at("characterize.warmup_steps");

    util::for_each_index(parallel, chunks.size(), [&](std::size_t ci) {
        cancel.throw_if_cancelled(); // chunk entry
        chunks_counter.add(1);
        const chunk& ch = chunks[ci];
        const arch::thread_trace& trace = program.trace.threads[ch.thread];

        circuit::dynamic_timing_simulator sim(stage_nl.nl, tables);
        std::vector<std::uint64_t> lane_words(tap.width());
        std::array<std::uint32_t, lanes_max> lane_op_index{};
        std::vector<double> lane_delays(corner_count * lanes_max);

        // Chunk entry: replay the last driving vector of the preceding
        // history (delays discarded), reproducing the carried state a
        // serial walk would bring here.
        const std::size_t warmup_op = warmup_ops[ch.thread][ch.begin_interval];
        if (warmup_op != no_warmup_op) {
            const auto bits_storage = std::make_unique<bool[]>(tap.width());
            const std::span<bool> bits(bits_storage.get(), tap.width());
            if (!tap.extract(trace.ops[warmup_op], bits)) {
                throw std::logic_error(
                    "characterizer: warm-up op does not drive the stage");
            }
            std::vector<double> discard(corner_count);
            sim.step(std::span<const bool>(bits_storage.get(), tap.width()), discard);
            warmups_counter.add(1);
        }

        for (std::size_t k = ch.begin_interval; k < ch.end_interval; ++k) {
            // Per-interval poll: bounds cancel latency by one interval of
            // simulation even when a chunk spans the whole trace (the
            // 1-worker degenerate partition).
            cancel.throw_if_cancelled();
            const obs::monitored_timer timer(
                cell_ns, slow_cells, [stage, &ch, k] {
                    return std::string("stage=") + circuit::pipe_stage_name(stage) +
                           " thread=" + std::to_string(ch.thread) +
                           " interval=" + std::to_string(k);
                });
            const auto ops = trace.interval(k);

            interval_characterization data;
            data.delay_histograms.reserve(corner_count);
            for (std::size_t c = 0; c < corner_count; ++c) {
                data.delay_histograms.emplace_back(
                    0.0, tnom_ps[c] * config_.histogram_headroom, config_.histogram_bins);
            }
            data.instruction_count = ops.size();

            std::size_t offset = 0;
            while (offset < ops.size()) {
                const arch::stage_tap::batch_result batch = tap.extract_batch(
                    ops.subspan(offset), lane_words,
                    std::span<std::uint32_t>(lane_op_index.data(), lanes_max));
                if (batch.lanes > 0) {
                    const std::size_t lanes = batch.lanes;
                    const std::span<double> delays(lane_delays.data(),
                                                   corner_count * lanes);
                    sim.step_batch(lane_words, lanes, delays);

                    data.vector_count += lanes;
                    for (std::size_t c = 0; c < corner_count; ++c) {
                        // Corner-major delay layout: one contiguous bulk
                        // insert per corner.
                        data.delay_histograms[c].add(delays.subspan(c * lanes, lanes));
                    }
                    if (config_.keep_sampling_trace) {
                        for (std::size_t j = 0; j < lanes; ++j) {
                            data.sampling_delays_ps.push_back(
                                static_cast<float>(lane_delays[j]));
                            data.sampling_instr_index.push_back(
                                static_cast<std::uint32_t>(offset + lane_op_index[j]));
                        }
                    }
                }
                offset += batch.ops_consumed;
            }

            cells_counter.add(1);
            vectors_counter.add(data.vector_count);
            result.threads[ch.thread][k] = std::move(data);
        }
    });
    return result;
}

stage_characterization characterizer::characterize(const arch::program_trace& program,
                                                   circuit::pipe_stage stage) const
{
    const program_characterizer profiler(config_.core);
    return characterize(profiler.characterize_trace(program), stage);
}

} // namespace synts::core
