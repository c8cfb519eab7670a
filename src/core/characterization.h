// characterization.h -- the cross-layer methodology of Fig. 5.8.
//
// Pipeline: the workload's program trace runs on the architectural
// simulator (for N_i and CPI_base_i per barrier interval) while each
// micro-op's stage input vector drives the gate-level netlist through the
// multi-corner dynamic timing simulator. The result, per (thread, interval),
// is a sensitized-delay distribution at every voltage corner -- the raw
// material for the empirical error models err_i(r) -- plus the
// vector-aligned delay trace at the sampling voltage that the online
// estimator replays.

#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "arch/multicore.h"
#include "arch/stage_taps.h"
#include "arch/trace.h"
#include "circuit/cell_library.h"
#include "circuit/dynamic_timing.h"
#include "circuit/netlist_builder.h"
#include "circuit/voltage_model.h"
#include "core/error_model.h"
#include "core/program_artifacts.h"
#include "util/histogram.h"
#include "util/parallel.h"

namespace synts::core {

/// Circuit-level characterization of one thread in one barrier interval.
struct interval_characterization {
    /// Sensitized-delay histogram per voltage corner.
    std::vector<util::histogram> delay_histograms;
    /// Raw per-vector delays at the sampling corner (corner 0 = nominal V).
    /// With keep_sampling_trace, this and sampling_instr_index are sized
    /// exactly: capacity() == size() == vector_count. The characterizer's
    /// drives_stage pre-pass counts each interval's driving ops and
    /// reserves both vectors to that count, so a cached experiment holds no
    /// growth slack (8 bytes per driving vector, nothing more).
    std::vector<float> sampling_delays_ps;
    /// Instruction index (within the interval) of each vector above.
    std::vector<std::uint32_t> sampling_instr_index;
    /// Total instructions in the interval (driving or not).
    std::uint64_t instruction_count = 0;
    /// Vectors that actually drove the stage.
    std::uint64_t vector_count = 0;

    /// Fraction of instructions exercising the stage.
    [[nodiscard]] double drive_fraction() const noexcept
    {
        return instruction_count == 0
                   ? 0.0
                   : static_cast<double>(vector_count) /
                         static_cast<double>(instruction_count);
    }
};

/// Characterization of one pipe stage over a whole program.
struct stage_characterization {
    circuit::pipe_stage stage = circuit::pipe_stage::decode;
    /// Stage nominal period (STA critical path) per voltage corner, ps.
    std::vector<double> tnom_ps;
    /// Voltage of each corner.
    std::vector<double> corner_vdd;
    /// The delay walk's floor (circuit::exact_delay_floor for the
    /// characterizer): a vector recorded at 0.0 may truly settle anywhere
    /// below delay_floor * tnom_ps[c], so the error models refuse queries
    /// there.
    double delay_floor = 0.0;
    /// [thread][interval].
    std::vector<std::vector<interval_characterization>> threads;
    // NOTE: the per-thread ARCHITECTURAL profiles are not part of the
    // stage product. They are stage-independent and come from the
    // program_artifacts the characterization was built from; consumers that
    // need N_i / CPI_base_i read benchmark_experiment::arch_profiles().

    /// Builds the empirical error model of (thread, interval); it carries
    /// delay_floor.
    [[nodiscard]] empirical_error_model make_error_model(std::size_t thread,
                                                         std::size_t interval) const;
};

/// Tunables of the characterization pass.
struct characterization_config {
    std::size_t histogram_bins = 512;
    /// Histogram upper bound as a multiple of the corner's nominal period.
    double histogram_headroom = 1.05;
    /// Keep the raw sampling-corner delay trace (needed by SynTS-online).
    bool keep_sampling_trace = true;
    arch::core_config core{};
};

/// Cross-layer characterizer: owns the stage netlists and timing machinery.
class characterizer {
public:
    /// Corners follow circuit::paper_voltage_levels() (corner 0 = 1.0 V).
    characterizer(const circuit::cell_library& lib, const circuit::voltage_model& vm,
                  characterization_config config = {});

    /// Characterizes pre-built program artifacts against one pipe stage --
    /// the staged-pipeline entry point; the architectural profiles are taken
    /// from `program`, never recomputed. `parallel` fans independent work
    /// out. The grain is a contiguous run of intervals per thread (a
    /// *chunk*), stepped 64 vectors at a time through step_batch: the
    /// simulator chains serially within a chunk -- a settled netlist's
    /// state is a pure function of the last applied vector, so entering
    /// interval k with the chunk's carried state equals replaying the last
    /// driving vector before k -- and only chunk entry pays a warm-up step.
    /// `worker_hint` sizes the chunks (0 = derive from
    /// hardware_concurrency when `parallel` is set, serial otherwise); at
    /// one worker the partition degenerates to one chunk per thread, i.e.
    /// the exact serial walk (the `characterize.chunks` and
    /// `characterize.warmup_steps` registry counters record the partition
    /// actually run). Every chunk lands in pre-assigned slots, so output
    /// is bit-identical to the serial pass for any executor (pinned by
    /// tests/test_core_characterization_pipeline.cpp, and against the
    /// scalar per-cell walk of tests/reference_characterizer.h by
    /// tests/test_core_characterization_batch.cpp).
    [[nodiscard]] stage_characterization
    characterize(const program_artifacts& program, circuit::pipe_stage stage,
                 const util::parallel_for_fn& parallel = {},
                 std::size_t worker_hint = 0) const;

private:
    /// Sentinel for "no driving op precedes the interval" (fresh sim state).
    static constexpr std::size_t no_warmup_op = static_cast<std::size_t>(-1);

    const circuit::cell_library& lib_;
    const circuit::voltage_model& vm_;
    characterization_config config_;
};

namespace detail {

/// Throws std::logic_error unless the batch loop drove exactly the
/// `counted` vectors the drives_stage pre-pass found in one interval: the
/// sampling vectors were reserved to that count, so any other number means
/// the two scans disagree on which ops drive the stage.
void check_driven_vectors(std::uint64_t counted, std::uint64_t driven);

} // namespace detail

} // namespace synts::core
