// dynamic_timing.h -- per-vector sensitized-path delay simulation.
//
// This is the reproduction's stand-in for gate-level dynamic timing analysis
// of the synthesized pipe stages: for every consecutive pair of input
// vectors, an event-driven pass computes when each toggling net settles, and
// the vector's *sensitized delay* is the settle time of the latest-toggling
// primary output. A timing error occurs at clock period t_clk when the
// sensitized delay exceeds t_clk -- exactly the err(r) = P(delay > r * t_nom)
// relation the paper characterizes (Fig. 3.5).
//
// The simulator evaluates all requested voltage corners in one topological
// pass so cross-voltage delay traces stay sample-aligned. Two stepping
// modes share one state:
//
//   * step()       -- the scalar reference walk: one input vector, one
//                     functional pass, delay propagation over toggled gates;
//   * step_batch() -- the vectorized hot path: up to 64 consecutive input
//                     vectors packed one bit-lane per vector into a
//                     std::uint64_t word per net. One scan over the gates
//                     runs the functional pass word-parallel (one bitwise
//                     evaluate_cell_word per gate covers all lanes),
//                     derives each output's toggle word, and bit-scans it
//                     (std::countr_zero) to bucket the gate into per-lane
//                     toggled-gate lists -- a flat buffer the simulator
//                     reuses, in topological order. Delay propagation then
//                     walks each lane's own list, never testing an
//                     untoggled gate; an unchanged input pin reads an
//                     always-zero settle-time row instead of branching
//                     (max(x, +0.0) == x on these non-negative times),
//                     and each toggled primary output is folded into the
//                     lane's delay as the walk reaches it (max is exact,
//                     so the visit order cannot move a bit).
//
// Timing data is laid out corner-minor ("SoA") in zero-padded rows: gate
// delays as [gate][corner] and per-net settle times as [net][corner], each
// row row_stride() doubles -- the corner count rounded up to a multiple of
// 8, so the paper's 7 corners are one 64-byte, cache-line-aligned block per
// gate or net. Padding columns are 0.0 and stay 0.0 (max(0, 0) + 0 == 0),
// so they never reach an output.
//
// step_batch's max-plus kernel is one template over a GCC vector type of
// 2, 4 or 8 doubles: each 8-corner block is 8/W registers, and the lane's
// gate list is walked once per block, so every corner count runs the same
// code. It is compiled three times -- SSE2 (the x86-64 baseline), AVX2 and
// AVX-512F -- and the widest one the CPU supports is chosen once per
// process (non-x86 builds compile only the 16-byte one). Plain 8-wide
// corner loops over padded rows are not enough: GCC does not vectorize
// them (they measured no faster than the unpadded 7-wide loops), so the
// kernel spells the vector width out. Max and add are exact, nothing
// multiplies, and per-corner order (pins in order, then one add) is
// step()'s, so every instantiation is bit-identical to the scalar walk
// (pinned by tests/test_circuit_dynamic_timing_batch for each supported
// instantiation at 1, 3, 7, 8, 9 and 17 corners).

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include "circuit/cell_library.h"
#include "circuit/netlist.h"
#include "circuit/voltage_model.h"

namespace synts::circuit {

/// Corners per vector block: the padded row stride is a multiple of this.
inline constexpr std::size_t corner_block = 8;

/// Allocator for the padded corner rows: every row starts on a 64-byte
/// cache line, so one 8-corner block never straddles two.
template <typename T>
struct cache_aligned_allocator {
    using value_type = T;
    static constexpr std::align_val_t alignment{64};

    cache_aligned_allocator() noexcept = default;
    template <typename U>
    cache_aligned_allocator(const cache_aligned_allocator<U>&) noexcept
    {
    }
    [[nodiscard]] T* allocate(std::size_t n)
    {
        return static_cast<T*>(::operator new(n * sizeof(T), alignment));
    }
    void deallocate(T* p, std::size_t) noexcept { ::operator delete(p, alignment); }
    friend bool operator==(const cache_aligned_allocator&,
                           const cache_aligned_allocator&) noexcept
    {
        return true;
    }
};

/// Zero-padded, cache-line-aligned [row][corner] storage.
using corner_rows = std::vector<double, cache_aligned_allocator<double>>;

/// Precomputed per-corner timing of one netlist: supply, STA critical-path
/// delay (the nominal period), and per-gate delays. Building the tables
/// runs the static timing analysis once per corner -- the expensive part of
/// simulator construction -- so callers that spin up many simulators over
/// the same netlist (the per-(thread, interval) characterization cells)
/// build one set and share it.
struct timing_corner_tables {
    std::vector<double> vdd;               ///< [corner]
    std::vector<double> nominal_period_ps; ///< [corner]
    /// Gate delays in corner-minor layout: [gate * row_stride() + corner],
    /// columns corner_count() .. row_stride() zero. The transpose (vs the
    /// historical [corner][gate]) keeps one gate's corners contiguous --
    /// the inner loop of both stepping modes.
    corner_rows gate_delay_ps;

    /// Number of voltage corners.
    [[nodiscard]] std::size_t corner_count() const noexcept { return vdd.size(); }

    /// Doubles per padded row: corner_count() rounded up to corner_block.
    [[nodiscard]] std::size_t row_stride() const noexcept
    {
        return (vdd.size() + corner_block - 1) / corner_block * corner_block;
    }

    /// Per-corner delays of gate `g` (contiguous, size corner_count()).
    [[nodiscard]] std::span<const double> gate_delays(gate_id g) const noexcept
    {
        return std::span<const double>(gate_delay_ps)
            .subspan(static_cast<std::size_t>(g) * row_stride(), vdd.size());
    }
};

/// Runs the STA and builds the shared tables for every supply level in
/// `vdd_levels` (throws std::invalid_argument when empty).
[[nodiscard]] std::shared_ptr<const timing_corner_tables>
make_corner_tables(const netlist& nl, const cell_library& lib, const voltage_model& vm,
                   std::span<const double> vdd_levels);

class dynamic_timing_simulator;

namespace detail {

/// What one step_batch delay pass reads and writes (dynamic_timing.cpp).
struct delay_pass;

/// One compiled instantiation of step_batch's delay kernel.
struct delay_kernel {
    const char* name;             ///< "sse2", "avx2", "avx512f" or "generic"
    std::size_t width;            ///< doubles per vector register: 2, 4 or 8
    bool supported;               ///< this CPU can run it
    void (*run)(const delay_pass&);
};

/// Every instantiation this build compiled, narrowest first.
[[nodiscard]] std::span<const delay_kernel> delay_kernels() noexcept;

/// The widest supported instantiation: what step_batch runs. Chosen on the
/// first call and recorded as the gauge circuit.delay_kernel_width.
[[nodiscard]] const delay_kernel& active_delay_kernel() noexcept;

/// step_batch through `kernel` instead of the process's choice, so tests
/// can pin every supported instantiation against step().
void step_batch_with(const delay_kernel& kernel, dynamic_timing_simulator& sim,
                     std::span<const std::uint64_t> input_words, std::size_t lane_count,
                     std::span<double> out_delay_ps);

} // namespace detail

/// Multi-corner dynamic timing simulator bound to one netlist.
class dynamic_timing_simulator {
public:
    /// Maximum number of input vectors one step_batch call evaluates (the
    /// lane width of the bit-parallel functional pass).
    static constexpr std::size_t max_batch_lanes = 64;

    /// Binds to `nl` (which must outlive the simulator) and prepares delay
    /// tables for every supply level in `vdd_levels`. Convenience overload:
    /// pays the per-corner STA; use the tables overload to amortize it.
    dynamic_timing_simulator(const netlist& nl, const cell_library& lib,
                             const voltage_model& vm, std::span<const double> vdd_levels);

    /// Binds to `nl` sharing precomputed tables (which must describe `nl`):
    /// no STA runs, so construction is cheap enough for one simulator per
    /// characterization chunk.
    dynamic_timing_simulator(const netlist& nl,
                             std::shared_ptr<const timing_corner_tables> tables);

    /// Number of voltage corners.
    [[nodiscard]] std::size_t corner_count() const noexcept
    {
        return tables_->vdd.size();
    }

    /// Supply of corner `c`.
    [[nodiscard]] double corner_vdd(std::size_t c) const noexcept
    {
        return tables_->vdd[c];
    }

    /// STA critical-path delay (the stage's nominal period t_nom) at
    /// corner `c`.
    [[nodiscard]] double nominal_period_ps(std::size_t c) const noexcept
    {
        return tables_->nominal_period_ps[c];
    }

    /// Clears all state to the all-zero vector. The first step after a
    /// reset measures the transition from that baseline. Construction
    /// leaves the simulator in exactly this state; reset() exists for
    /// reuse and owns the baseline contract (values and toggle flags zero;
    /// the per-net settle-time scratch is intentionally NOT re-cleared --
    /// stale entries are unreachable because every read is guarded by a
    /// toggle flag set in the same step).
    void reset();

    /// Applies the next input vector (size must equal input_count of the
    /// netlist) and writes the sensitized delay at every corner into
    /// `out_delay_ps` (size corner_count). Returns the worst corner delay.
    double step(std::span<const bool> inputs, std::span<double> out_delay_ps);

    /// Applies `lane_count` (1 .. max_batch_lanes) consecutive input
    /// vectors in one pass. `input_words` has one word per primary input
    /// (size input_count of the netlist); bit j of input_words[i] is input
    /// i of the j-th vector. Delays are written corner-major:
    /// out_delay_ps[c * lane_count + j] is the sensitized delay of vector
    /// j at corner c (size corner_count * lane_count), so each corner's
    /// lane run is contiguous for bulk histogram insertion. The simulator
    /// ends in exactly the state `lane_count` scalar step() calls would
    /// leave, and every delay is bit-identical to the scalar walk.
    void step_batch(std::span<const std::uint64_t> input_words, std::size_t lane_count,
                    std::span<double> out_delay_ps);

    /// Functional value of primary output `i` after the latest step.
    [[nodiscard]] bool output_value(std::size_t i) const noexcept;

    /// Functional values of all nets (for debugging/tests).
    [[nodiscard]] std::span<const std::uint8_t> net_values() const noexcept
    {
        return values_;
    }

private:
    friend void detail::step_batch_with(const detail::delay_kernel&, dynamic_timing_simulator&,
                                        std::span<const std::uint64_t>, std::size_t,
                                        std::span<double>);

    void step_batch(const detail::delay_kernel& kernel,
                    std::span<const std::uint64_t> input_words, std::size_t lane_count,
                    std::span<double> out_delay_ps);

    const netlist& nl_;
    std::shared_ptr<const timing_corner_tables> tables_;
    std::vector<std::uint8_t> values_;  ///< per net, current value
    std::vector<std::uint8_t> changed_; ///< per net, toggled in current step
    /// [net * row_stride + corner], plus an always-zero row at net_count;
    /// padding columns stay 0.0
    corner_rows toggle_ps_;
    std::vector<double> latest_ps_;     ///< per corner scratch (size corners)
    /// Batch-mode scratch, sized lazily on the first step_batch call so
    /// scalar-only simulators never pay for it.
    std::vector<std::uint64_t> value_words_;  ///< per net, lane values
    std::vector<std::uint64_t> toggle_words_; ///< per net, lane toggle masks
    /// Per-lane toggled-gate lists: lane j's gates (topological order)
    /// from lane_gates_[j * gate_count]; sized once, max_batch_lanes wide.
    std::vector<std::uint32_t> lane_gates_;
    std::vector<std::uint8_t> drives_output_; ///< per gate, drives a primary output
};

} // namespace synts::circuit
