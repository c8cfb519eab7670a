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
//                     std::uint64_t word per net. Every gate gets one
//                     fixed pin record {in0, in1, in2, out}; pins past its
//                     input count point at the padding slot net_count,
//                     whose value and toggle words are always 0 and whose
//                     settle-time row is the always-zero row. So none of
//                     the three passes below branches on a gate's pin
//                     count. A forward scan runs the functional pass
//                     word-parallel over the cone's functional fan-in
//                     only -- the gates whose values the cone scan and
//                     the walk read, directly or through other gates --
//                     (one inline evaluate_cell_word per gate covers all
//                     lanes; a padded pin feeds the 0 word, which no cell
//                     reads) and derives each output's toggle word. A
//                     backward scan over the static timing cone only (see
//                     the delay floor below), in reverse topological
//                     order, then finds each cone gate's live lanes: those
//                     where its output toggles and some live reader (or a
//                     deep primary output) needs its settle time --
//                       live = toggles[out] & need[out] & lane_mask,
//                       need[in0] |= live, need[in1] |= live,
//                       need[in2] |= live (a padded or short pin ORs into
//                       a write-only sink; a gate live in no lane is
//                       skipped),
//                     with need seeded per batch to all lanes at the deep
//                     outputs. The same scan pushes each live gate onto
//                     its lanes' lists back to front, so lane j's list
//                     ends at (j + 1) * cone size and runs in topological
//                     order. Delay propagation walks the lists of the
//                     lanes some gate is live in (every other lane records
//                     +0.0), never visiting a dead, untoggled or
//                     out-of-cone gate. Each of the three pins reads its
//                     settle-time row if it toggled in that lane, else the
//                     zero row; the gate's time is max(a, b, c) + delay,
//                     and it is folded into the lane's delay as
//                     worst = max(worst, latest) for every live gate.
//
// The state between steps. step_batch leaves it in the words: lane 0 of
// the next batch compares with lane `last` of each fan-in net's and
// primary input's previous word, read before the word is overwritten, so
// no per-net scalar state is unpacked after a batch. The scalar state
// (net_values(), output_value(), and the state the next step() compares
// with) is rebuilt on demand: the netlist is combinational, so one scalar
// pass over the gates on the last lane's inputs recomputes every net. A
// step() hands its state back to the next batch as lane 0 of the words,
// and reset() zeroes both.
//
// Both the padding and the fold are exact, not approximately equal: max
// is exact and order-free on these finite, non-negative times, so the
// order the pins are read in cannot change a bit, and max(x, +0.0) == x,
// so a padded or untoggled pin that reads the zero row changes nothing.
// A lane reads an input's settle time only from a live gate through a
// toggled pin of the cone record, which makes the input's driver live in
// that lane, so the row was written earlier in the same walk. step() is
// neither padded nor pruned, so it stays an independent oracle. The
// registry counters circuit.toggled_pairs and circuit.live_pairs count the
// toggled (fan-in gate) and live (cone gate) pairs, and
// circuit.pruned_lanes the lanes whose walk list is empty, once per
// step_batch call.
//
// The delay floor and the static timing cone. Consumers read a vector's
// delay only against r * t_nom for r in the speculation range ([0.64, 1]
// in the paper grid), never below it. So step_batch computes a delay
// exactly only where it reaches exact_delay_floor * t_nom,c (0.63, just
// below the grid), and walks only the gates on a static path long enough
// to get there.
// make_corner_tables, in the loop that runs one STA per corner, marks
//   * the deep outputs: primary outputs whose arrival reaches
//     floor * t_nom,c at some corner c;
//   * the long pins: gate input pins for which arrival(driver) + d_gate +
//     the longest static path from the gate to an output reaches
//     floor * t_nom,c at some corner,
// both compared against floor * t_nom,c * (1 - 1e-9). The margin only
// enlarges the cone, so it can cost speed but never exactness; it covers
// the rounding gap between the left-folded dynamic path sum and the
// static through-path sum. The cone is the set of gates reachable
// backward from the deep outputs through long pins, in topological order,
// with its delay rows compacted into cone order and a pin record in
// which short pins point at the padding slot. step_batch seeds need only
// at the deep outputs, scans and walks only the cone, and clamps each
// corner's delay: below floor * t_nom,c it records +0.0.
//
// The contract, per corner c: every delay equals step()'s when that is
// >= floor * t_nom,c, and is +0.0 otherwise. Proof sketch: a gate's
// dynamic settle time is the max over its toggled pins' settle times
// (primary inputs at 0.0) plus its delay, and the walk's value is the
// same max over its toggled long pins only, so by induction in
// topological order every computed value is <= the true one (max is
// exact, and a <= b gives fl(a + d) <= fl(b + d)); the clamp then sends
// every delay below the floor to +0.0. A delay D >= floor * t_nom,c is
// attained along a dynamic path of toggled gates, each taking its
// settle time from the next pin back. The static arrival bounds each
// settle time from above and every gate delay is >= 0, so each edge of
// that path has a static through-path at least as long as D (up to the
// margin): every edge is long, the path ends at a deep output, and every
// gate on it is in the cone and live in the lane. Along it the walk's
// value equals the true one, so the lane's fold returns D exactly. The
// functional values of the fan-in, the carried state and the three ISA
// kernels do not depend on the floor (the floor picks which gates are
// evaluated per batch, not their values). make_corner_tables takes the floor as a
// trailing argument; 0.0 makes every output deep and every pin that
// feeds an output's cone long, and clamps nothing, so every delay equals
// step()'s.
//
// Timing data is laid out corner-minor ("SoA") in zero-padded rows of
// exactly corner_block = 8 doubles: gate delays as [gate][corner] and
// per-net settle times as [net][corner], so the paper's 7 corners are one
// 64-byte, cache-line-aligned block per gate or net. Padding columns are
// 0.0 and stay 0.0 (max(0, 0) + 0 == 0), so they never reach an output.
// make_corner_tables (and the simulator) reject more than 8 corners: the
// fixed stride turns every row address in the kernel into a shift.
//
// step_batch's body -- the functional pass, the cone scan and the
// max-plus walk -- is one template over a GCC vector type of 2, 4 or 8
// doubles: the 8-corner row is 8/W registers. It is compiled three times
// -- SSE2 (the x86-64 baseline), AVX2 and AVX-512F -- and the widest one
// the CPU supports is chosen once per process (non-x86 builds compile
// only the 16-byte one). The AVX2 and AVX-512F targets imply POPCNT, so
// the per-gate toggle counts compile to the popcnt instruction there
// rather than a libgcc call. Plain 8-wide corner loops over padded
// rows are not enough: GCC does not vectorize them (they measured no
// faster than the unpadded 7-wide loops), so the kernel spells the vector
// width out. The kernel only takes maxes and adds, and per corner there is
// one max over the pins and then one add, as in step(), so every
// instantiation is bit-identical to the scalar walk (pinned by
// tests/test_circuit_dynamic_timing_batch for each supported
// instantiation at 1, 3, 7 and 8 corners, on a hand-built netlist whose
// masked toggles the pruning skips -- including a dead subtree that
// settles after every output -- on one that exercises every kind of pin
// padding, and on cone netlists with a short side input, a through-path
// exactly at the floor and a masked deep gate).

#pragma once

#include <array>
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

/// Doubles per timing row, and so the most corners a table can hold.
inline constexpr std::size_t corner_block = 8;

/// step_batch's default delay floor, as a fraction of t_nom: a delay below
/// exact_delay_floor * t_nom,c at corner c is recorded as +0.0, every other
/// one exactly. It lies just below the paper's speculation range [0.64, 1]
/// (config_space::default_tsr_levels), the lowest TSR production code
/// queries; a grid that reaches it is rejected when an experiment is built
/// (core::detail::check_tsr_grid).
inline constexpr double exact_delay_floor = 0.63;

/// Allocator for the padded corner rows: every row starts on a 64-byte
/// cache line, so one 8-corner row never straddles two.
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

namespace detail {

/// step_batch's fixed pin record of one gate: three input nets and the
/// output net. Pins past the gate's input_count (and, in the cone's
/// records, short pins) point at the padding slot net_count, whose value
/// and toggle words are always 0.
struct gate_pins {
    std::array<net_id, 3> in;
    net_id out;
};

} // namespace detail

/// Precomputed per-corner timing of one netlist: supply, STA critical-path
/// delay (the nominal period), and per-gate delays. Building the tables
/// runs the static timing analysis once per corner -- the expensive part of
/// simulator construction -- so callers that spin up many simulators over
/// the same netlist (the per-(thread, interval) characterization cells)
/// build one set and share it.
struct timing_corner_tables {
    std::vector<double> vdd;               ///< [corner]
    std::vector<double> nominal_period_ps; ///< [corner]
    /// Gate delays in corner-minor layout: [gate * corner_block + corner],
    /// columns corner_count() .. corner_block zero. The transpose (vs the
    /// historical [corner][gate]) keeps one gate's corners contiguous --
    /// the inner loop of both stepping modes.
    corner_rows gate_delay_ps;
    /// The floor the timing cone was chosen against, as a fraction of t_nom.
    double delay_floor = 0.0;
    /// The deep outputs: gate-driven primary-output nets (once each, in
    /// output order) whose static arrival reaches delay_floor *
    /// nominal_period_ps[c] at some corner c.
    std::vector<net_id> deep_outputs;
    /// The static timing cone, one record per cone gate in topological
    /// order: the gate's pins, a short pin pointing at the padding slot
    /// net_count, and its output net.
    std::vector<detail::gate_pins> cone_pins;
    /// The cone gates' delay rows in cone order: [cone gate * corner_block
    /// + corner], padding columns zero.
    corner_rows cone_delay_ps;
    /// The cone's functional fan-in: the cone gates and every gate whose
    /// value reaches one of them through any pin, in topological order. One
    /// record per fan-in gate, pins past its input count pointing at the
    /// padding slot, and its cell kind alongside. step_batch's functional
    /// pass evaluates exactly these gates.
    std::vector<detail::gate_pins> fanin_pins;
    std::vector<cell_kind> fanin_kinds;

    /// Number of voltage corners (1 .. corner_block).
    [[nodiscard]] std::size_t corner_count() const noexcept { return vdd.size(); }

    /// Per-corner delays of gate `g` (contiguous, size corner_count()).
    [[nodiscard]] std::span<const double> gate_delays(gate_id g) const noexcept
    {
        return std::span<const double>(gate_delay_ps)
            .subspan(static_cast<std::size_t>(g) * corner_block, vdd.size());
    }
};

/// Runs the STA and builds the shared tables for every supply level in
/// `vdd_levels`, with the static timing cone of `delay_floor` (a fraction
/// of t_nom in [0, 1]; 0.0 puts every gate that reaches an output in the
/// cone, so step_batch matches step() on every vector). Throws
/// std::invalid_argument unless `vdd_levels` holds 1 to corner_block
/// levels and the floor is in range.
[[nodiscard]] std::shared_ptr<const timing_corner_tables>
make_corner_tables(const netlist& nl, const cell_library& lib, const voltage_model& vm,
                   std::span<const double> vdd_levels,
                   double delay_floor = exact_delay_floor);

class dynamic_timing_simulator;

namespace detail {

/// What one step_batch call reads and writes (dynamic_timing.cpp).
struct batch_pass;

/// One compiled instantiation of step_batch's delay kernel.
struct delay_kernel {
    const char* name;             ///< "sse2", "avx2", "avx512f" or "generic"
    std::size_t width;            ///< doubles per vector register: 2, 4 or 8
    bool supported;               ///< this CPU can run it
    void (*run)(batch_pass&);
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

    /// Binds to `nl` sharing precomputed tables (which must describe `nl`
    /// and hold 1 to corner_block corners): no STA runs, so construction is
    /// cheap enough for one simulator per characterization chunk.
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
    /// reuse and owns the baseline contract (scalar values and lane words
    /// zero; the toggle flags and the per-net settle-time scratch are
    /// intentionally NOT re-cleared -- stale entries are unreachable
    /// because every read is guarded by a toggle flag set in the same
    /// step).
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
    /// leave. Per corner c, a vector's delay is bit-identical to the scalar
    /// walk's when that is >= delay_floor * t_nom,c of the tables, and +0.0
    /// otherwise (see the delay floor above).
    void step_batch(std::span<const std::uint64_t> input_words, std::size_t lane_count,
                    std::span<double> out_delay_ps);

    /// Functional value of primary output `i` after the latest step. Not
    /// const: after step_batch it rebuilds the scalar state (one pass over
    /// the gates), so like step() it needs exclusive access.
    [[nodiscard]] bool output_value(std::size_t i) noexcept;

    /// Functional values of all nets (for debugging/tests); rebuilds the
    /// scalar state like output_value().
    [[nodiscard]] std::span<const std::uint8_t> net_values() noexcept;

private:
    friend void detail::step_batch_with(const detail::delay_kernel&, dynamic_timing_simulator&,
                                        std::span<const std::uint64_t>, std::size_t,
                                        std::span<double>);

    void step_batch(const detail::delay_kernel& kernel,
                    std::span<const std::uint64_t> input_words, std::size_t lane_count,
                    std::span<double> out_delay_ps);

    /// Recomputes values_ from the latest inputs (lane prev_last_ of
    /// their words) after step_batch left the state in the words.
    void rebuild_values() noexcept;

    const netlist& nl_;
    std::shared_ptr<const timing_corner_tables> tables_;
    /// Per net, current value; stale while values_stale_.
    std::vector<std::uint8_t> values_;
    std::vector<std::uint8_t> changed_; ///< per net, step()'s scratch toggle flags
    /// step_batch ran since values_ was last current.
    bool values_stale_ = false;
    /// step() ran since the words were last current (or they are not yet
    /// allocated): the next step_batch carries values_ in as lane 0.
    bool words_stale_ = false;
    /// The lane of value_words_ that holds the current state of the fan-in
    /// nets and primary inputs.
    std::size_t prev_last_ = 0;
    /// [net * corner_block + corner], plus an always-zero row at net_count;
    /// padding columns stay 0.0
    corner_rows toggle_ps_;
    std::vector<double> latest_ps_;     ///< per corner scratch (size corners)
    /// Batch-mode scratch, sized lazily on the first step_batch call so
    /// scalar-only simulators never pay for it. The per-net words have one
    /// extra slot at net_count, the padding pin: value and toggle stay 0
    /// there, need is a write-only sink.
    std::vector<std::uint64_t> value_words_;  ///< per net, lane values (fan-in nets only)
    std::vector<std::uint64_t> toggle_words_; ///< per net, lane toggle masks
    std::vector<std::uint64_t> need_words_;   ///< per net, lanes a live reader needs
    /// Per-lane live-gate lists of cone indices: lane j's gates
    /// (topological order) end at lane_gates_[(j + 1) * cone size]; sized
    /// once, max_batch_lanes wide.
    std::vector<std::uint32_t> lane_gates_;
};

} // namespace synts::circuit
