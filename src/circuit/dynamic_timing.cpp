#include "circuit/dynamic_timing.h"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <stdexcept>
#include <vector>

#include "circuit/sta.h"
#include "obs/metrics.h"

namespace synts::circuit {

namespace detail {

/// What one step_batch call reads and writes. Every timing row is one
/// corner_block of doubles.
struct batch_pass {
    // The functional pass, over the cone's fan-in only.
    const cell_kind* fanin_kinds;        ///< per fan-in gate, its cell kind
    const gate_pins* fanin_pins;         ///< per fan-in gate, three input pins and the output
    std::size_t fanin_count;
    const std::uint64_t* input_words;    ///< per primary input, one bit per lane
    std::size_t input_count;
    std::size_t prev_last;               ///< the lane of `words` that holds the carried state
    std::uint64_t* words;                ///< per net plus the padding slot, lane values
    std::uint64_t* toggles;              ///< per net plus the padding slot, toggle masks
    // The cone scan and the walk, over the cone only.
    const gate_pins* cone_pins;          ///< per cone gate, short pins padded
    const double* cone_delays;           ///< [cone gate * corner_block + corner]
    std::size_t cone_count;
    const net_id* deep_outputs;          ///< where need is seeded with every lane
    std::size_t deep_output_count;
    std::uint64_t* need;                 ///< per net plus the padding slot
    std::size_t net_count;
    std::uint32_t* lane_gates;           ///< lane j's live cone gates end at (j + 1) * cone_count
    double* toggle_ps;                   ///< [net * corner_block + corner]
    std::size_t lane_count;
    std::size_t corner_count;            ///< at most corner_block
    const double* floor_ps;              ///< per corner, delays below it record +0.0
    double* out_delay_ps;                ///< [corner * lane_count + lane]
    // What the call counted.
    std::uint64_t toggled_pairs;
    std::uint64_t live_pairs;
    std::uint64_t pruned_lanes;
};

} // namespace detail

namespace {

// One vector register of doubles per ISA. may_alias makes loading and
// storing them straight through the double rows defined behaviour (the
// GCC/Clang extension behind the intrinsics' own vector types); copying
// blocks in and out with memcpy instead sent the AVX2 kernel through the
// stack.
typedef double vec16 __attribute__((vector_size(16), may_alias));
#if defined(__x86_64__) || defined(__i386__)
typedef double vec32 __attribute__((vector_size(32), may_alias));
typedef double vec64 __attribute__((vector_size(64), may_alias));
#endif

/// One step_batch call: the word-parallel functional pass over the cone's
/// fan-in, the liveness scan over the cone, and max-plus delay propagation
/// over each lane's live cone gates, the whole 8-corner row in registers of
/// type V (W doubles each, 8/W registers). The row stride is the constant
/// corner_block, so each row address is a shift and an add. Always
/// inlined, so each wrapper below compiles all three passes for its own
/// target ISA (std::popcount becomes popcnt where the target has it) and
/// no vector value crosses a call boundary.
template <typename V>
[[gnu::always_inline]] inline void run_batch(detail::batch_pass& pass)
{
    constexpr std::size_t width = sizeof(V) / sizeof(double);
    constexpr std::size_t regs = corner_block / width;
    // The pass's fields in locals: read through the reference, GCC must
    // reload every field after each store into the may_alias rows.
    const cell_kind* const kinds = pass.fanin_kinds;
    const detail::gate_pins* const pins = pass.fanin_pins;
    const std::size_t prev_last = pass.prev_last;
    std::uint64_t* const words = pass.words;
    std::uint64_t* const toggles = pass.toggles;
    const detail::gate_pins* const cone_pins = pass.cone_pins;
    const V* const cone_delays = reinterpret_cast<const V*>(pass.cone_delays);
    const std::size_t cone_count = pass.cone_count;
    std::uint64_t* const need = pass.need;
    std::uint32_t* const lists = pass.lane_gates;
    V* const toggle_ps = reinterpret_cast<V*>(pass.toggle_ps);
    const std::size_t zero_row = pass.net_count;
    const std::size_t lane_count = pass.lane_count;
    const std::size_t corner_count = pass.corner_count;
    const double* const floor_ps = pass.floor_ps;
    double* const out_delay_ps = pass.out_delay_ps;

    // Functional pass, word-parallel over the fan-in: lane j of a net's
    // word is its settled value under input vector j. The toggle mask
    // compares each lane with its predecessor; lane 0's predecessor is lane
    // prev_last of the net's previous word, read before the word is
    // overwritten -- after reset() the all-zero baseline, so this is the
    // exact comparison sequence of lane_count scalar step() calls. Bits at
    // or above lane_count (shifted-in toggles, const1 words) belong to no
    // vector and are masked off wherever a lane is counted or walked.
    const std::uint64_t lane_mask =
        lane_count == dynamic_timing_simulator::max_batch_lanes ? ~0ull
                                                                : (1ull << lane_count) - 1;
    for (std::size_t i = 0; i < pass.input_count; ++i) {
        const std::uint64_t w = pass.input_words[i];
        toggles[i] = w ^ ((w << 1) | ((words[i] >> prev_last) & 1));
        words[i] = w;
    }
    std::uint64_t toggled_pairs = 0;
    for (std::size_t gi = 0; gi < pass.fanin_count; ++gi) {
        const detail::gate_pins& p = pins[gi];
        const std::uint64_t w =
            evaluate_cell_word(kinds[gi], words[p.in[0]], words[p.in[1]], words[p.in[2]]);
        const std::uint64_t t = w ^ ((w << 1) | ((words[p.out] >> prev_last) & 1));
        words[p.out] = w;
        toggles[p.out] = t;
        toggled_pairs += static_cast<std::uint64_t>(std::popcount(t & lane_mask));
    }

    // Liveness over the cone, in reverse topological order: need[n] holds
    // the lanes in which some live cone gate (or a deep output) reads net
    // n's settle time, so a cone gate is live in the lanes where its output
    // toggles and is needed. A live gate makes its long pins needed in the
    // same lanes; its short pins point at the padding slot, whose need is a
    // write-only sink. The same scan pushes each live gate onto its lanes'
    // lists back to front: lane j's list ends at lists[(j + 1) *
    // cone_count] and runs in topological order. A gate live in no lane is
    // skipped.
    std::fill(need, need + pass.net_count + 1, 0);
    for (std::size_t d = 0; d < pass.deep_output_count; ++d) {
        need[pass.deep_outputs[d]] = ~0ull;
    }
    std::array<std::uint32_t*, dynamic_timing_simulator::max_batch_lanes> lane_firsts{};
    for (std::size_t lane = 0; lane < lane_count; ++lane) {
        lane_firsts[lane] = lists + (lane + 1) * cone_count;
    }
    std::uint64_t walked = 0; // the lanes with a non-empty list
    for (std::size_t k = cone_count; k-- > 0;) {
        const detail::gate_pins& p = cone_pins[k];
        const std::uint64_t live = toggles[p.out] & need[p.out] & lane_mask;
        if (live == 0) {
            continue;
        }
        walked |= live;
        need[p.in[0]] |= live;
        need[p.in[1]] |= live;
        need[p.in[2]] |= live;
        for (std::uint64_t lanes = live; lanes != 0; lanes &= lanes - 1) {
            *--lane_firsts[std::countr_zero(lanes)] = static_cast<std::uint32_t>(k);
        }
    }

    // Delay propagation per walked lane over its own list; every other
    // lane's delay is the +0.0 of the fill. Lanes share toggle_ps
    // sequentially exactly like consecutive scalar steps share it: a lane
    // only reads settle times its own walk wrote (a read is guarded by the
    // lane's toggle bit, and a toggled net read through a live gate's pin
    // record is driven by a live gate or is a primary input, whose row
    // stays 0.0), so no per-lane copy is needed.
    std::fill(out_delay_ps, out_delay_ps + corner_count * lane_count, 0.0);
    std::uint64_t live_pairs = 0;
    for (std::uint64_t lanes = walked; lanes != 0; lanes &= lanes - 1) {
        const auto lane = static_cast<std::size_t>(std::countr_zero(lanes));
        const std::uint64_t lane_bit = 1ull << lane;
        const std::uint32_t* const first = lane_firsts[lane];
        const std::uint32_t* const last = lists + (lane + 1) * cone_count;
        live_pairs += static_cast<std::uint64_t>(last - first);
        // Running max over every live gate the lane visits. A live gate
        // either drives a deep output or has a live reader that reads its
        // toggled row and settles no earlier (delays are >= 0), so this max
        // is the max over the toggled deep outputs; max is exact, so any
        // visit order gives the same bits.
        V worst[regs] = {};
        for (const std::uint32_t* it = first; it != last; ++it) {
            const std::uint32_t k = *it;
            const detail::gate_pins& p = cone_pins[k];
            // Every gate has three pins; a pin reads its settle-time row
            // only if it toggled in this lane, else the all-zero row (the
            // padding slot never toggles). So no branch depends on the pin
            // count or on the data. Per corner this is max(a, b, c) +
            // delay: max is exact and order-free on these finite
            // non-negative times and max(x, +0.0) is x. `a < b ? b : a` is
            // std::max(a, b) lane for lane.
            const V* in_rows[3];
            for (std::size_t i = 0; i < 3; ++i) {
                const std::size_t row =
                    (toggles[p.in[i]] & lane_bit) != 0 ? p.in[i] : zero_row;
                in_rows[i] = toggle_ps + row * regs;
            }
            V* const out_toggle = toggle_ps + std::size_t{p.out} * regs;
            const V* const delays = cone_delays + std::size_t{k} * regs;
            for (std::size_t r = 0; r < regs; ++r) {
                const V a = in_rows[0][r];
                const V b = in_rows[1][r];
                const V c = in_rows[2][r];
                const V ab = a < b ? b : a;
                V latest = ab < c ? c : ab;
                latest += delays[r];
                out_toggle[r] = latest;
                worst[r] = worst[r] < latest ? latest : worst[r];
            }
        }
        // Below the floor the walk may have dropped short pins, so the
        // value is only a lower bound there: record +0.0.
        for (std::size_t c = 0; c < corner_count; ++c) {
            const double delay = worst[c / width][c % width];
            out_delay_ps[c * lane_count + lane] = delay < floor_ps[c] ? 0.0 : delay;
        }
    }
    pass.toggled_pairs = toggled_pairs;
    pass.live_pairs = live_pairs;
    pass.pruned_lanes = lane_count - static_cast<std::size_t>(std::popcount(walked));
}

// The instantiations, one per target ISA. The 16-byte one needs nothing
// beyond the x86-64 baseline (SSE2) and is the only one elsewhere. Each
// starts on a 64-byte boundary, so its loops keep their cache-line offsets
// when code placed ahead of them in the library grows or shrinks.
[[gnu::aligned(64)]] void run_batch_vec16(detail::batch_pass& pass)
{
    run_batch<vec16>(pass);
}

#if defined(__x86_64__) || defined(__i386__)
[[gnu::target("avx2"), gnu::aligned(64)]] void run_batch_avx2(detail::batch_pass& pass)
{
    run_batch<vec32>(pass);
}

[[gnu::target("avx512f"), gnu::aligned(64)]] void run_batch_avx512f(detail::batch_pass& pass)
{
    run_batch<vec64>(pass);
}
#endif

} // namespace

namespace detail {

std::span<const delay_kernel> delay_kernels() noexcept
{
#if defined(__x86_64__) || defined(__i386__)
    static const std::array<delay_kernel, 3> kernels = {{
        {"sse2", 2, true, run_batch_vec16},
        {"avx2", 4, __builtin_cpu_supports("avx2") != 0, run_batch_avx2},
        {"avx512f", 8, __builtin_cpu_supports("avx512f") != 0, run_batch_avx512f},
    }};
#else
    static const std::array<delay_kernel, 1> kernels = {{
        {"generic", 2, true, run_batch_vec16},
    }};
#endif
    return kernels;
}

const delay_kernel& active_delay_kernel() noexcept
{
    static const delay_kernel& chosen = []() -> const delay_kernel& {
        const delay_kernel* widest = nullptr;
        for (const delay_kernel& kernel : delay_kernels()) {
            if (kernel.supported) {
                widest = &kernel;
            }
        }
        obs::metrics_registry::global()
            .gauge_at("circuit.delay_kernel_width")
            .set(static_cast<std::int64_t>(widest->width));
        return *widest;
    }();
    return chosen;
}

void step_batch_with(const delay_kernel& kernel, dynamic_timing_simulator& sim,
                     std::span<const std::uint64_t> input_words, std::size_t lane_count,
                     std::span<double> out_delay_ps)
{
    sim.step_batch(kernel, input_words, lane_count, out_delay_ps);
}

} // namespace detail

std::shared_ptr<const timing_corner_tables>
make_corner_tables(const netlist& nl, const cell_library& lib, const voltage_model& vm,
                   std::span<const double> vdd_levels, double delay_floor)
{
    if (vdd_levels.empty() || vdd_levels.size() > corner_block) {
        throw std::invalid_argument("make_corner_tables: need 1 to 8 corners");
    }
    if (!(delay_floor >= 0.0 && delay_floor <= 1.0)) {
        throw std::invalid_argument("make_corner_tables: delay floor outside [0, 1]");
    }
    const static_timing_analyzer sta(nl);
    const std::vector<double> nominal = sta.nominal_gate_delays(lib);
    const auto gates = nl.gates();
    const std::size_t corner_count = vdd_levels.size();
    const std::size_t input_count = nl.input_count();
    // Relative slack on the cone's threshold: it only enlarges the cone,
    // and covers the rounding gap between a left-folded dynamic path sum
    // and the static through-path sum (a few ulps on a few dozen terms).
    constexpr double cone_margin = 1e-9;

    auto tables = std::make_shared<timing_corner_tables>();
    tables->vdd.assign(vdd_levels.begin(), vdd_levels.end());
    tables->nominal_period_ps.reserve(corner_count);
    tables->gate_delay_ps.resize(gates.size() * corner_block); // padding stays 0.0
    tables->delay_floor = delay_floor;
    std::vector<double> delays(gates.size());
    // tail[n]: the longest static path from net n to a primary output,
    // -infinity where none exists.
    std::vector<double> tail(nl.net_count());
    std::vector<std::uint8_t> deep(nl.net_count(), 0);   // per net, a deep output
    std::vector<std::uint8_t> long_pin(gates.size() * 3, 0);
    for (std::size_t c = 0; c < corner_count; ++c) {
        vm.scale_gate_delays(gates, nominal, delays, vdd_levels[c]);
        const timing_report report = sta.analyze(delays);
        tables->nominal_period_ps.push_back(report.critical_delay_ps);
        // Transpose into the corner-minor layout: one gate's corners are
        // contiguous so the simulators' inner corner loops stream.
        for (std::size_t g = 0; g < gates.size(); ++g) {
            tables->gate_delay_ps[g * corner_block + c] = delays[g];
        }
        // The cone at this corner: deep outputs by arrival, long pins by
        // their longest static through-path; a gate with no path to an
        // output has tail -infinity and so no long pin.
        const double threshold = delay_floor * report.critical_delay_ps * (1.0 - cone_margin);
        std::fill(tail.begin(), tail.end(), -std::numeric_limits<double>::infinity());
        for (const net_id out : nl.output_nets()) {
            tail[out] = 0.0;
            deep[out] |= report.arrival_ps[out] >= threshold ? 1 : 0;
        }
        for (std::size_t g = gates.size(); g-- > 0;) {
            const gate& gt = gates[g];
            const double through = delays[g] + tail[gt.output];
            for (std::size_t i = 0; i < gt.input_count; ++i) {
                const net_id in = gt.inputs[i];
                tail[in] = std::max(tail[in], through);
                long_pin[g * 3 + i] |= report.arrival_ps[in] + through >= threshold ? 1 : 0;
            }
        }
    }

    // The cone: every gate reachable backward from a deep output through
    // long pins, found in reverse topological order.
    std::vector<std::uint8_t> in_cone(gates.size(), 0);
    for (const net_id out : nl.output_nets()) {
        // A net marked as two outputs is listed once.
        if (deep[out] != 0 && out >= input_count && in_cone[nl.driver_of(out)] == 0) {
            tables->deep_outputs.push_back(out);
            in_cone[nl.driver_of(out)] = 1;
        }
    }
    for (std::size_t g = gates.size(); g-- > 0;) {
        for (std::size_t i = 0; in_cone[g] != 0 && i < gates[g].input_count; ++i) {
            const net_id in = gates[g].inputs[i];
            if (long_pin[g * 3 + i] != 0 && in >= input_count) {
                in_cone[nl.driver_of(in)] = 1;
            }
        }
    }
    // The functional fan-in: the cone and, through every pin, the drivers
    // of its gates' values.
    std::vector<std::uint8_t> in_fanin(in_cone);
    for (std::size_t g = gates.size(); g-- > 0;) {
        for (std::size_t i = 0; in_fanin[g] != 0 && i < gates[g].input_count; ++i) {
            if (gates[g].inputs[i] >= input_count) {
                in_fanin[nl.driver_of(gates[g].inputs[i])] = 1;
            }
        }
    }
    const auto pad = static_cast<net_id>(nl.net_count());
    for (std::size_t g = 0; g < gates.size(); ++g) {
        if (in_fanin[g] == 0) {
            continue;
        }
        detail::gate_pins& f = tables->fanin_pins.emplace_back();
        for (std::size_t i = 0; i < 3; ++i) {
            f.in[i] = i < gates[g].input_count ? gates[g].inputs[i] : pad;
        }
        f.out = gates[g].output;
        tables->fanin_kinds.push_back(gates[g].kind);
        if (in_cone[g] == 0) {
            continue;
        }
        detail::gate_pins& p = tables->cone_pins.emplace_back();
        for (std::size_t i = 0; i < 3; ++i) {
            p.in[i] = i < gates[g].input_count && long_pin[g * 3 + i] != 0 ? gates[g].inputs[i]
                                                                            : pad;
        }
        p.out = gates[g].output;
        const auto row =
            tables->gate_delay_ps.begin() + static_cast<std::ptrdiff_t>(g * corner_block);
        tables->cone_delay_ps.insert(tables->cone_delay_ps.end(), row, row + corner_block);
    }
    return tables;
}

dynamic_timing_simulator::dynamic_timing_simulator(const netlist& nl, const cell_library& lib,
                                                   const voltage_model& vm,
                                                   std::span<const double> vdd_levels)
    : dynamic_timing_simulator(nl, make_corner_tables(nl, lib, vm, vdd_levels))
{
}

dynamic_timing_simulator::dynamic_timing_simulator(
    const netlist& nl, std::shared_ptr<const timing_corner_tables> tables)
    : nl_(nl), tables_(std::move(tables))
{
    if (!tables_ || tables_->vdd.empty() || tables_->vdd.size() > corner_block) {
        throw std::invalid_argument("dynamic_timing_simulator: need 1 to 8 corners");
    }
    // Single initialization: vector value-init already zeroes every buffer,
    // which IS the reset-state contract. reset() re-establishes it for
    // reuse without repeating the toggle_ps_ fill (see reset()).
    values_.resize(nl_.net_count());
    changed_.resize(nl_.net_count());
    // One extra row past the last net stays 0.0 forever: step_batch's
    // branch-free reads of unchanged pins land there.
    toggle_ps_.resize((nl_.net_count() + 1) * corner_block);
    latest_ps_.resize(tables_->vdd.size());
}

void dynamic_timing_simulator::reset()
{
    std::fill(values_.begin(), values_.end(), 0);
    std::fill(value_words_.begin(), value_words_.end(), 0);
    prev_last_ = 0;
    values_stale_ = false;
    words_stale_ = false;
    // changed_ and toggle_ps_ are deliberately left as-is: step() rewrites
    // every changed_ flag before it reads it, and every read of a net's
    // settle time is guarded by that net's toggle flag, rewritten within
    // each step before any read. Primary-input slots are only ever zero
    // (inputs switch at the clock edge, time 0), so stale data is
    // unreachable -- re-clearing the corner x net doubles here was pure
    // construction/reset waste.
}

void dynamic_timing_simulator::rebuild_values() noexcept
{
    // The netlist is combinational, so every net's value is a function of
    // the latest inputs: lane prev_last_ of the input words.
    const std::size_t input_count = nl_.input_count();
    for (std::size_t i = 0; i < input_count; ++i) {
        values_[i] = static_cast<std::uint8_t>((value_words_[i] >> prev_last_) & 1);
    }
    for (const gate& g : nl_.gates()) {
        std::uint64_t in[3] = {0, 0, 0};
        for (std::size_t i = 0; i < g.input_count; ++i) {
            in[i] = values_[g.inputs[i]];
        }
        values_[g.output] =
            static_cast<std::uint8_t>(evaluate_cell_word(g.kind, in[0], in[1], in[2]) & 1);
    }
    values_stale_ = false;
}

double dynamic_timing_simulator::step(std::span<const bool> inputs,
                                      std::span<double> out_delay_ps)
{
    const std::size_t input_count = nl_.input_count();
    const std::size_t corner_count_ = tables_->vdd.size();
    if (inputs.size() != input_count) {
        throw std::invalid_argument("dynamic_timing_simulator: input vector width mismatch");
    }
    if (out_delay_ps.size() != corner_count_) {
        throw std::invalid_argument("dynamic_timing_simulator: corner buffer mismatch");
    }

    if (values_stale_) {
        rebuild_values();
    }
    words_stale_ = true;
    // Primary inputs switch at the launching clock edge (time 0). Their
    // toggle_ps_ slots stay 0.0 forever (never written otherwise), so no
    // per-corner store is needed here.
    for (std::size_t i = 0; i < input_count; ++i) {
        const std::uint8_t next = inputs[i] ? 1 : 0;
        changed_[i] = (next != values_[i]) ? 1 : 0;
        values_[i] = next;
    }

    const auto gates = nl_.gates();
    const double* const gate_delays = tables_->gate_delay_ps.data();
    double* const toggle = toggle_ps_.data();
    double* const latest = latest_ps_.data();
    for (std::size_t gi = 0; gi < gates.size(); ++gi) {
        const gate& g = gates[gi];
        bool in_bits[3] = {false, false, false};
        for (std::size_t i = 0; i < g.input_count; ++i) {
            in_bits[i] = values_[g.inputs[i]] != 0;
        }
        const bool next =
            evaluate_cell(g.kind, std::span<const bool>(in_bits, g.input_count));
        const net_id out = g.output;
        const bool toggled = (next ? 1 : 0) != values_[out];
        values_[out] = next ? 1 : 0;
        changed_[out] = toggled ? 1 : 0;
        if (!toggled) {
            continue;
        }
        // Corner-minor sweeps: each changed input contributes one
        // contiguous max pass, the delay add is one contiguous pass. The
        // per-corner arithmetic order (inputs in pin order, then one add)
        // is exactly the historical corner-major loop's, so delays are
        // bit-identical across layouts.
        std::fill(latest, latest + corner_count_, 0.0);
        for (std::size_t i = 0; i < g.input_count; ++i) {
            const net_id in = g.inputs[i];
            if (!changed_[in]) {
                continue;
            }
            const double* const in_toggle = toggle + in * corner_block;
            for (std::size_t c = 0; c < corner_count_; ++c) {
                latest[c] = std::max(latest[c], in_toggle[c]);
            }
        }
        double* const out_toggle = toggle + out * corner_block;
        const double* const delays = gate_delays + gi * corner_block;
        for (std::size_t c = 0; c < corner_count_; ++c) {
            out_toggle[c] = latest[c] + delays[c];
        }
    }

    std::fill(latest, latest + corner_count_, 0.0);
    for (const net_id out : nl_.output_nets()) {
        if (!changed_[out]) {
            continue;
        }
        const double* const out_toggle = toggle + out * corner_block;
        for (std::size_t c = 0; c < corner_count_; ++c) {
            latest[c] = std::max(latest[c], out_toggle[c]);
        }
    }
    double worst = 0.0;
    for (std::size_t c = 0; c < corner_count_; ++c) {
        out_delay_ps[c] = latest[c];
        worst = std::max(worst, latest[c]);
    }
    return worst;
}

void dynamic_timing_simulator::step_batch(std::span<const std::uint64_t> input_words,
                                          std::size_t lane_count,
                                          std::span<double> out_delay_ps)
{
    step_batch(detail::active_delay_kernel(), input_words, lane_count, out_delay_ps);
}

void dynamic_timing_simulator::step_batch(const detail::delay_kernel& kernel,
                                          std::span<const std::uint64_t> input_words,
                                          std::size_t lane_count,
                                          std::span<double> out_delay_ps)
{
    const std::size_t input_count = nl_.input_count();
    const std::size_t net_count = nl_.net_count();
    const std::size_t corner_count = tables_->vdd.size();
    if (input_words.size() != input_count) {
        throw std::invalid_argument("dynamic_timing_simulator: input word span mismatch");
    }
    if (lane_count == 0 || lane_count > max_batch_lanes) {
        throw std::invalid_argument("dynamic_timing_simulator: lane count out of range");
    }
    if (out_delay_ps.size() != corner_count * lane_count) {
        throw std::invalid_argument("dynamic_timing_simulator: batch delay buffer mismatch");
    }
    const std::size_t cone_count = tables_->cone_pins.size();
    if (value_words_.size() != net_count + 1) {
        // Net net_count is the padding slot every unused pin points at: its
        // value and toggle words stay 0, and its need word is a write-only
        // sink.
        value_words_.assign(net_count + 1, 0);
        toggle_words_.assign(net_count + 1, 0);
        need_words_.assign(net_count + 1, 0);
        lane_gates_.resize(max_batch_lanes * cone_count);
        words_stale_ = true;
    }
    if (words_stale_) {
        // step() (or construction) left the state in values_: lane 0 of
        // the words carries it into this batch.
        std::copy(values_.begin(), values_.end(), value_words_.begin());
        prev_last_ = 0;
        words_stale_ = false;
    }
    // The same product the contract (and its test oracles) compare with.
    std::array<double, corner_block> floor_ps{};
    for (std::size_t c = 0; c < corner_count; ++c) {
        floor_ps[c] = tables_->delay_floor * tables_->nominal_period_ps[c];
    }

    detail::batch_pass pass{.fanin_kinds = tables_->fanin_kinds.data(),
                            .fanin_pins = tables_->fanin_pins.data(),
                            .fanin_count = tables_->fanin_pins.size(),
                            .input_words = input_words.data(),
                            .input_count = input_count,
                            .prev_last = prev_last_,
                            .words = value_words_.data(),
                            .toggles = toggle_words_.data(),
                            .cone_pins = tables_->cone_pins.data(),
                            .cone_delays = tables_->cone_delay_ps.data(),
                            .cone_count = cone_count,
                            .deep_outputs = tables_->deep_outputs.data(),
                            .deep_output_count = tables_->deep_outputs.size(),
                            .need = need_words_.data(),
                            .net_count = net_count,
                            .lane_gates = lane_gates_.data(),
                            .toggle_ps = toggle_ps_.data(),
                            .lane_count = lane_count,
                            .corner_count = corner_count,
                            .floor_ps = floor_ps.data(),
                            .out_delay_ps = out_delay_ps.data(),
                            .toggled_pairs = 0,
                            .live_pairs = 0,
                            .pruned_lanes = 0};
    kernel.run(pass);

    // Once per call: the dead share is 1 - live / toggled.
    static obs::counter& toggled_counter =
        obs::metrics_registry::global().counter_at("circuit.toggled_pairs");
    static obs::counter& live_counter =
        obs::metrics_registry::global().counter_at("circuit.live_pairs");
    static obs::counter& pruned_counter =
        obs::metrics_registry::global().counter_at("circuit.pruned_lanes");
    toggled_counter.add(pass.toggled_pairs);
    live_counter.add(pass.live_pairs);
    pruned_counter.add(pass.pruned_lanes);

    // The state now lives in the words' last lane; values_ is rebuilt from
    // it only when a caller reads it (see rebuild_values()).
    prev_last_ = lane_count - 1;
    values_stale_ = true;
}

bool dynamic_timing_simulator::output_value(std::size_t i) noexcept
{
    return net_values()[nl_.output_net(i)] != 0;
}

std::span<const std::uint8_t> dynamic_timing_simulator::net_values() noexcept
{
    if (values_stale_) {
        rebuild_values();
    }
    return values_;
}

} // namespace synts::circuit
