#include "circuit/dynamic_timing.h"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>
#include <vector>

#include "circuit/sta.h"
#include "obs/metrics.h"

namespace synts::circuit {

namespace detail {

/// What one step_batch delay pass reads and writes.
struct delay_pass {
    const gate* gates;
    const double* gate_delays;           ///< [gate * row_stride + corner]
    const std::uint64_t* toggles;        ///< per net, lane toggle masks
    double* toggle_ps;                   ///< [net * row_stride + corner]
    std::size_t zero_row;                ///< toggle_ps row that is always 0.0
    const std::uint8_t* drives_output;   ///< per gate, output is a primary output
    const std::uint32_t* lane_gates;     ///< lane j's toggled gates from j * gate_count
    std::uint32_t* const* lane_ends;     ///< per lane, one past its last gate
    std::size_t gate_count;
    std::size_t lane_count;
    std::size_t corner_count;
    std::size_t row_stride;              ///< a multiple of corner_block
    double* out_delay_ps;                ///< [corner * lane_count + lane]
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

/// Max-plus delay propagation over each lane's toggled gates, one
/// 8-corner block at a time in registers of type V (W doubles each, 8/W
/// registers per block). The lane's gate list is walked once per block,
/// so any corner count runs this code. Always inlined, so each wrapper
/// below compiles it for its own target ISA and no vector value crosses a
/// call boundary.
///
/// Lanes share toggle_ps sequentially exactly like consecutive scalar
/// steps share it: a lane only reads settle times its own pass wrote
/// (reads guarded by the lane's toggle bits), so no per-lane copy is
/// needed and the final contents equal the scalar walk's.
template <typename V>
[[gnu::always_inline]] inline void propagate_delays(const detail::delay_pass& pass)
{
    constexpr std::size_t width = sizeof(V) / sizeof(double);
    constexpr std::size_t regs = corner_block / width;
    // The pass's fields in locals: read through the reference, GCC must
    // reload every field after each store into the may_alias rows.
    const gate* const gates = pass.gates;
    const double* const gate_delays = pass.gate_delays;
    const std::uint64_t* const toggles = pass.toggles;
    double* const toggle_ps = pass.toggle_ps;
    const std::size_t zero_row = pass.zero_row;
    const std::uint8_t* const drives_output = pass.drives_output;
    const std::size_t lane_count = pass.lane_count;
    const std::size_t corner_count = pass.corner_count;
    const std::size_t stride = pass.row_stride;
    double* const out_delay_ps = pass.out_delay_ps;

    for (std::size_t lane = 0; lane < lane_count; ++lane) {
        const std::uint64_t lane_bit = 1ull << lane;
        const std::uint32_t* const first = pass.lane_gates + lane * pass.gate_count;
        const std::uint32_t* const last = pass.lane_ends[lane];
        for (std::size_t block = 0; block < stride; block += corner_block) {
            // Running max over the lane's toggled primary outputs. Settle
            // times are non-negative and max is exact, so folding the
            // output reduction into the gate walk gives the scalar walk's
            // bits in any visit order.
            V worst[regs] = {};
            for (const std::uint32_t* it = first; it != last; ++it) {
                const std::uint32_t gi = *it;
                const gate& g = gates[gi];
                // Per corner: max over the changed inputs in pin order,
                // then one add -- the scalar walk's arithmetic order.
                // `a < b ? b : a` is std::max(a, b) lane for lane. An
                // unchanged pin reads the all-zero row instead of
                // branching: max(x, +0.0) is x bit for bit here, and a
                // data-dependent select beats a mispredicted branch.
                V latest[regs] = {};
                for (std::size_t i = 0; i < g.input_count; ++i) {
                    const net_id in = g.inputs[i];
                    const std::size_t row = (toggles[in] & lane_bit) != 0 ? in : zero_row;
                    const V* const in_toggle =
                        reinterpret_cast<const V*>(toggle_ps + row * stride + block);
                    for (std::size_t r = 0; r < regs; ++r) {
                        latest[r] = latest[r] < in_toggle[r] ? in_toggle[r] : latest[r];
                    }
                }
                V* const out_toggle =
                    reinterpret_cast<V*>(toggle_ps + g.output * stride + block);
                const V* const delays =
                    reinterpret_cast<const V*>(gate_delays + gi * stride + block);
                for (std::size_t r = 0; r < regs; ++r) {
                    latest[r] += delays[r];
                    out_toggle[r] = latest[r];
                }
                if (drives_output[gi] != 0) {
                    for (std::size_t r = 0; r < regs; ++r) {
                        worst[r] = worst[r] < latest[r] ? latest[r] : worst[r];
                    }
                }
            }
            const std::size_t corners = std::min(corner_block, corner_count - block);
            for (std::size_t c = 0; c < corners; ++c) {
                out_delay_ps[(block + c) * lane_count + lane] = worst[c / width][c % width];
            }
        }
    }
}

// The instantiations, one per target ISA. The 16-byte one needs nothing
// beyond the x86-64 baseline (SSE2) and is the only one elsewhere.
void propagate_delays_vec16(const detail::delay_pass& pass)
{
    propagate_delays<vec16>(pass);
}

#if defined(__x86_64__) || defined(__i386__)
[[gnu::target("avx2")]] void propagate_delays_avx2(const detail::delay_pass& pass)
{
    propagate_delays<vec32>(pass);
}

[[gnu::target("avx512f")]] void propagate_delays_avx512f(const detail::delay_pass& pass)
{
    propagate_delays<vec64>(pass);
}
#endif

} // namespace

namespace detail {

std::span<const delay_kernel> delay_kernels() noexcept
{
#if defined(__x86_64__) || defined(__i386__)
    static const std::array<delay_kernel, 3> kernels = {{
        {"sse2", 2, true, propagate_delays_vec16},
        {"avx2", 4, __builtin_cpu_supports("avx2") != 0, propagate_delays_avx2},
        {"avx512f", 8, __builtin_cpu_supports("avx512f") != 0, propagate_delays_avx512f},
    }};
#else
    static const std::array<delay_kernel, 1> kernels = {{
        {"generic", 2, true, propagate_delays_vec16},
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
                   std::span<const double> vdd_levels)
{
    if (vdd_levels.empty()) {
        throw std::invalid_argument("make_corner_tables: need at least one corner");
    }
    const static_timing_analyzer sta(nl);
    const std::vector<double> nominal = sta.nominal_gate_delays(lib);
    const auto gates = nl.gates();
    const std::size_t corner_count = vdd_levels.size();

    auto tables = std::make_shared<timing_corner_tables>();
    tables->vdd.assign(vdd_levels.begin(), vdd_levels.end());
    tables->nominal_period_ps.reserve(corner_count);
    const std::size_t stride = tables->row_stride();
    tables->gate_delay_ps.resize(gates.size() * stride); // padding stays 0.0
    std::vector<double> delays(gates.size());
    for (std::size_t c = 0; c < corner_count; ++c) {
        vm.scale_gate_delays(gates, nominal, delays, vdd_levels[c]);
        tables->nominal_period_ps.push_back(sta.analyze(delays).critical_delay_ps);
        // Transpose into the corner-minor layout: one gate's corners are
        // contiguous so the simulators' inner corner loops stream.
        for (std::size_t g = 0; g < gates.size(); ++g) {
            tables->gate_delay_ps[g * stride + c] = delays[g];
        }
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
    if (!tables_ || tables_->vdd.empty()) {
        throw std::invalid_argument("dynamic_timing_simulator: need at least one corner");
    }
    // Single initialization: vector value-init already zeroes every buffer,
    // which IS the reset-state contract. reset() re-establishes it for
    // reuse without repeating the toggle_ps_ fill (see reset()).
    values_.resize(nl_.net_count());
    changed_.resize(nl_.net_count());
    // One extra row past the last net stays 0.0 forever: step_batch's
    // branch-free reads of unchanged pins land there.
    toggle_ps_.resize((nl_.net_count() + 1) * tables_->row_stride());
    latest_ps_.resize(tables_->vdd.size());
}

void dynamic_timing_simulator::reset()
{
    std::fill(values_.begin(), values_.end(), 0);
    std::fill(changed_.begin(), changed_.end(), 0);
    // toggle_ps_ is deliberately left as-is: every read of a net's settle
    // time is guarded by that net's toggle flag, and toggle flags plus
    // toggled nets' settle times are rewritten within each step before any
    // read. Primary-input slots are only ever zero (inputs switch at the
    // clock edge, time 0), so stale data is unreachable -- re-clearing the
    // corner x net doubles here was pure construction/reset waste.
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

    // Primary inputs switch at the launching clock edge (time 0). Their
    // toggle_ps_ slots stay 0.0 forever (never written otherwise), so no
    // per-corner store is needed here.
    for (std::size_t i = 0; i < input_count; ++i) {
        const std::uint8_t next = inputs[i] ? 1 : 0;
        changed_[i] = (next != values_[i]) ? 1 : 0;
        values_[i] = next;
    }

    const auto gates = nl_.gates();
    const std::size_t stride = tables_->row_stride();
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
            const double* const in_toggle = toggle + in * stride;
            for (std::size_t c = 0; c < corner_count_; ++c) {
                latest[c] = std::max(latest[c], in_toggle[c]);
            }
        }
        double* const out_toggle = toggle + out * stride;
        const double* const delays = gate_delays + gi * stride;
        for (std::size_t c = 0; c < corner_count_; ++c) {
            out_toggle[c] = latest[c] + delays[c];
        }
    }

    std::fill(latest, latest + corner_count_, 0.0);
    for (const net_id out : nl_.output_nets()) {
        if (!changed_[out]) {
            continue;
        }
        const double* const out_toggle = toggle + out * stride;
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
    const auto gates = nl_.gates();
    if (value_words_.size() != net_count) {
        value_words_.resize(net_count);
        toggle_words_.resize(net_count);
        lane_gates_.resize(max_batch_lanes * gates.size());
        drives_output_.resize(gates.size());
        for (const net_id out : nl_.output_nets()) {
            if (const gate_id g = nl_.driver_of(out); g < gates.size()) {
                drives_output_[g] = 1;
            }
        }
    }

    // Functional pass, word-parallel: lane j of a net's word is its settled
    // value under input vector j. The toggle mask compares each lane with
    // its predecessor; lane 0's predecessor is the carried scalar state
    // (values_), which after reset() is the raw all-zero baseline -- the
    // exact comparison sequence of lane_count scalar step() calls.
    std::uint64_t* const words = value_words_.data();
    std::uint64_t* const toggles = toggle_words_.data();
    for (std::size_t i = 0; i < input_count; ++i) {
        const std::uint64_t w = input_words[i];
        words[i] = w;
        toggles[i] = w ^ ((w << 1) | static_cast<std::uint64_t>(values_[i]));
    }
    // The same scan bit-scans each gate's toggle word and buckets the gate
    // into its toggled lanes' lists: lane j's list starts at
    // lane_gates_[j * gate_count] and ends at lane_ends[j]. Gates are
    // visited in topological order, so every list is too. Bits at or above
    // lane_count (shifted-in toggles, const1 words) belong to no vector and
    // are masked off.
    const std::uint64_t lane_mask =
        lane_count == max_batch_lanes ? ~0ull : (1ull << lane_count) - 1;
    std::array<std::uint32_t*, max_batch_lanes> lane_ends{};
    for (std::size_t lane = 0; lane < lane_count; ++lane) {
        lane_ends[lane] = lane_gates_.data() + lane * gates.size();
    }
    for (std::size_t gi = 0; gi < gates.size(); ++gi) {
        const gate& g = gates[gi];
        const std::uint64_t a = g.input_count > 0 ? words[g.inputs[0]] : 0;
        const std::uint64_t b = g.input_count > 1 ? words[g.inputs[1]] : 0;
        const std::uint64_t c = g.input_count > 2 ? words[g.inputs[2]] : 0;
        const std::uint64_t w = evaluate_cell_word(g.kind, a, b, c);
        const net_id out = g.output;
        words[out] = w;
        const std::uint64_t t = w ^ ((w << 1) | static_cast<std::uint64_t>(values_[out]));
        toggles[out] = t;
        for (std::uint64_t lanes = t & lane_mask; lanes != 0; lanes &= lanes - 1) {
            *lane_ends[std::countr_zero(lanes)]++ = static_cast<std::uint32_t>(gi);
        }
    }

    // Delay propagation per lane over its own list, in 8-corner blocks.
    const detail::delay_pass pass{.gates = gates.data(),
                                  .gate_delays = tables_->gate_delay_ps.data(),
                                  .toggles = toggles,
                                  .toggle_ps = toggle_ps_.data(),
                                  .zero_row = net_count,
                                  .drives_output = drives_output_.data(),
                                  .lane_gates = lane_gates_.data(),
                                  .lane_ends = lane_ends.data(),
                                  .gate_count = gates.size(),
                                  .lane_count = lane_count,
                                  .corner_count = corner_count,
                                  .row_stride = tables_->row_stride(),
                                  .out_delay_ps = out_delay_ps.data()};
    kernel.run(pass);

    // Land the carried scalar state on the last lane, so scalar and batched
    // stepping interleave freely.
    const std::size_t last = lane_count - 1;
    for (std::size_t n = 0; n < net_count; ++n) {
        values_[n] = static_cast<std::uint8_t>((words[n] >> last) & 1);
        changed_[n] = static_cast<std::uint8_t>((toggles[n] >> last) & 1);
    }
}

bool dynamic_timing_simulator::output_value(std::size_t i) const noexcept
{
    return values_[nl_.output_net(i)] != 0;
}

} // namespace synts::circuit
