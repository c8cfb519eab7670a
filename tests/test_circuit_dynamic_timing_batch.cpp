// Differential tests pinning the 64-lane batched stepping path
// (dynamic_timing_simulator::step_batch) bit-identical to the scalar
// reference walk (step), over random netlists covering every combinational
// cell kind -- including const0/const1, whose all-0/all-1 lane words are a
// batch-specific edge -- at 1, 3, 7 (the paper's) and 8 voltage corners
// (every count one 8-corner row holds), for batch sizes 1/63/64/65 and odd
// tails. Every delay-kernel instantiation this CPU
// supports runs the differential and the wide/narrow batch alternation
// (per-lane gate lists must not leak between calls), not only the one
// step_batch picks. A hand-built netlist pins the liveness pruning where
// it bites (an AND-masked subtree, a mux's unselected input, an output net
// that feeds another gate, and a dead chain that settles after every
// output, so a walk that folded dead gates would report it) against step()
// and against hand-counted live (gate, lane) pairs; another pins the three-pin padding of every gate (a
// const gate at an output, one net on all three pins, a primary input
// marked as an output, an output-driving 1-pin gate that feeds a 3-pin
// gate). Plus state continuity across interleaved
// scalar/batched stepping, argument validation (including the 8-corner
// ceiling) and the padded row layout. These differentials build their
// tables with no delay floor (every output deep, every pin on a path to an
// output long), so step_batch must match step() on every vector; the
// *_floor cases hold it to step() with the floor applied per corner to
// the scalar walk. The static timing cone is checked against an
// independent per-corner STA, and hand-built netlists pin a short side
// input that the cone cuts, a through-path exactly at the floor (the
// cone's rounding margin) and a toggled deep chain masked before every
// output. On a netlist whose cone's functional fan-in leaves gates out,
// the scalar state step_batch no longer unpacks (net_values(),
// output_value(), the next step()) and reset() match the scalar walk on
// every net.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "circuit/dynamic_timing.h"
#include "circuit/netlist_builder.h"
#include "circuit/sta.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace {

using namespace synts::circuit;
using synts::util::xoshiro256;

/// Random combinational DAG over ALL combinational cell kinds (the
/// random-netlists suite excludes const cells; the batch path must handle
/// their degenerate toggle behavior, so they are included here).
netlist make_batch_test_netlist(std::size_t inputs, std::size_t gates, xoshiro256& rng)
{
    static constexpr std::array<cell_kind, 17> kinds = {
        cell_kind::const0, cell_kind::const1, cell_kind::buf,   cell_kind::inv,
        cell_kind::and2,   cell_kind::or2,    cell_kind::nand2, cell_kind::nor2,
        cell_kind::xor2,   cell_kind::xnor2,  cell_kind::and3,  cell_kind::or3,
        cell_kind::nand3,  cell_kind::nor3,   cell_kind::aoi21, cell_kind::oai21,
        cell_kind::mux2};

    netlist nl("batch_random");
    std::vector<net_id> nets;
    for (std::size_t i = 0; i < inputs; ++i) {
        nets.push_back(nl.add_input("in" + std::to_string(i)));
    }
    for (std::size_t g = 0; g < gates; ++g) {
        const cell_kind kind = kinds[rng.uniform_below(kinds.size())];
        const std::size_t arity = cell_input_count(kind);
        std::array<net_id, 3> chosen{};
        for (std::size_t p = 0; p < arity; ++p) {
            chosen[p] = nets[rng.uniform_below(nets.size())];
        }
        nets.push_back(nl.add_gate(kind, std::span<const net_id>(chosen.data(), arity)));
    }
    std::size_t outputs = 0;
    for (const net_id net : nets) {
        if (net >= inputs && rng.bernoulli(0.2)) {
            nl.mark_output("out" + std::to_string(outputs++), net);
        }
    }
    nl.mark_output("out_last", nets.back());
    nl.validate();
    return nl;
}

/// Random vector stream for `inputs` primary inputs.
std::vector<std::vector<bool>> make_vectors(std::size_t inputs, std::size_t count,
                                            xoshiro256& rng)
{
    std::vector<std::vector<bool>> vectors(count, std::vector<bool>(inputs, false));
    for (auto& v : vectors) {
        for (std::size_t i = 0; i < inputs; ++i) {
            v[i] = rng.bernoulli(0.5);
        }
    }
    return vectors;
}

/// Packs vectors [first, first + lanes) into one word per input.
std::vector<std::uint64_t> pack_lanes(const std::vector<std::vector<bool>>& vectors,
                                      std::size_t first, std::size_t lanes,
                                      std::size_t inputs)
{
    std::vector<std::uint64_t> words(inputs, 0);
    for (std::size_t j = 0; j < lanes; ++j) {
        for (std::size_t i = 0; i < inputs; ++i) {
            if (vectors[first + j][i]) {
                words[i] |= 1ull << j;
            }
        }
    }
    return words;
}

/// Supply levels for `count` corners: the paper's seven, a subset of them
/// (count < 7), or the seven plus in-range extras (count > 7; the tables
/// reject more than corner_block).
std::vector<double> corner_levels(std::size_t count)
{
    std::vector<double> levels(paper_voltage_levels().begin(), paper_voltage_levels().end());
    for (const double extra : {0.95, 0.75}) {
        if (levels.size() < count) {
            levels.push_back(extra);
        }
    }
    // Subsets keep the fastest and slowest corners.
    while (levels.size() > count) {
        levels.erase(levels.begin() + static_cast<std::ptrdiff_t>(levels.size() / 2));
    }
    return levels;
}

constexpr std::array<std::size_t, 4> corner_counts = {1, 3, 7, 8};

/// A delay floor of 0.0 puts every gate that reaches an output in the cone
/// and clamps nothing: step_batch then matches step() on every vector,
/// which is what the differential tests hold it to. The tests at
/// exact_delay_floor say so by name.
constexpr double no_floor = 0.0;

/// A quarter of t_nom: the floor the hand-built masked netlists' depths are
/// chosen around. Their cases pass it explicitly, so they test the same cut
/// whatever exact_delay_floor is.
constexpr double quarter_floor = 0.25;

/// The delay-kernel instantiations this CPU can run.
std::vector<const detail::delay_kernel*> supported_kernels()
{
    std::vector<const detail::delay_kernel*> kernels;
    for (const detail::delay_kernel& kernel : detail::delay_kernels()) {
        if (kernel.supported) {
            kernels.push_back(&kernel);
        }
    }
    return kernels;
}

struct corner_setup {
    cell_library lib = cell_library::standard_22nm();
    voltage_model vm{0.04};
    std::vector<double> corners;

    explicit corner_setup(std::size_t corner_count = voltage_level_count)
        : corners(corner_levels(corner_count))
    {
    }
};

/// Scalar reference walk over `vectors`: [vector][corner] delays.
std::vector<std::vector<double>> scalar_delays(dynamic_timing_simulator& sim,
                                               const std::vector<std::vector<bool>>& vectors)
{
    const std::size_t inputs = vectors.empty() ? 0 : vectors.front().size();
    std::vector<std::vector<double>> expected;
    std::vector<double> delays(sim.corner_count());
    // std::vector<bool> is packed; copy each vector into a flat bool
    // buffer for the span-of-bool interface.
    const std::unique_ptr<bool[]> raw(new bool[inputs]);
    for (const auto& v : vectors) {
        for (std::size_t i = 0; i < inputs; ++i) {
            raw[i] = v[i];
        }
        sim.step(std::span<const bool>(raw.get(), inputs), delays);
        expected.push_back(delays);
    }
    return expected;
}

/// The delay floor applied to the scalar walk: [vector][corner] delays,
/// per corner c step()'s delay when it is >= tables.delay_floor *
/// t_nom,c and +0.0 otherwise. Adds to `pruned` the vectors that toggle
/// no deep output of `tables` (found by diffing net_values() across the
/// step): step_batch's walk list is empty exactly for them, and their
/// step() delay must lie below the floor at every corner.
std::vector<std::vector<double>> floored_scalar_delays(
    dynamic_timing_simulator& sim, const timing_corner_tables& tables,
    const std::vector<std::vector<bool>>& vectors, std::uint64_t& pruned)
{
    const std::size_t inputs = vectors.empty() ? 0 : vectors.front().size();
    std::vector<std::vector<double>> expected;
    std::vector<double> delays(sim.corner_count());
    const std::unique_ptr<bool[]> raw(new bool[inputs]);
    std::vector<std::uint8_t> before(tables.deep_outputs.size());
    for (const auto& v : vectors) {
        for (std::size_t i = 0; i < inputs; ++i) {
            raw[i] = v[i];
        }
        for (std::size_t d = 0; d < before.size(); ++d) {
            before[d] = sim.net_values()[tables.deep_outputs[d]];
        }
        sim.step(std::span<const bool>(raw.get(), inputs), delays);
        bool deep_toggled = false;
        for (std::size_t d = 0; d < before.size(); ++d) {
            deep_toggled |= sim.net_values()[tables.deep_outputs[d]] != before[d];
        }
        for (std::size_t c = 0; c < delays.size(); ++c) {
            const double floor_ps = tables.delay_floor * tables.nominal_period_ps[c];
            if (!deep_toggled) {
                EXPECT_LT(delays[c], floor_ps)
                    << "a vector that toggles no deep output reaches the floor at corner " << c;
            }
            if (delays[c] < floor_ps) {
                delays[c] = 0.0;
            }
        }
        pruned += deep_toggled ? 0 : 1;
        expected.push_back(delays);
    }
    return expected;
}

/// Runs the full vector stream through a scalar sim and a batched sim
/// (chunks of `chunk_lanes`, delays through `kernel`, tables at
/// `delay_floor`) and asserts every per-corner delay and the final net
/// state are EXACTLY equal -- to step()'s at no_floor, and to
/// floored_scalar_delays above it, whose pruned-vector count must equal
/// what circuit.pruned_lanes counted (the lanes whose walk list is empty).
void expect_batch_matches_scalar(const netlist& nl, const corner_setup& setup,
                                 const std::vector<std::vector<bool>>& vectors,
                                 std::size_t chunk_lanes, const detail::delay_kernel& kernel,
                                 double delay_floor = no_floor)
{
    const auto tables = make_corner_tables(nl, setup.lib, setup.vm, setup.corners, delay_floor);
    const std::size_t corner_count = tables->corner_count();
    const std::size_t inputs = nl.input_count();
    const synts::obs::counter& pruned_lanes =
        synts::obs::metrics_registry::global().counter_at("circuit.pruned_lanes");
    const std::uint64_t pruned_before = pruned_lanes.value();

    dynamic_timing_simulator scalar_sim(nl, tables);
    dynamic_timing_simulator batch_sim(nl, tables);
    std::uint64_t pruned = 0;
    const auto expected = delay_floor == no_floor
                              ? scalar_delays(scalar_sim, vectors)
                              : floored_scalar_delays(scalar_sim, *tables, vectors, pruned);

    // Batched walk in chunks of chunk_lanes (with an odd tail when
    // vectors.size() is not a multiple).
    std::vector<double> batch_delays(corner_count * chunk_lanes);
    std::size_t offset = 0;
    while (offset < vectors.size()) {
        const std::size_t lanes = std::min(chunk_lanes, vectors.size() - offset);
        const auto words = pack_lanes(vectors, offset, lanes, inputs);
        detail::step_batch_with(kernel, batch_sim, words, lanes,
                                std::span<double>(batch_delays.data(), corner_count * lanes));
        for (std::size_t j = 0; j < lanes; ++j) {
            for (std::size_t c = 0; c < corner_count; ++c) {
                // EXPECT_EQ on doubles: bit-identity, not approximate.
                ASSERT_EQ(batch_delays[c * lanes + j], expected[offset + j][c])
                    << "vector " << offset + j << " corner " << c << " of "
                    << corner_count << " chunk " << chunk_lanes << " kernel "
                    << kernel.name;
            }
        }
        offset += lanes;
    }

    // Final carried state must agree net-for-net.
    const auto scalar_values = scalar_sim.net_values();
    const auto batch_values = batch_sim.net_values();
    ASSERT_EQ(scalar_values.size(), batch_values.size());
    for (std::size_t n = 0; n < scalar_values.size(); ++n) {
        ASSERT_EQ(batch_values[n], scalar_values[n]) << "net " << n;
    }
    for (std::size_t o = 0; o < nl.output_count(); ++o) {
        ASSERT_EQ(batch_sim.output_value(o), scalar_sim.output_value(o));
    }
    if (delay_floor != no_floor) {
        EXPECT_EQ(pruned_lanes.value() - pruned_before, pruned);
    }
}

class dynamic_timing_batch : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(dynamic_timing_batch, matches_scalar_across_batch_sizes)
{
    xoshiro256 rng(GetParam());
    const std::size_t inputs = 4 + rng.uniform_below(12);
    const std::size_t gates = 20 + rng.uniform_below(200);
    const netlist nl = make_batch_test_netlist(inputs, gates, rng);

    // 150 vectors: chunk 64 leaves a 22-lane odd tail; 63 leaves 24; the
    // explicit sizes cover the word edges (1, 63, 64) and a 65-vector
    // stream split 64 + 1.
    const auto vectors = make_vectors(inputs, 150, rng);
    const auto sixty_five = make_vectors(inputs, 65, rng);
    const auto single = make_vectors(inputs, 1, rng);
    for (const detail::delay_kernel* kernel : supported_kernels()) {
        for (const std::size_t corners : corner_counts) {
            SCOPED_TRACE(std::string("kernel ") + kernel->name + " corners " +
                         std::to_string(corners));
            const corner_setup setup(corners);
            for (const std::size_t chunk : {std::size_t{1}, std::size_t{7}, std::size_t{63},
                                            std::size_t{64}}) {
                expect_batch_matches_scalar(nl, setup, vectors, chunk, *kernel);
            }
            expect_batch_matches_scalar(nl, setup, sixty_five, 64, *kernel);
            expect_batch_matches_scalar(nl, setup, single, 64, *kernel);
        }
    }
}

TEST_P(dynamic_timing_batch, wide_and_narrow_batches_alternate_on_one_simulator)
{
    // A 64-lane call fills every lane's gate list; the 5-lane call after it
    // must see only its own five. Alternating them on one simulator and
    // comparing every delay with the scalar walk shows no list state from a
    // wide batch leaks into a narrower one.
    xoshiro256 rng(GetParam() ^ 0xA17E);
    const std::size_t inputs = 6 + rng.uniform_below(10);
    const netlist nl = make_batch_test_netlist(inputs, 150, rng);
    const auto vectors = make_vectors(inputs, 4 * (64 + 5), rng);
    for (const detail::delay_kernel* kernel : supported_kernels()) {
        for (const std::size_t corners : {std::size_t{7}, std::size_t{8}}) {
            SCOPED_TRACE(std::string("kernel ") + kernel->name + " corners " +
                         std::to_string(corners));
            const corner_setup setup(corners);
            const auto tables = make_corner_tables(nl, setup.lib, setup.vm, setup.corners, no_floor);
            dynamic_timing_simulator ref(nl, tables);
            const auto expected = scalar_delays(ref, vectors);

            dynamic_timing_simulator sim(nl, tables);
            std::vector<double> batch_delays(corners * 64);
            std::size_t offset = 0;
            for (bool wide = true; offset < vectors.size(); wide = !wide) {
                const std::size_t lanes = wide ? 64 : 5;
                const auto words = pack_lanes(vectors, offset, lanes, inputs);
                detail::step_batch_with(*kernel, sim, words, lanes,
                                        std::span<double>(batch_delays.data(), corners * lanes));
                for (std::size_t j = 0; j < lanes; ++j) {
                    for (std::size_t c = 0; c < corners; ++c) {
                        ASSERT_EQ(batch_delays[c * lanes + j], expected[offset + j][c])
                            << "vector " << offset + j << " corner " << c << " lanes "
                            << lanes;
                    }
                }
                offset += lanes;
            }
            const auto a = ref.net_values();
            const auto b = sim.net_values();
            for (std::size_t n = 0; n < a.size(); ++n) {
                ASSERT_EQ(b[n], a[n]) << "net " << n;
            }
        }
    }
}

TEST_P(dynamic_timing_batch, interleaved_scalar_and_batched_stepping_agree)
{
    xoshiro256 rng(GetParam() ^ 0xBEEF);
    const corner_setup setup;
    const std::size_t inputs = 5 + rng.uniform_below(8);
    const netlist nl = make_batch_test_netlist(inputs, 120, rng);
    const auto tables = make_corner_tables(nl, setup.lib, setup.vm, setup.corners, no_floor);
    const std::size_t corner_count = tables->corner_count();

    const auto vectors = make_vectors(inputs, 100, rng);

    // Reference: all-scalar walk.
    dynamic_timing_simulator ref(nl, tables);
    const auto expected = scalar_delays(ref, vectors);

    // Mixed walk: random alternation of scalar steps and batches.
    dynamic_timing_simulator mixed(nl, tables);
    std::vector<double> delays(corner_count);
    std::unique_ptr<bool[]> raw(new bool[inputs]);
    std::vector<double> batch_delays(corner_count * 64);
    std::size_t offset = 0;
    while (offset < vectors.size()) {
        if (rng.bernoulli(0.5)) {
            for (std::size_t i = 0; i < inputs; ++i) {
                raw[i] = vectors[offset][i];
            }
            mixed.step(std::span<const bool>(raw.get(), inputs), delays);
            for (std::size_t c = 0; c < corner_count; ++c) {
                ASSERT_EQ(delays[c], expected[offset][c]);
            }
            ++offset;
        } else {
            const std::size_t lanes =
                std::min<std::size_t>(1 + rng.uniform_below(64), vectors.size() - offset);
            const auto words = pack_lanes(vectors, offset, lanes, inputs);
            mixed.step_batch(words, lanes,
                             std::span<double>(batch_delays.data(),
                                               corner_count * lanes));
            for (std::size_t j = 0; j < lanes; ++j) {
                for (std::size_t c = 0; c < corner_count; ++c) {
                    ASSERT_EQ(batch_delays[c * lanes + j], expected[offset + j][c]);
                }
            }
            offset += lanes;
        }
    }

    const auto a = ref.net_values();
    const auto b = mixed.net_values();
    for (std::size_t n = 0; n < a.size(); ++n) {
        ASSERT_EQ(b[n], a[n]);
    }
}

TEST_P(dynamic_timing_batch, reset_restores_the_baseline_for_both_paths)
{
    xoshiro256 rng(GetParam() ^ 0x5150);
    const corner_setup setup;
    const std::size_t inputs = 6;
    const netlist nl = make_batch_test_netlist(inputs, 60, rng);
    const auto tables = make_corner_tables(nl, setup.lib, setup.vm, setup.corners, no_floor);
    const std::size_t corner_count = tables->corner_count();
    const auto vectors = make_vectors(inputs, 40, rng);

    dynamic_timing_simulator sim(nl, tables);

    // First pass batched, reset, second pass scalar: the scalar pass must
    // reproduce a fresh simulator's delays exactly (reset() leaves the
    // settle-time scratch dirty on purpose; stale entries must be
    // unreachable).
    std::vector<double> batch_delays(corner_count * 64);
    std::size_t offset = 0;
    while (offset < vectors.size()) {
        const std::size_t lanes = std::min<std::size_t>(64, vectors.size() - offset);
        const auto words = pack_lanes(vectors, offset, lanes, inputs);
        sim.step_batch(words, lanes,
                       std::span<double>(batch_delays.data(), corner_count * lanes));
        offset += lanes;
    }
    sim.reset();

    dynamic_timing_simulator fresh(nl, tables);
    std::vector<double> a(corner_count);
    std::vector<double> b(corner_count);
    std::unique_ptr<bool[]> raw(new bool[inputs]);
    for (const auto& v : vectors) {
        for (std::size_t i = 0; i < inputs; ++i) {
            raw[i] = v[i];
        }
        sim.step(std::span<const bool>(raw.get(), inputs), a);
        fresh.step(std::span<const bool>(raw.get(), inputs), b);
        for (std::size_t c = 0; c < corner_count; ++c) {
            ASSERT_EQ(a[c], b[c]);
        }
    }
}

TEST_P(dynamic_timing_batch, matches_floored_scalar_at_the_default_floor)
{
    // The production floor: per corner, every delay at or above
    // exact_delay_floor * t_nom is step()'s bit for bit and every other one
    // +0.0; a lane is pruned exactly when its vector toggles no deep output.
    // Across word edges, odd tails and every kernel.
    xoshiro256 rng(GetParam() ^ 0xF100);
    const std::size_t inputs = 4 + rng.uniform_below(12);
    const netlist nl = make_batch_test_netlist(inputs, 20 + rng.uniform_below(200), rng);
    const auto vectors = make_vectors(inputs, 150, rng);
    for (const detail::delay_kernel* kernel : supported_kernels()) {
        for (const std::size_t corners : corner_counts) {
            SCOPED_TRACE(std::string("kernel ") + kernel->name + " corners " +
                         std::to_string(corners));
            const corner_setup setup(corners);
            for (const std::size_t chunk : {std::size_t{1}, std::size_t{7}, std::size_t{64}}) {
                expect_batch_matches_scalar(nl, setup, vectors, chunk, *kernel,
                                            exact_delay_floor);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(seeds, dynamic_timing_batch,
                         ::testing::Values(101ull, 202ull, 303ull, 404ull, 505ull));

/// A netlist whose toggles are mostly invisible to the outputs, with inputs
/// a, b, c, d, z, s (z and s held at 0 by the tests' vectors):
///
///   x1 = xor2(a, b); x2 = inv(x1); masked = and2(x2, z)   -- out "masked"
///   y1 = buf(x2); ...; y6 = buf(y5); deep = and2(y6, z)    -- out "deep"
///   p = buf(c); q = inv(d); m = mux2(p, q, s)              -- out "mux"
///   o1 = xor2(a, c)                                        -- out "o1"
///   o2 = and2(o1, b)                                       -- out "o2"
///
/// The x1/x2 subtree toggles under an AND whose side input is 0, and so
/// does the y chain hanging off x2, which settles after every output that
/// can toggle (dead_chain_floor): folding a dead gate into a lane's delay
/// would show. The mux's unselected input q toggles, and o1 is a primary
/// output that also feeds o2.
netlist make_masked_netlist()
{
    netlist nl("masked");
    const net_id a = nl.add_input("a");
    const net_id b = nl.add_input("b");
    const net_id c = nl.add_input("c");
    const net_id d = nl.add_input("d");
    const net_id z = nl.add_input("z");
    const net_id s = nl.add_input("s");
    const net_id x1 = nl.add_gate2(cell_kind::xor2, a, b);
    const net_id x2 = nl.add_gate1(cell_kind::inv, x1);
    nl.mark_output("masked", nl.add_gate2(cell_kind::and2, x2, z));
    net_id y = x2;
    for (int i = 0; i < 6; ++i) {
        y = nl.add_gate1(cell_kind::buf, y);
    }
    nl.mark_output("deep", nl.add_gate2(cell_kind::and2, y, z));
    const net_id p = nl.add_gate1(cell_kind::buf, c);
    const net_id q = nl.add_gate1(cell_kind::inv, d);
    nl.mark_output("mux", nl.add_gate3(cell_kind::mux2, p, q, s));
    const net_id o1 = nl.add_gate2(cell_kind::xor2, a, c);
    nl.mark_output("o1", o1);
    nl.mark_output("o2", nl.add_gate2(cell_kind::and2, o1, b));
    nl.validate();
    return nl;
}

/// A floor on the masked netlist's y6 settle time at corner `c` whenever
/// x2 toggles: the delays of x2 and y1 .. y6 (x1 may hold).
double dead_chain_floor(const netlist& nl, const timing_corner_tables& tables, std::size_t c)
{
    const auto gates = nl.gates();
    net_id net = gates[nl.driver_of(nl.output_net(1))].inputs[0]; // y6, into "deep"
    double floor = 0.0;
    for (;;) {
        const gate_id g = nl.driver_of(net);
        floor += tables.gate_delays(g)[c];
        if (gates[g].kind == cell_kind::inv) {
            return floor;
        }
        net = gates[g].inputs[0];
    }
}

/// Vectors over (a, b, c, d) with z = s = 0.
std::vector<std::vector<bool>> masked_vectors(
    std::initializer_list<std::array<bool, 4>> abcd)
{
    std::vector<std::vector<bool>> vectors;
    for (const auto& v : abcd) {
        vectors.push_back({v[0], v[1], v[2], v[3], false, false});
    }
    return vectors;
}

TEST(dynamic_timing_batch, masked_netlist_matches_scalar_and_counts_live_pairs)
{
    // From the all-zero reset state (gate by gate: toggled, then live; the
    // six y bufs toggle with x2 and are dead with it, since deep holds 0):
    //   v0 1111: x2 y* p m toggle; m is an output, p feeds it;
    //            x2 is dead (masked holds 0)           toggled 9, live 2
    //   v1 0100: x1 x2 y* p q m; m, p and q (a mux pin)  toggled 11, live 3
    //   v2 1111: as v1                                 toggled 11, live 3
    //   v3 0010: q o1; m holds, so q is dead           toggled 2, live 1
    //   v4 0110: x1 x2 y* o2; only o2 is live          toggled 9, live 1
    //   v5 1111: x1 x2 y* q o1 o2; o1 and o2 are live  toggled 11, live 2
    const auto vectors = masked_vectors({{true, true, true, true},
                                         {false, true, false, false},
                                         {true, true, true, true},
                                         {false, false, true, false},
                                         {false, true, true, false},
                                         {true, true, true, true}});
    constexpr std::uint64_t toggled_pairs = 53;
    constexpr std::uint64_t live_pairs = 12;

    const netlist nl = make_masked_netlist();
    // The dead chain must settle after every vector's sensitized delay, or
    // a walk that folded it in would still pass.
    for (const std::size_t corners : {std::size_t{7}, std::size_t{8}}) {
        const corner_setup setup(corners);
        const auto tables = make_corner_tables(nl, setup.lib, setup.vm, setup.corners, no_floor);
        dynamic_timing_simulator sim(nl, tables);
        for (const auto& delays : scalar_delays(sim, vectors)) {
            for (std::size_t c = 0; c < corners; ++c) {
                ASSERT_LT(delays[c], dead_chain_floor(nl, *tables, c)) << "corner " << c;
            }
        }
    }
    auto& registry = synts::obs::metrics_registry::global();
    const synts::obs::counter& toggled = registry.counter_at("circuit.toggled_pairs");
    const synts::obs::counter& live = registry.counter_at("circuit.live_pairs");
    for (const detail::delay_kernel* kernel : supported_kernels()) {
        for (const std::size_t corners : {std::size_t{7}, std::size_t{8}}) {
            SCOPED_TRACE(std::string("kernel ") + kernel->name + " corners " +
                         std::to_string(corners));
            const corner_setup setup(corners);
            // One lane per call, then all six in one call: liveness is per
            // lane, so both count the same pairs.
            for (const std::size_t chunk : {std::size_t{1}, std::size_t{6}}) {
                const std::uint64_t toggled_before = toggled.value();
                const std::uint64_t live_before = live.value();
                expect_batch_matches_scalar(nl, setup, vectors, chunk, *kernel);
                EXPECT_EQ(toggled.value() - toggled_before, toggled_pairs) << chunk;
                EXPECT_EQ(live.value() - live_before, live_pairs) << chunk;
            }
        }
    }
}

TEST(dynamic_timing_batch, masked_netlist_matches_scalar_on_random_streams)
{
    // Random a..d under the same masks, across word edges and odd tails.
    xoshiro256 rng(97);
    std::vector<std::vector<bool>> vectors = make_vectors(6, 200, rng);
    for (auto& v : vectors) {
        v[4] = false; // z
        v[5] = false; // s
    }
    const netlist nl = make_masked_netlist();
    for (const detail::delay_kernel* kernel : supported_kernels()) {
        for (const std::size_t corners : {std::size_t{7}, std::size_t{8}}) {
            SCOPED_TRACE(std::string("kernel ") + kernel->name + " corners " +
                         std::to_string(corners));
            const corner_setup setup(corners);
            for (const std::size_t chunk : {std::size_t{7}, std::size_t{63}, std::size_t{64}}) {
                expect_batch_matches_scalar(nl, setup, vectors, chunk, *kernel);
            }
        }
    }
}

TEST(dynamic_timing_batch, masked_netlist_prunes_shallow_vectors_at_a_quarter_floor)
{
    // The masked netlist's t_nom is its deep chain (x1 x2 y1..y6 and2), so
    // at quarter_floor the one-gate output o1 is not deep: a vector
    // that toggles no deep output (only o1 or the masked chains, say) is
    // pruned. The random streams of
    // masked_netlist_matches_scalar_on_random_streams prune some vectors
    // and keep others.
    xoshiro256 rng(97);
    std::vector<std::vector<bool>> vectors = make_vectors(6, 200, rng);
    for (auto& v : vectors) {
        v[4] = false; // z
        v[5] = false; // s
    }
    const netlist nl = make_masked_netlist();
    const synts::obs::counter& pruned =
        synts::obs::metrics_registry::global().counter_at("circuit.pruned_lanes");
    for (const detail::delay_kernel* kernel : supported_kernels()) {
        SCOPED_TRACE(std::string("kernel ") + kernel->name);
        const corner_setup setup(7);
        for (const std::size_t chunk : {std::size_t{7}, std::size_t{64}}) {
            const std::uint64_t before = pruned.value();
            expect_batch_matches_scalar(nl, setup, vectors, chunk, *kernel, quarter_floor);
            EXPECT_GT(pruned.value() - before, 0u) << chunk;
            EXPECT_LT(pruned.value() - before, vectors.size()) << chunk;
        }
    }
}

/// The static timing cone of `floor` from independent per-corner STA runs:
/// each gate's longest path to an output by memoized recursion over its
/// readers, long pins by the definition (with the tables' 1e-9 margin), and
/// the cone by a depth-first search from the deep outputs.
struct reference_cone {
    std::vector<net_id> deep_outputs;
    std::vector<detail::gate_pins> pins;
    std::vector<gate_id> gates;
};

reference_cone make_reference_cone(const netlist& nl, const corner_setup& setup, double floor)
{
    const auto gates = nl.gates();
    const static_timing_analyzer sta(nl);
    const std::vector<double> nominal = sta.nominal_gate_delays(setup.lib);
    std::vector<std::vector<gate_id>> readers(nl.net_count());
    for (std::size_t g = 0; g < gates.size(); ++g) {
        for (std::size_t i = 0; i < gates[g].input_count; ++i) {
            readers[gates[g].inputs[i]].push_back(static_cast<gate_id>(g));
        }
    }
    std::vector<bool> is_output(nl.net_count(), false);
    for (const net_id out : nl.output_nets()) {
        is_output[out] = true;
    }
    std::vector<bool> deep(nl.net_count(), false);
    std::vector<std::array<bool, 3>> long_pin(gates.size(), {false, false, false});
    std::vector<double> delays(gates.size());
    for (std::size_t c = 0; c < setup.corners.size(); ++c) {
        setup.vm.scale_gate_delays(gates, nominal, delays, setup.corners[c]);
        const timing_report report = sta.analyze(delays);
        const double threshold = floor * report.critical_delay_ps * (1.0 - 1e-9);
        std::vector<double> memo(nl.net_count(), std::numeric_limits<double>::quiet_NaN());
        const auto longest = [&](auto&& self, net_id n) -> double {
            if (!std::isnan(memo[n])) {
                return memo[n];
            }
            double best = is_output[n] ? 0.0 : -std::numeric_limits<double>::infinity();
            for (const gate_id r : readers[n]) {
                best = std::max(best, delays[r] + self(self, gates[r].output));
            }
            return memo[n] = best;
        };
        for (const net_id out : nl.output_nets()) {
            deep[out] = deep[out] || report.arrival_ps[out] >= threshold;
        }
        for (std::size_t g = 0; g < gates.size(); ++g) {
            const double through = delays[g] + longest(longest, gates[g].output);
            for (std::size_t i = 0; i < gates[g].input_count; ++i) {
                long_pin[g][i] =
                    long_pin[g][i] || report.arrival_ps[gates[g].inputs[i]] + through >= threshold;
            }
        }
    }
    reference_cone cone;
    std::vector<bool> in_cone(gates.size(), false);
    std::vector<gate_id> stack;
    for (const net_id out : nl.output_nets()) {
        if (deep[out] && out >= nl.input_count() && !in_cone[nl.driver_of(out)]) {
            cone.deep_outputs.push_back(out);
            in_cone[nl.driver_of(out)] = true;
            stack.push_back(nl.driver_of(out));
        }
    }
    while (!stack.empty()) {
        const gate_id g = stack.back();
        stack.pop_back();
        for (std::size_t i = 0; i < gates[g].input_count; ++i) {
            const net_id in = gates[g].inputs[i];
            if (long_pin[g][i] && in >= nl.input_count() && !in_cone[nl.driver_of(in)]) {
                in_cone[nl.driver_of(in)] = true;
                stack.push_back(nl.driver_of(in));
            }
        }
    }
    const auto pad = static_cast<net_id>(nl.net_count());
    for (std::size_t g = 0; g < gates.size(); ++g) {
        if (in_cone[g]) {
            detail::gate_pins p{{pad, pad, pad}, gates[g].output};
            for (std::size_t i = 0; i < gates[g].input_count; ++i) {
                p.in[i] = long_pin[g][i] ? gates[g].inputs[i] : pad;
            }
            cone.pins.push_back(p);
            cone.gates.push_back(static_cast<gate_id>(g));
        }
    }
    return cone;
}

/// The tables' cone equals the reference cone, record for record, and its
/// delay rows are the cone gates' rows.
void expect_cone_matches_reference(const netlist& nl, const corner_setup& setup, double floor)
{
    const auto tables = make_corner_tables(nl, setup.lib, setup.vm, setup.corners, floor);
    const reference_cone expected = make_reference_cone(nl, setup, floor);
    EXPECT_EQ(tables->delay_floor, floor);
    EXPECT_EQ(tables->deep_outputs, expected.deep_outputs) << floor;
    ASSERT_EQ(tables->cone_pins.size(), expected.pins.size()) << floor;
    ASSERT_EQ(tables->cone_delay_ps.size(), expected.pins.size() * corner_block) << floor;
    for (std::size_t k = 0; k < expected.pins.size(); ++k) {
        EXPECT_EQ(tables->cone_pins[k].in, expected.pins[k].in) << "cone gate " << k;
        EXPECT_EQ(tables->cone_pins[k].out, expected.pins[k].out) << "cone gate " << k;
        for (std::size_t c = 0; c < corner_block; ++c) {
            EXPECT_EQ(tables->cone_delay_ps[k * corner_block + c],
                      tables->gate_delay_ps[expected.gates[k] * corner_block + c])
                << "cone gate " << k << " corner " << c;
        }
    }
}

TEST(dynamic_timing_batch, corner_tables_mark_deep_gates_against_the_floor)
{
    // The deep outputs and the cone's pin records are exactly what
    // independent per-corner STA runs give at each floor; a higher floor
    // never widens the cone, and a quarter floor already cuts part of it.
    constexpr std::array<double, 5> ascending_floors = {no_floor, quarter_floor, 0.6,
                                                        exact_delay_floor, 1.0};
    static_assert(0.6 < exact_delay_floor && exact_delay_floor < 1.0);
    xoshiro256 rng(17);
    const corner_setup setup;
    const netlist nl = make_batch_test_netlist(6, 120, rng);
    std::vector<std::size_t> cone_sizes;
    for (const double floor : ascending_floors) {
        expect_cone_matches_reference(nl, setup, floor);
        cone_sizes.push_back(
            make_corner_tables(nl, setup.lib, setup.vm, setup.corners, floor)->cone_pins.size());
        EXPECT_GT(cone_sizes.back(), 0u) << floor;
    }
    EXPECT_LT(cone_sizes[1], cone_sizes[0]);
    for (std::size_t k = 1; k < cone_sizes.size(); ++k) {
        EXPECT_LE(cone_sizes[k], cone_sizes[k - 1]) << ascending_floors[k];
    }
    for (const std::uint64_t seed : {101ull, 202ull, 303ull}) {
        xoshiro256 more(seed);
        const netlist random = make_batch_test_netlist(8, 150, more);
        for (const double floor : ascending_floors) {
            expect_cone_matches_reference(random, setup, floor);
        }
    }
}

TEST(dynamic_timing_batch, cone_at_floor_zero_holds_every_gate_that_reaches_an_output)
{
    // At floor 0.0 every output is deep and every pin on a path to an
    // output is long, so the cone is exactly the gates that reach an
    // output, each with its own pins, and step_batch matches step() (the
    // live-pair pins of the masked and padding netlists do not move).
    for (const std::uint64_t seed : {101ull, 202ull, 303ull, 404ull}) {
        xoshiro256 rng(seed);
        const netlist nl = make_batch_test_netlist(6, 120, rng);
        const auto gates = nl.gates();
        std::vector<bool> reaches(nl.net_count(), false);
        for (const net_id out : nl.output_nets()) {
            reaches[out] = true;
        }
        for (std::size_t g = gates.size(); g-- > 0;) {
            for (std::size_t i = 0; reaches[gates[g].output] && i < gates[g].input_count; ++i) {
                reaches[gates[g].inputs[i]] = true;
            }
        }
        const corner_setup setup;
        const auto tables = make_corner_tables(nl, setup.lib, setup.vm, setup.corners, no_floor);
        const auto pad = static_cast<net_id>(nl.net_count());
        std::size_t k = 0;
        for (std::size_t g = 0; g < gates.size(); ++g) {
            if (!reaches[gates[g].output]) {
                continue;
            }
            ASSERT_LT(k, tables->cone_pins.size()) << seed;
            for (std::size_t i = 0; i < 3; ++i) {
                EXPECT_EQ(tables->cone_pins[k].in[i],
                          i < gates[g].input_count ? gates[g].inputs[i] : pad)
                    << "gate " << g << " pin " << i;
            }
            EXPECT_EQ(tables->cone_pins[k].out, gates[g].output);
            ++k;
        }
        EXPECT_EQ(k, tables->cone_pins.size()) << seed;
        EXPECT_LT(k, gates.size()) << "seed " << seed << " has no gate off every output path";
    }
}

/// `length` bufs in a chain from `from`; returns the last net.
net_id add_buf_chain(netlist& nl, net_id from, std::size_t length)
{
    for (std::size_t i = 0; i < length; ++i) {
        from = nl.add_gate1(cell_kind::buf, from);
    }
    return from;
}

/// A shallow side input joining a long chain, with inputs a and b:
///
///   y12 = buf^12(a); s = inv(b); o = and2(y12, s)   -- out "o"
///
/// o is the critical path; s reaches it in two gates, far below
/// exact_delay_floor * t_nom, so the and2's pin from s is short and s
/// leaves the cone.
netlist make_side_input_netlist()
{
    netlist nl("side_input");
    const net_id a = nl.add_input("a");
    const net_id b = nl.add_input("b");
    const net_id y = add_buf_chain(nl, a, 12);
    const net_id s = nl.add_gate1(cell_kind::inv, b);
    nl.mark_output("o", nl.add_gate2(cell_kind::and2, y, s));
    nl.validate();
    return nl;
}

TEST(dynamic_timing_batch, short_side_input_is_cut_at_the_default_floor)
{
    const netlist nl = make_side_input_netlist();
    const auto gates = nl.gates();
    const net_id o = nl.output_net(0);
    const net_id s = gates[nl.driver_of(o)].inputs[1];
    const auto pad = static_cast<net_id>(nl.net_count());
    xoshiro256 rng(41);
    const auto vectors = make_vectors(nl.input_count(), 200, rng);
    for (const std::size_t corners : corner_counts) {
        const corner_setup setup(corners);
        const auto tables =
            make_corner_tables(nl, setup.lib, setup.vm, setup.corners, exact_delay_floor);
        // The twelve bufs and the and2, whose pin from s points at the pad.
        ASSERT_EQ(tables->cone_pins.size(), 13u) << corners;
        const detail::gate_pins& last = tables->cone_pins.back();
        EXPECT_EQ(last.out, o);
        EXPECT_EQ(last.in[0], gates[nl.driver_of(o)].inputs[0]);
        EXPECT_EQ(last.in[1], pad);
        EXPECT_EQ(last.in[2], pad);
        for (const detail::gate_pins& p : tables->cone_pins) {
            EXPECT_NE(p.out, s);
        }
        // At floor 0.0 the pin is long again.
        const auto full = make_corner_tables(nl, setup.lib, setup.vm, setup.corners, no_floor);
        ASSERT_EQ(full->cone_pins.size(), 14u);
        EXPECT_EQ(full->cone_pins.back().in[1], s);
        for (const detail::delay_kernel* kernel : supported_kernels()) {
            SCOPED_TRACE(std::string("kernel ") + kernel->name + " corners " +
                         std::to_string(corners));
            for (const std::size_t chunk : {std::size_t{1}, std::size_t{7}, std::size_t{64}}) {
                expect_batch_matches_scalar(nl, setup, vectors, chunk, *kernel,
                                            exact_delay_floor);
            }
        }
    }
}

/// One input a through `kinds.size()` one-pin gates to the output "o".
netlist make_chain_netlist(std::span<const cell_kind> kinds)
{
    netlist nl("chain");
    net_id net = nl.add_input("a");
    for (const cell_kind kind : kinds) {
        net = nl.add_gate1(kind, net);
    }
    nl.mark_output("o", net);
    nl.validate();
    return nl;
}

TEST(dynamic_timing_batch, through_path_exactly_at_the_floor_stays_long)
{
    // At floor 1.0 every pin of a single chain lands exactly on t_nom in
    // exact arithmetic. In floating point the static through-path of pin k
    // sums arrival(k) (left fold) + the rest of the chain (right fold),
    // which can round one ulp below t_nom, the left fold step() computes.
    // Find a chain and a corner where it does: without the cone's margin
    // that pin would be cut, the walk would come out below t_nom and the
    // delay would be clamped to +0.0 instead of t_nom. One corner, since a
    // pin is long if it is long at any corner.
    const corner_setup setup(1);
    std::vector<cell_kind> kinds;
    bool rounds_below = false;
    for (std::size_t n = 2; n <= 64 && !rounds_below; ++n) {
        kinds.push_back(n % 3 == 0 ? cell_kind::inv : cell_kind::buf);
        const netlist nl = make_chain_netlist(kinds);
        const auto tables = make_corner_tables(nl, setup.lib, setup.vm, setup.corners, 1.0);
        double arrival = 0.0;
        for (std::size_t k = 0; k < kinds.size(); ++k) {
            double tail = 0.0;
            for (std::size_t j = kinds.size(); j-- > k;) {
                tail = tables->gate_delays(static_cast<gate_id>(j))[0] + tail;
            }
            rounds_below |= arrival + tail < tables->nominal_period_ps[0];
            arrival = arrival + tables->gate_delays(static_cast<gate_id>(k))[0];
        }
    }
    ASSERT_TRUE(rounds_below) << "no chain rounds a through-path below t_nom";

    const netlist nl = make_chain_netlist(kinds);
    const auto tables = make_corner_tables(nl, setup.lib, setup.vm, setup.corners, 1.0);
    ASSERT_EQ(tables->cone_pins.size(), kinds.size());
    for (std::size_t k = 0; k < kinds.size(); ++k) {
        EXPECT_EQ(tables->cone_pins[k].in[0], nl.gates()[k].inputs[0]) << "gate " << k;
    }
    // After the first vector settles the chain from the all-zero baseline,
    // every toggle of a runs the whole chain: a delay of exactly t_nom.
    const std::vector<std::vector<bool>> vectors = {{false}, {true}, {true}, {false}};
    for (const detail::delay_kernel* kernel : supported_kernels()) {
        SCOPED_TRACE(std::string("kernel ") + kernel->name);
        expect_batch_matches_scalar(nl, setup, vectors, 4, *kernel, 1.0);
        dynamic_timing_simulator sim(nl, tables);
        std::vector<double> delays(tables->corner_count() * vectors.size());
        detail::step_batch_with(*kernel, sim, pack_lanes(vectors, 0, 4, 1), 4, delays);
        for (std::size_t c = 0; c < tables->corner_count(); ++c) {
            EXPECT_EQ(delays[c * 4 + 1], tables->nominal_period_ps[c]) << c;
            EXPECT_EQ(delays[c * 4 + 2], 0.0) << c;
            EXPECT_EQ(delays[c * 4 + 3], tables->nominal_period_ps[c]) << c;
        }
    }
}

/// A deep chain masked before its output, next to a shorter deep output,
/// with inputs a, b, z (z held at 0 by the test's vectors):
///
///   y12 = buf^12(a); masked = and2(y12, z)   -- out "masked"
///   w6 = inv^6(b)                            -- out "side"
///
/// The y chain is in the cone (masked reaches t_nom) and toggles with a,
/// but the and2 holds 0, so no output sees it; it settles after side.
netlist make_masked_deep_netlist()
{
    netlist nl("masked_deep");
    const net_id a = nl.add_input("a");
    const net_id b = nl.add_input("b");
    const net_id z = nl.add_input("z");
    nl.mark_output("masked", nl.add_gate2(cell_kind::and2, add_buf_chain(nl, a, 12), z));
    net_id w = b;
    for (int i = 0; i < 6; ++i) {
        w = nl.add_gate1(cell_kind::inv, w);
    }
    nl.mark_output("side", w);
    nl.validate();
    return nl;
}

TEST(dynamic_timing_batch, masked_deep_gate_does_not_leak_into_the_lane_delay)
{
    // From the all-zero reset state, with z = 0:
    //   v0 a=1 b=0: the y chain and w1, w3, w5 toggle;
    //               masked and side hold                 toggled 15, live 0
    //   v1 a=0 b=1: the y chain and w1..w6 toggle       toggled 18, live 6
    //   v2 a=1 b=1: the y chain                          toggled 12, live 0
    //   v3 a=0 b=0: the y chain and w1..w6               toggled 18, live 6
    // v0 and v2 are pruned lanes; v1 and v3 record side's settle time
    // exactly, not the later y12.
    const std::vector<std::vector<bool>> vectors = {
        {true, false, false}, {false, true, false}, {true, true, false}, {false, false, false}};
    const netlist nl = make_masked_deep_netlist();
    const net_id y12 = nl.gates()[nl.driver_of(nl.output_net(0))].inputs[0];
    auto& registry = synts::obs::metrics_registry::global();
    const synts::obs::counter& toggled = registry.counter_at("circuit.toggled_pairs");
    const synts::obs::counter& live = registry.counter_at("circuit.live_pairs");
    const synts::obs::counter& pruned = registry.counter_at("circuit.pruned_lanes");
    for (const std::size_t corners : {std::size_t{7}, std::size_t{8}}) {
        const corner_setup setup(corners);
        const auto tables =
            make_corner_tables(nl, setup.lib, setup.vm, setup.corners, quarter_floor);
        ASSERT_EQ(tables->deep_outputs.size(), 2u);
        ASSERT_EQ(tables->cone_pins.size(), nl.gates().size());
        // The y chain settles after side, so a leak would show.
        dynamic_timing_simulator sim(nl, tables);
        const auto expected = scalar_delays(sim, vectors);
        double y12_ps = 0.0;
        for (std::size_t c = 0; c < corners; ++c) {
            y12_ps = 0.0;
            for (net_id n = y12; n >= nl.input_count(); n = nl.gates()[nl.driver_of(n)].inputs[0]) {
                y12_ps += tables->gate_delays(nl.driver_of(n))[c];
            }
            ASSERT_GT(expected[1][c], 0.0);
            ASSERT_LT(expected[1][c], y12_ps) << c;
            ASSERT_EQ(expected[0][c], 0.0);
        }
        for (const detail::delay_kernel* kernel : supported_kernels()) {
            SCOPED_TRACE(std::string("kernel ") + kernel->name + " corners " +
                         std::to_string(corners));
            for (const std::size_t chunk : {std::size_t{1}, std::size_t{4}}) {
                const std::uint64_t toggled_before = toggled.value();
                const std::uint64_t live_before = live.value();
                const std::uint64_t pruned_before = pruned.value();
                expect_batch_matches_scalar(nl, setup, vectors, chunk, *kernel,
                                            quarter_floor);
                EXPECT_EQ(toggled.value() - toggled_before, 63u) << chunk;
                EXPECT_EQ(live.value() - live_before, 12u) << chunk;
                EXPECT_EQ(pruned.value() - pruned_before, 2u) << chunk;
            }
        }
    }
}

/// Every way a gate's three-pin record can be padded or aliased, with
/// inputs a, b, c:
///
///   k = const1()                 -- out "k": no pins, all three padded
///   t = and3(a, a, a)            -- one net on all three pins
///   i = inv(b)                   -- out "i": 1-pin, output-driving, feeds y
///   y = or3(t, c, i)             -- out "y"
///
/// and the primary input a is itself marked as output "a".
netlist make_padding_netlist()
{
    netlist nl("padding");
    const net_id a = nl.add_input("a");
    const net_id b = nl.add_input("b");
    const net_id c = nl.add_input("c");
    nl.mark_output("k", nl.add_gate0(cell_kind::const1));
    const net_id t = nl.add_gate3(cell_kind::and3, a, a, a);
    const net_id i = nl.add_gate1(cell_kind::inv, b);
    nl.mark_output("i", i);
    nl.mark_output("y", nl.add_gate3(cell_kind::or3, t, c, i));
    nl.mark_output("a", a);
    nl.validate();
    return nl;
}

TEST(dynamic_timing_batch, padded_pins_match_scalar_and_count_live_pairs)
{
    // From the all-zero reset state (gate by gate: toggled, then live; k,
    // i and y drive outputs, t is live only where y toggles):
    //   v0 000: k i y toggle                      toggled 3, live 3
    //   v1 100: t; y holds, so t is dead         toggled 1, live 0
    //   v2 110: i                                 toggled 1, live 1
    //   v3 010: t y                               toggled 2, live 2
    //   v4 001: i y                               toggled 2, live 2
    //   v5 101: t; y holds                        toggled 1, live 0
    //   v6 100: nothing                           toggled 0, live 0
    //   v7 011: t i; y holds, so t is dead        toggled 2, live 1
    const std::vector<std::vector<bool>> vectors = {
        {false, false, false}, {true, false, false}, {true, true, false},
        {false, true, false},  {false, false, true}, {true, false, true},
        {true, false, false},  {false, true, true}};
    constexpr std::uint64_t toggled_pairs = 12;
    constexpr std::uint64_t live_pairs = 9;

    const netlist nl = make_padding_netlist();
    auto& registry = synts::obs::metrics_registry::global();
    const synts::obs::counter& toggled = registry.counter_at("circuit.toggled_pairs");
    const synts::obs::counter& live = registry.counter_at("circuit.live_pairs");
    xoshiro256 rng(31);
    const auto random_vectors = make_vectors(nl.input_count(), 150, rng);
    for (const detail::delay_kernel* kernel : supported_kernels()) {
        for (const std::size_t corners : {std::size_t{7}, std::size_t{8}}) {
            SCOPED_TRACE(std::string("kernel ") + kernel->name + " corners " +
                         std::to_string(corners));
            const corner_setup setup(corners);
            for (const std::size_t chunk : {std::size_t{1}, std::size_t{8}}) {
                const std::uint64_t toggled_before = toggled.value();
                const std::uint64_t live_before = live.value();
                expect_batch_matches_scalar(nl, setup, vectors, chunk, *kernel);
                EXPECT_EQ(toggled.value() - toggled_before, toggled_pairs) << chunk;
                EXPECT_EQ(live.value() - live_before, live_pairs) << chunk;
            }
            for (const std::size_t chunk : {std::size_t{7}, std::size_t{64}}) {
                expect_batch_matches_scalar(nl, setup, random_vectors, chunk, *kernel);
            }
        }
    }
}

TEST(dynamic_timing_batch, rejects_bad_arguments)
{
    xoshiro256 rng(7);
    const corner_setup setup;
    const netlist nl = make_batch_test_netlist(4, 30, rng);
    const auto tables = make_corner_tables(nl, setup.lib, setup.vm, setup.corners, no_floor);
    dynamic_timing_simulator sim(nl, tables);
    const std::size_t corner_count = tables->corner_count();

    std::vector<std::uint64_t> words(nl.input_count(), 0);
    std::vector<double> out(corner_count * 64);

    // Wrong word-span width.
    std::vector<std::uint64_t> short_words(nl.input_count() - 1, 0);
    EXPECT_THROW(sim.step_batch(short_words, 1,
                                std::span<double>(out.data(), corner_count)),
                 std::invalid_argument);
    // Lane count out of range.
    EXPECT_THROW(sim.step_batch(words, 0, std::span<double>(out.data(), 0)),
                 std::invalid_argument);
    EXPECT_THROW(sim.step_batch(words, 65,
                                std::span<double>(out.data(), corner_count * 64)),
                 std::invalid_argument);
    // Delay buffer must be exactly corner_count * lane_count.
    EXPECT_THROW(sim.step_batch(words, 2, std::span<double>(out.data(), corner_count)),
                 std::invalid_argument);

    // One 8-corner row holds 1 to corner_block corners: the tables reject
    // none and nine, and so does a simulator handed hand-built tables.
    const std::vector<double> nine = corner_levels(corner_block + 1);
    ASSERT_EQ(nine.size(), 9u);
    EXPECT_THROW((void)make_corner_tables(nl, setup.lib, setup.vm, nine),
                 std::invalid_argument);
    EXPECT_THROW((void)make_corner_tables(nl, setup.lib, setup.vm, std::span<const double>{}),
                 std::invalid_argument);
    // The floor is a fraction of t_nom in [0, 1].
    for (const double floor : {-0.01, 1.01, std::numeric_limits<double>::quiet_NaN()}) {
        EXPECT_THROW((void)make_corner_tables(nl, setup.lib, setup.vm, setup.corners, floor),
                     std::invalid_argument)
            << floor;
    }
    auto oversized = std::make_shared<timing_corner_tables>(*tables);
    oversized->vdd = nine;
    EXPECT_THROW(dynamic_timing_simulator(nl, oversized), std::invalid_argument);
}

TEST(dynamic_timing_batch, corner_tables_transpose_is_consistent)
{
    xoshiro256 rng(11);
    const corner_setup setup;
    const netlist nl = make_batch_test_netlist(5, 50, rng);

    // Joint tables over all corners vs one table per corner: the
    // corner-minor layout must hold each gate's per-corner delays
    // contiguously in a zero-padded row of corner_block doubles and agree
    // with the independently built single-corner tables (same arithmetic,
    // different layout).
    const auto joint = make_corner_tables(nl, setup.lib, setup.vm, setup.corners, no_floor);
    ASSERT_EQ(joint->corner_count(), setup.corners.size());
    for (std::size_t c = 0; c < setup.corners.size(); ++c) {
        const double level[1] = {setup.corners[c]};
        const auto single = make_corner_tables(nl, setup.lib, setup.vm, level, no_floor);
        ASSERT_EQ(single->nominal_period_ps[0], joint->nominal_period_ps[c]);
        for (std::size_t g = 0; g < nl.gates().size(); ++g) {
            const auto id = static_cast<gate_id>(g);
            ASSERT_EQ(joint->gate_delays(id)[c], single->gate_delays(id)[0])
                << "gate " << g << " corner " << c;
        }
    }
}

TEST(dynamic_timing_batch, row_stride_pads_to_whole_blocks)
{
    // Every corner count the tables accept fills one corner_block row per
    // gate, zero past the last corner.
    xoshiro256 rng(13);
    const netlist nl = make_batch_test_netlist(5, 40, rng);
    for (const std::size_t corners : corner_counts) {
        const corner_setup setup(corners);
        const auto tables = make_corner_tables(nl, setup.lib, setup.vm, setup.corners, no_floor);
        ASSERT_EQ(tables->corner_count(), corners);
        ASSERT_EQ(tables->gate_delay_ps.size(), nl.gates().size() * corner_block) << corners;
        for (std::size_t g = 0; g < nl.gates().size(); ++g) {
            for (std::size_t c = corners; c < corner_block; ++c) {
                ASSERT_EQ(tables->gate_delay_ps[g * corner_block + c], 0.0)
                    << "gate " << g << " padding column " << c << " of " << corners;
            }
        }
    }
}

TEST(dynamic_timing_batch, step_batch_runs_the_widest_supported_kernel)
{
    const auto kernels = detail::delay_kernels();
    ASSERT_FALSE(kernels.empty());
    EXPECT_TRUE(kernels.front().supported); // the baseline ISA always runs
    for (std::size_t k = 1; k < kernels.size(); ++k) {
        EXPECT_EQ(kernels[k].width, 2 * kernels[k - 1].width) << kernels[k].name;
    }
    const detail::delay_kernel& active = detail::active_delay_kernel();
    EXPECT_EQ(&active, supported_kernels().back());
    EXPECT_EQ(synts::obs::metrics_registry::global()
                  .gauge_at("circuit.delay_kernel_width")
                  .value(),
              static_cast<std::int64_t>(active.width));
}

/// One deep output and gates outside its cone's fan-in, with inputs a, b:
///
///   c1 = buf(a); ...; c16 = buf(c15)         -- out "deep"
///   side = and2(c3, b)                       -- out "side": reads the chain
///   lone = inv(b)                            -- out "lone"
///   both = xor2(side, lone)                  -- out "both"
///
/// At exact_delay_floor only "deep" reaches the floor, so the fan-in is
/// the chain alone and side, lone and both are evaluated only when the
/// scalar state is rebuilt.
netlist make_side_netlist()
{
    netlist nl("side");
    const net_id a = nl.add_input("a");
    const net_id b = nl.add_input("b");
    net_id chain = a;
    net_id third = a;
    for (int i = 0; i < 16; ++i) {
        chain = nl.add_gate1(cell_kind::buf, chain);
        third = i == 2 ? chain : third;
    }
    nl.mark_output("deep", chain);
    const net_id side = nl.add_gate2(cell_kind::and2, third, b);
    nl.mark_output("side", side);
    const net_id lone = nl.add_gate1(cell_kind::inv, b);
    nl.mark_output("lone", lone);
    nl.mark_output("both", nl.add_gate2(cell_kind::xor2, side, lone));
    nl.validate();
    return nl;
}

void expect_same_state(dynamic_timing_simulator& expected,
                       dynamic_timing_simulator& actual, const netlist& nl)
{
    const auto a = expected.net_values();
    const auto b = actual.net_values();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t n = 0; n < a.size(); ++n) {
        ASSERT_EQ(b[n], a[n]) << "net " << n;
    }
    for (std::size_t o = 0; o < nl.output_count(); ++o) {
        ASSERT_EQ(actual.output_value(o), expected.output_value(o)) << "output " << o;
    }
}

TEST(dynamic_timing_batch, state_outside_the_fanin_matches_the_scalar_walk)
{
    const netlist nl = make_side_netlist();
    const corner_setup setup;
    const auto tables = make_corner_tables(nl, setup.lib, setup.vm, setup.corners);
    ASSERT_EQ(tables->deep_outputs.size(), 1u);
    ASSERT_EQ(tables->fanin_pins.size(), 16u);
    ASSERT_LT(tables->fanin_pins.size(), nl.gates().size());
    const std::size_t corners = tables->corner_count();
    const std::size_t inputs = nl.input_count();
    xoshiro256 rng(59);
    const auto vectors = make_vectors(inputs, 300, rng);
    const std::unique_ptr<bool[]> raw(new bool[inputs]);
    const auto step = [&](dynamic_timing_simulator& sim, std::size_t v) {
        for (std::size_t i = 0; i < inputs; ++i) {
            raw[i] = vectors[v][i];
        }
        std::vector<double> delays(corners);
        sim.step(std::span<const bool>(raw.get(), inputs), delays);
        return delays;
    };
    for (const detail::delay_kernel* kernel : supported_kernels()) {
        SCOPED_TRACE(kernel->name);
        dynamic_timing_simulator ref(nl, tables);
        dynamic_timing_simulator sim(nl, tables);
        std::vector<double> batch_delays(corners * 64);
        std::size_t v = 0;
        for (const std::size_t lanes : {std::size_t{64}, std::size_t{37}, std::size_t{1}}) {
            // A batch, then the state it leaves, then a scalar step from it.
            detail::step_batch_with(*kernel, sim, pack_lanes(vectors, v, lanes, inputs), lanes,
                                    std::span<double>(batch_delays.data(), corners * lanes));
            for (std::size_t j = 0; j < lanes; ++j) {
                (void)step(ref, v + j);
            }
            v += lanes;
            expect_same_state(ref, sim, nl);
            EXPECT_EQ(step(sim, v), step(ref, v)) << "vector " << v;
            expect_same_state(ref, sim, nl);
            ++v;
        }
        // reset() after a batch: both start again from the all-zero
        // vector, scalar and batched.
        detail::step_batch_with(*kernel, sim, pack_lanes(vectors, v, 20, inputs), 20,
                                std::span<double>(batch_delays.data(), corners * 20));
        sim.reset();
        ref.reset();
        expect_same_state(ref, sim, nl);
        for (const std::uint8_t value : sim.net_values().first(inputs)) {
            ASSERT_EQ(value, 0);
        }
        EXPECT_EQ(step(sim, v), step(ref, v));
        sim.reset();
        dynamic_timing_simulator fresh(nl, tables);
        std::vector<double> fresh_delays(corners * 64);
        detail::step_batch_with(*kernel, sim, pack_lanes(vectors, v, 64, inputs), 64,
                                std::span<double>(batch_delays.data(), corners * 64));
        detail::step_batch_with(*kernel, fresh, pack_lanes(vectors, v, 64, inputs), 64,
                                fresh_delays);
        EXPECT_EQ(batch_delays, fresh_delays);
        expect_same_state(fresh, sim, nl);
    }
}

} // namespace
