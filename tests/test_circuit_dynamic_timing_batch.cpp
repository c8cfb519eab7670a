// Differential tests pinning the 64-lane batched stepping path
// (dynamic_timing_simulator::step_batch) bit-identical to the scalar
// reference walk (step), over random netlists covering every combinational
// cell kind -- including const0/const1, whose all-0/all-1 lane words are a
// batch-specific edge -- at 1, 3, 7 (the paper's), 8, 9 and 17 voltage
// corners (one, two and three 8-corner blocks per row), for batch sizes
// 1/63/64/65 and odd tails. Every delay-kernel instantiation this CPU
// supports runs the differential and the wide/narrow batch alternation
// (per-lane gate lists must not leak between calls), not only the one
// step_batch picks. Plus state continuity across interleaved
// scalar/batched stepping, argument validation and the padded row layout.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "circuit/dynamic_timing.h"
#include "circuit/netlist_builder.h"
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
/// (count < 7), or the seven plus in-range extras (count 8 .. 17).
std::vector<double> corner_levels(std::size_t count)
{
    std::vector<double> levels(paper_voltage_levels().begin(), paper_voltage_levels().end());
    for (const double extra : {0.95, 0.75, 0.98, 0.89, 0.83, 0.77, 0.70, 0.66, 0.90, 0.84}) {
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

constexpr std::array<std::size_t, 6> corner_counts = {1, 3, 7, 8, 9, 17};

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

/// Runs the full vector stream through a scalar sim and a batched sim
/// (chunks of `chunk_lanes`, delays through `kernel`) and asserts every
/// per-corner delay and the final net state are EXACTLY equal.
void expect_batch_matches_scalar(const netlist& nl, const corner_setup& setup,
                                 const std::vector<std::vector<bool>>& vectors,
                                 std::size_t chunk_lanes, const detail::delay_kernel& kernel)
{
    const auto tables = make_corner_tables(nl, setup.lib, setup.vm, setup.corners);
    const std::size_t corner_count = tables->corner_count();
    const std::size_t inputs = nl.input_count();

    dynamic_timing_simulator scalar_sim(nl, tables);
    dynamic_timing_simulator batch_sim(nl, tables);
    const auto expected = scalar_delays(scalar_sim, vectors); // [vector][corner]

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
        for (const std::size_t corners : {std::size_t{7}, std::size_t{9}}) {
            SCOPED_TRACE(std::string("kernel ") + kernel->name + " corners " +
                         std::to_string(corners));
            const corner_setup setup(corners);
            const auto tables = make_corner_tables(nl, setup.lib, setup.vm, setup.corners);
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
    const auto tables = make_corner_tables(nl, setup.lib, setup.vm, setup.corners);
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
    const auto tables = make_corner_tables(nl, setup.lib, setup.vm, setup.corners);
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

INSTANTIATE_TEST_SUITE_P(seeds, dynamic_timing_batch,
                         ::testing::Values(101ull, 202ull, 303ull, 404ull, 505ull));

TEST(dynamic_timing_batch, rejects_bad_arguments)
{
    xoshiro256 rng(7);
    const corner_setup setup;
    const netlist nl = make_batch_test_netlist(4, 30, rng);
    const auto tables = make_corner_tables(nl, setup.lib, setup.vm, setup.corners);
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
}

TEST(dynamic_timing_batch, corner_tables_transpose_is_consistent)
{
    xoshiro256 rng(11);
    const corner_setup setup;
    const netlist nl = make_batch_test_netlist(5, 50, rng);

    // Joint tables over all corners vs one table per corner: the
    // corner-minor layout must hold each gate's per-corner delays
    // contiguously in a zero-padded row of row_stride() doubles and agree
    // with the independently built single-corner tables (same arithmetic,
    // different layout).
    const auto joint = make_corner_tables(nl, setup.lib, setup.vm, setup.corners);
    ASSERT_EQ(joint->corner_count(), setup.corners.size());
    ASSERT_EQ(joint->row_stride(), corner_block);
    ASSERT_EQ(joint->gate_delay_ps.size(), nl.gates().size() * joint->row_stride());
    for (std::size_t g = 0; g < nl.gates().size(); ++g) {
        for (std::size_t c = joint->corner_count(); c < joint->row_stride(); ++c) {
            ASSERT_EQ(joint->gate_delay_ps[g * joint->row_stride() + c], 0.0)
                << "gate " << g << " padding column " << c;
        }
    }
    for (std::size_t c = 0; c < setup.corners.size(); ++c) {
        const double level[1] = {setup.corners[c]};
        const auto single = make_corner_tables(nl, setup.lib, setup.vm, level);
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
    for (const std::size_t corners : corner_counts) {
        timing_corner_tables tables;
        tables.vdd.assign(corners, 1.0);
        EXPECT_EQ(tables.row_stride() % corner_block, 0u) << corners;
        EXPECT_GE(tables.row_stride(), corners);
        EXPECT_LT(tables.row_stride() - corners, corner_block) << corners;
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

} // namespace
