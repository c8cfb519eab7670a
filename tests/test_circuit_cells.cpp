// Tests for circuit/cell_library: truth tables and parameter sanity.

#include <gtest/gtest.h>

#include "circuit/cell_library.h"

namespace {

using namespace synts::circuit;

/// Reference boolean function for each cell kind.
bool reference_eval(cell_kind kind, bool a, bool b, bool c)
{
    switch (kind) {
    case cell_kind::const0:
        return false;
    case cell_kind::const1:
        return true;
    case cell_kind::buf:
    case cell_kind::dff:
        return a;
    case cell_kind::inv:
        return !a;
    case cell_kind::and2:
        return a && b;
    case cell_kind::or2:
        return a || b;
    case cell_kind::nand2:
        return !(a && b);
    case cell_kind::nor2:
        return !(a || b);
    case cell_kind::xor2:
        return a != b;
    case cell_kind::xnor2:
        return a == b;
    case cell_kind::and3:
        return a && b && c;
    case cell_kind::or3:
        return a || b || c;
    case cell_kind::nand3:
        return !(a && b && c);
    case cell_kind::nor3:
        return !(a || b || c);
    case cell_kind::aoi21:
        return !((a && b) || c);
    case cell_kind::oai21:
        return !((a || b) && c);
    case cell_kind::mux2:
        return c ? b : a;
    }
    return false;
}

class cell_truth_tables : public ::testing::TestWithParam<cell_kind> {};

TEST_P(cell_truth_tables, matches_reference_on_all_inputs)
{
    const cell_kind kind = GetParam();
    const std::size_t arity = cell_input_count(kind);
    const int combos = 1 << arity;
    for (int bits = 0; bits < combos; ++bits) {
        const bool a = bits & 1;
        const bool b = bits & 2;
        const bool c = bits & 4;
        bool inputs[3] = {a, b, c};
        const bool got = evaluate_cell(kind, std::span<const bool>(inputs, arity));
        const bool want = reference_eval(kind, a, b, c);
        ASSERT_EQ(got, want) << cell_kind_name(kind) << " inputs=" << bits;
    }
}

TEST_P(cell_truth_tables, word_matches_reference_on_all_inputs)
{
    // Lane j carries input combo j mod 2^arity, so every lane of the word
    // is checked. Pins past the arity get the 0 word, as step_batch's pin
    // padding feeds them.
    const cell_kind kind = GetParam();
    const std::size_t arity = cell_input_count(kind);
    const std::size_t combos = std::size_t{1} << arity;
    std::uint64_t words[3] = {0, 0, 0};
    for (std::size_t lane = 0; lane < 64; ++lane) {
        for (std::size_t pin = 0; pin < arity; ++pin) {
            if (((lane % combos) >> pin) & 1) {
                words[pin] |= 1ull << lane;
            }
        }
    }
    const std::uint64_t got = evaluate_cell_word(kind, words[0], words[1], words[2]);
    for (std::size_t lane = 0; lane < 64; ++lane) {
        const std::size_t bits = lane % combos;
        const bool want = reference_eval(kind, bits & 1, bits & 2, bits & 4);
        ASSERT_EQ(((got >> lane) & 1) != 0, want)
            << cell_kind_name(kind) << " inputs=" << bits << " lane=" << lane;
    }
}

INSTANTIATE_TEST_SUITE_P(
    all_kinds, cell_truth_tables,
    ::testing::Values(cell_kind::const0, cell_kind::const1, cell_kind::buf,
                      cell_kind::inv, cell_kind::and2, cell_kind::or2, cell_kind::nand2,
                      cell_kind::nor2, cell_kind::xor2, cell_kind::xnor2, cell_kind::and3,
                      cell_kind::or3, cell_kind::nand3, cell_kind::nor3, cell_kind::aoi21,
                      cell_kind::oai21, cell_kind::mux2, cell_kind::dff),
    [](const ::testing::TestParamInfo<cell_kind>& info) {
        return std::string(cell_kind_name(info.param));
    });

TEST(cell_library, parameters_positive_for_real_cells)
{
    const cell_library lib = cell_library::standard_22nm();
    for (std::size_t k = 0; k < cell_kind_count; ++k) {
        const auto kind = static_cast<cell_kind>(k);
        if (kind == cell_kind::const0 || kind == cell_kind::const1) {
            continue;
        }
        const cell_params& p = lib.params(kind);
        EXPECT_GT(p.intrinsic_delay_ps, 0.0) << cell_kind_name(kind);
        EXPECT_GT(p.area_um2, 0.0) << cell_kind_name(kind);
        EXPECT_GT(p.switch_energy_fj, 0.0) << cell_kind_name(kind);
    }
}

TEST(cell_library, familiar_delay_ordering)
{
    const cell_library lib = cell_library::standard_22nm();
    // INV is the fastest gate; XOR2 is slower than NAND2; 3-input slower
    // than 2-input of the same family.
    EXPECT_LT(lib.params(cell_kind::inv).intrinsic_delay_ps,
              lib.params(cell_kind::nand2).intrinsic_delay_ps);
    EXPECT_LT(lib.params(cell_kind::nand2).intrinsic_delay_ps,
              lib.params(cell_kind::xor2).intrinsic_delay_ps);
    EXPECT_LT(lib.params(cell_kind::nand2).intrinsic_delay_ps,
              lib.params(cell_kind::nand3).intrinsic_delay_ps);
    EXPECT_LT(lib.params(cell_kind::and2).intrinsic_delay_ps,
              lib.params(cell_kind::and3).intrinsic_delay_ps);
}

TEST(cell_library, delay_grows_with_fanout)
{
    const cell_library lib = cell_library::standard_22nm();
    EXPECT_LT(lib.delay_ps(cell_kind::nand2, 1), lib.delay_ps(cell_kind::nand2, 8));
}

TEST(cell_library, arity_lookup)
{
    EXPECT_EQ(cell_input_count(cell_kind::const0), 0u);
    EXPECT_EQ(cell_input_count(cell_kind::inv), 1u);
    EXPECT_EQ(cell_input_count(cell_kind::xor2), 2u);
    EXPECT_EQ(cell_input_count(cell_kind::mux2), 3u);
    EXPECT_EQ(cell_input_count(cell_kind::aoi21), 3u);
}

TEST(cell_library, names_are_unique_and_nonempty)
{
    std::set<std::string_view> names;
    for (std::size_t k = 0; k < cell_kind_count; ++k) {
        const auto name = cell_kind_name(static_cast<cell_kind>(k));
        EXPECT_FALSE(name.empty());
        EXPECT_TRUE(names.insert(name).second) << name;
    }
}

} // namespace
