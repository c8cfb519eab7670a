// Tests for arch/stage_taps: stage drive rules, bit encodings, and the
// batched lane-word packing (extract_batch) pinned bit for bit to extract().

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "arch/stage_taps.h"
#include "util/rng.h"

namespace {

using namespace synts::arch;
using synts::circuit::build_stage;
using synts::circuit::pipe_stage;
using synts::util::xoshiro256;

micro_op op_with(op_class cls)
{
    micro_op op;
    op.cls = cls;
    op.encoding = 0xABCD1234;
    op.operand_a = 0x1122334455667788ull;
    op.operand_b = 0x99AABBCCDDEEFF00ull;
    return op;
}

TEST(stage_taps, decode_accepts_everything)
{
    const auto stage = build_stage(pipe_stage::decode);
    const stage_tap tap(pipe_stage::decode, stage.layout);
    EXPECT_EQ(tap.width(), 32u);
    for (std::size_t c = 0; c < op_class_count; ++c) {
        EXPECT_TRUE(tap.drives_stage(op_with(static_cast<op_class>(c))));
    }
}

TEST(stage_taps, simple_alu_drive_rules)
{
    const auto stage = build_stage(pipe_stage::simple_alu);
    const stage_tap tap(pipe_stage::simple_alu, stage.layout);
    EXPECT_EQ(tap.width(), 67u);
    EXPECT_TRUE(tap.drives_stage(op_with(op_class::int_add)));
    EXPECT_TRUE(tap.drives_stage(op_with(op_class::int_sub)));
    EXPECT_TRUE(tap.drives_stage(op_with(op_class::int_logic)));
    EXPECT_FALSE(tap.drives_stage(op_with(op_class::int_mul)));
    EXPECT_FALSE(tap.drives_stage(op_with(op_class::load)));
    EXPECT_FALSE(tap.drives_stage(op_with(op_class::branch)));
}

TEST(stage_taps, complex_alu_drive_rules)
{
    const auto stage = build_stage(pipe_stage::complex_alu);
    const stage_tap tap(pipe_stage::complex_alu, stage.layout);
    EXPECT_EQ(tap.width(), 32u);
    EXPECT_TRUE(tap.drives_stage(op_with(op_class::int_mul)));
    EXPECT_FALSE(tap.drives_stage(op_with(op_class::int_add)));
}

TEST(stage_taps, decode_bits_mirror_encoding)
{
    const auto stage = build_stage(pipe_stage::decode);
    const stage_tap tap(pipe_stage::decode, stage.layout);
    const micro_op op = op_with(op_class::load);
    auto storage = std::make_unique<bool[]>(tap.width());
    const std::span<bool> bits(storage.get(), tap.width());
    ASSERT_TRUE(tap.extract(op, bits));
    for (std::size_t i = 0; i < 32; ++i) {
        ASSERT_EQ(bits[i], ((op.encoding >> i) & 1) != 0);
    }
}

TEST(stage_taps, simple_alu_operand_bits)
{
    const auto stage = build_stage(pipe_stage::simple_alu);
    const stage_tap tap(pipe_stage::simple_alu, stage.layout);
    const micro_op op = op_with(op_class::int_add);
    auto storage = std::make_unique<bool[]>(tap.width());
    const std::span<bool> bits(storage.get(), tap.width());
    ASSERT_TRUE(tap.extract(op, bits));
    for (std::size_t i = 0; i < 32; ++i) {
        ASSERT_EQ(bits[i], ((op.operand_a >> i) & 1) != 0);
        ASSERT_EQ(bits[32 + i], ((op.operand_b >> i) & 1) != 0);
    }
    // int_add: all select bits zero.
    EXPECT_FALSE(bits[64]);
    EXPECT_FALSE(bits[65]);
    EXPECT_FALSE(bits[66]);
}

TEST(stage_taps, simple_alu_subtract_sets_bit0)
{
    const auto stage = build_stage(pipe_stage::simple_alu);
    const stage_tap tap(pipe_stage::simple_alu, stage.layout);
    const micro_op op = op_with(op_class::int_sub);
    auto storage = std::make_unique<bool[]>(tap.width());
    const std::span<bool> bits(storage.get(), tap.width());
    ASSERT_TRUE(tap.extract(op, bits));
    EXPECT_TRUE(bits[64]);
}

TEST(stage_taps, logic_variant_nonzero_select)
{
    const auto stage = build_stage(pipe_stage::simple_alu);
    const stage_tap tap(pipe_stage::simple_alu, stage.layout);
    micro_op op = op_with(op_class::int_logic);
    auto storage = std::make_unique<bool[]>(tap.width());
    const std::span<bool> bits(storage.get(), tap.width());
    ASSERT_TRUE(tap.extract(op, bits));
    EXPECT_FALSE(bits[64]); // not a subtract
    EXPECT_TRUE(bits[65] || bits[66]); // selects a logic function
}

TEST(stage_taps, extract_rejects_non_driving_op)
{
    const auto stage = build_stage(pipe_stage::complex_alu);
    const stage_tap tap(pipe_stage::complex_alu, stage.layout);
    auto storage = std::make_unique<bool[]>(tap.width());
    const std::span<bool> bits(storage.get(), tap.width());
    EXPECT_FALSE(tap.extract(op_with(op_class::load), bits));
}

TEST(stage_taps, extract_rejects_wrong_width)
{
    const auto stage = build_stage(pipe_stage::decode);
    const stage_tap tap(pipe_stage::decode, stage.layout);
    auto storage = std::make_unique<bool[]>(8);
    const std::span<bool> wrong(storage.get(), 8);
    EXPECT_FALSE(tap.extract(op_with(op_class::load), wrong));
}

/// `driving` ops that drive `stage`, each followed by one or two that do
/// not (none for Decode, which every op drives), with random encodings
/// and operands. SimpleALU ops cycle add/sub/logic so the select bits move.
std::vector<micro_op> interleaved_ops(pipe_stage stage, std::size_t driving, xoshiro256& rng)
{
    static constexpr op_class simple[] = {op_class::int_add, op_class::int_sub,
                                          op_class::int_logic};
    static constexpr op_class others[] = {op_class::load, op_class::store, op_class::branch,
                                          op_class::fp, op_class::nop};
    const auto random_op = [&rng](op_class cls) {
        micro_op op;
        op.cls = cls;
        op.encoding = static_cast<std::uint32_t>(rng());
        op.operand_a = rng();
        op.operand_b = rng();
        return op;
    };
    std::vector<micro_op> ops;
    for (std::size_t i = 0; i < driving; ++i) {
        switch (stage) {
        case pipe_stage::decode:
            ops.push_back(random_op(static_cast<op_class>(rng.uniform_below(op_class_count))));
            continue;
        case pipe_stage::simple_alu:
            ops.push_back(random_op(simple[i % 3]));
            ops.push_back(random_op(op_class::int_mul));
            break;
        case pipe_stage::complex_alu:
            ops.push_back(random_op(op_class::int_mul));
            ops.push_back(random_op(op_class::int_add));
            break;
        }
        for (std::uint64_t k = rng.uniform_below(2); k > 0; --k) {
            ops.push_back(random_op(others[rng.uniform_below(5)]));
        }
    }
    return ops;
}

/// Runs extract_batch over `ops` and checks it against extract(): lane j
/// carries the j-th driving op, every unused lane bit is 0, and the lane
/// indices and the consumed count are exact.
void expect_batch_matches_extract(const stage_tap& tap, std::span<const micro_op> ops)
{
    std::vector<std::size_t> driving;
    std::size_t consumed = 0;
    for (; consumed < ops.size() && driving.size() < 64; ++consumed) {
        if (tap.drives_stage(ops[consumed])) {
            driving.push_back(consumed);
        }
    }

    std::vector<std::uint64_t> lane_words(tap.width(), ~0ull); // fully rewritten
    std::vector<std::uint32_t> lane_op_index(64, 0);
    const stage_tap::batch_result result = tap.extract_batch(ops, lane_words, lane_op_index);
    ASSERT_EQ(result.lanes, driving.size());
    ASSERT_EQ(result.ops_consumed, consumed);

    auto storage = std::make_unique<bool[]>(tap.width());
    const std::span<bool> bits(storage.get(), tap.width());
    for (std::size_t lane = 0; lane < driving.size(); ++lane) {
        ASSERT_EQ(lane_op_index[lane], driving[lane]) << "lane " << lane;
        ASSERT_TRUE(tap.extract(ops[driving[lane]], bits));
        for (std::size_t i = 0; i < tap.width(); ++i) {
            ASSERT_EQ(((lane_words[i] >> lane) & 1) != 0, bits[i])
                << "lane " << lane << " bit " << i;
        }
    }
    if (driving.size() < 64) {
        for (std::size_t i = 0; i < tap.width(); ++i) {
            ASSERT_EQ(lane_words[i] >> driving.size(), 0u) << "bit " << i;
        }
    }
}

constexpr pipe_stage all_stages[] = {pipe_stage::decode, pipe_stage::simple_alu,
                                     pipe_stage::complex_alu};

TEST(stage_taps, extract_batch_partial_batches_match_extract)
{
    for (const pipe_stage which : all_stages) {
        const auto stage = build_stage(which);
        const stage_tap tap(which, stage.layout);
        xoshiro256 rng(17 + static_cast<std::uint64_t>(which));
        for (const std::size_t lanes : {std::size_t{1}, std::size_t{5}, std::size_t{63}}) {
            SCOPED_TRACE(std::string(synts::circuit::pipe_stage_name(which)) + " lanes " +
                         std::to_string(lanes));
            const auto ops = interleaved_ops(which, lanes, rng);
            expect_batch_matches_extract(tap, ops);
        }
    }
}

TEST(stage_taps, extract_batch_full_batches_stop_at_64_lanes)
{
    for (const pipe_stage which : all_stages) {
        SCOPED_TRACE(synts::circuit::pipe_stage_name(which));
        const auto stage = build_stage(which);
        const stage_tap tap(which, stage.layout);
        xoshiro256 rng(29 + static_cast<std::uint64_t>(which));
        const auto ops = interleaved_ops(which, 150, rng);
        // Walk the stream the way the characterizer does: each call resumes
        // after the ops the previous one consumed.
        std::size_t offset = 0;
        while (offset < ops.size()) {
            const auto rest = std::span<const micro_op>(ops).subspan(offset);
            expect_batch_matches_extract(tap, rest);
            std::vector<std::uint64_t> lane_words(tap.width());
            std::vector<std::uint32_t> lane_op_index(64);
            const auto result = tap.extract_batch(rest, lane_words, lane_op_index);
            ASSERT_GT(result.ops_consumed, 0u);
            offset += result.ops_consumed;
        }
    }
}

TEST(stage_taps, extract_batch_select_bits_cross_the_row_boundary)
{
    // SimpleALU's select field is bits 64..66: the second 64-bit row.
    const auto stage = build_stage(pipe_stage::simple_alu);
    const stage_tap tap(pipe_stage::simple_alu, stage.layout);
    std::vector<micro_op> ops;
    ops.push_back(op_with(op_class::int_add));   // select 000
    ops.push_back(op_with(op_class::int_sub));   // select 001
    for (std::uint32_t low = 0; low < 3; ++low) { // logic variants 1..3
        micro_op op = op_with(op_class::int_logic);
        op.encoding = 0xABCD1230 | low;
        ops.push_back(op);
    }
    std::vector<std::uint64_t> lane_words(tap.width());
    std::vector<std::uint32_t> lane_op_index(64);
    const auto result = tap.extract_batch(ops, lane_words, lane_op_index);
    ASSERT_EQ(result.lanes, 5u);
    // Lane j's select is bit j of words 64..66: add 000, sub 001, then
    // logic variants 1, 2, 3 shifted left by one (010, 100, 110).
    EXPECT_EQ(lane_words[64], 0b00010u);
    EXPECT_EQ(lane_words[65], 0b10100u);
    EXPECT_EQ(lane_words[66], 0b11000u);
    expect_batch_matches_extract(tap, ops);
}

TEST(stage_taps, extract_batch_fields_may_straddle_a_row_word)
{
    // The real layouts start every field on bit 0, 32 or 64; a custom one
    // puts operand_b at bits 40..79 and the select at 80..82, so a field
    // spans both 64-bit row words.
    synts::circuit::stage_input_layout layout;
    layout.operand_a_bits = 40;
    layout.operand_b_bits = 40;
    layout.opcode_bits = 3;
    const stage_tap tap(pipe_stage::simple_alu, layout);
    ASSERT_EQ(tap.width(), 83u);
    xoshiro256 rng(41);
    const auto ops = interleaved_ops(pipe_stage::simple_alu, 70, rng);
    expect_batch_matches_extract(tap, ops);
}

TEST(stage_taps, extract_batch_rejects_wrong_width)
{
    const auto stage = build_stage(pipe_stage::simple_alu);
    const stage_tap tap(pipe_stage::simple_alu, stage.layout);
    const std::vector<micro_op> ops(3, op_with(op_class::int_add));
    std::vector<std::uint32_t> lane_op_index(64);
    for (const std::size_t width : {tap.width() - 1, tap.width() + 1, std::size_t{64}}) {
        std::vector<std::uint64_t> lane_words(width, 0);
        const auto result = tap.extract_batch(ops, lane_words, lane_op_index);
        EXPECT_EQ(result.lanes, 0u) << width;
        EXPECT_EQ(result.ops_consumed, 0u) << width;
    }
    // The lane index buffer must hold a full batch.
    std::vector<std::uint64_t> lane_words(tap.width(), 0);
    std::vector<std::uint32_t> short_index(63);
    EXPECT_EQ(tap.extract_batch(ops, lane_words, short_index).lanes, 0u);
}

} // namespace
