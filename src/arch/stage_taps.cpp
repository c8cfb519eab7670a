#include "arch/stage_taps.h"

#include <algorithm>
#include <array>

namespace synts::arch {

namespace {

void write_bits(std::span<bool> bits, std::size_t offset, std::uint64_t value,
                std::size_t count) noexcept
{
    for (std::size_t i = 0; i < count; ++i) {
        bits[offset + i] = ((value >> i) & 1) != 0;
    }
}

/// ORs the low `count` bits of `value` into the bit row `row` (64-bit
/// words, bit i of the row is bit i % 64 of word i / 64) at `offset`. The
/// field may straddle two words.
void or_bits(std::uint64_t* row, std::size_t offset, std::uint64_t value,
             std::size_t count) noexcept
{
    if (count == 0) {
        return;
    }
    if (count < 64) {
        value &= (1ull << count) - 1;
    }
    const std::size_t word = offset / 64;
    const std::size_t shift = offset % 64;
    row[word] |= value << shift;
    if (shift != 0 && shift + count > 64) {
        row[word + 1] |= value >> (64 - shift);
    }
}

/// Transposes a 64x64 bit matrix in place: bit c of m[r] trades places
/// with bit r of m[c]. Six rounds of block swaps (32x32 blocks, then
/// 16x16, ... 1x1), each a masked xor-swap between row k and row k + j.
void transpose64(std::array<std::uint64_t, 64>& m) noexcept
{
    std::uint64_t mask = 0x00000000FFFFFFFFull;
    for (std::size_t j = 32; j != 0; j >>= 1, mask ^= mask << j) {
        for (std::size_t k = 0; k < 64; k = ((k | j) + 1) & ~j) {
            const std::uint64_t t = ((m[k] >> j) ^ m[k | j]) & mask;
            m[k | j] ^= t;
            m[k] ^= t << j;
        }
    }
}

} // namespace

stage_tap::stage_tap(circuit::pipe_stage stage,
                     const circuit::stage_input_layout& layout) noexcept
    : stage_(stage), layout_(layout)
{
    width_ = layout.instruction_bits + layout.operand_a_bits + layout.operand_b_bits +
             layout.opcode_bits;
}

bool stage_tap::drives_stage(const micro_op& op) const noexcept
{
    switch (stage_) {
    case circuit::pipe_stage::decode:
        return true; // every instruction passes through Decode
    case circuit::pipe_stage::simple_alu:
        return uses_simple_alu(op.cls);
    case circuit::pipe_stage::complex_alu:
        return uses_complex_alu(op.cls);
    }
    return false;
}

bool stage_tap::extract(const micro_op& op, std::span<bool> bits) const noexcept
{
    if (!drives_stage(op) || bits.size() != width_) {
        return false;
    }
    switch (stage_) {
    case circuit::pipe_stage::decode: {
        write_bits(bits, 0, op.encoding, layout_.instruction_bits);
        return true;
    }
    case circuit::pipe_stage::simple_alu: {
        write_bits(bits, 0, op.operand_a, layout_.operand_a_bits);
        write_bits(bits, layout_.operand_a_bits, op.operand_b, layout_.operand_b_bits);
        // op select: bit0 = subtract, bits 1..2 = {00 arith, 01 and, 10 or,
        // 11 xor}; logic variant chosen from the encoding's low bits.
        std::uint64_t select = 0;
        if (op.cls == op_class::int_sub) {
            select = 0b001;
        } else if (op.cls == op_class::int_logic) {
            const std::uint64_t variant = 1 + (op.encoding & 0x3) % 3; // 1..3
            select = variant << 1;
        }
        write_bits(bits, layout_.operand_a_bits + layout_.operand_b_bits, select,
                   layout_.opcode_bits);
        return true;
    }
    case circuit::pipe_stage::complex_alu: {
        write_bits(bits, 0, op.operand_a, layout_.operand_a_bits);
        write_bits(bits, layout_.operand_a_bits, op.operand_b, layout_.operand_b_bits);
        return true;
    }
    }
    return false;
}

stage_tap::batch_result stage_tap::extract_batch(
    std::span<const micro_op> ops, std::span<std::uint64_t> lane_words,
    std::span<std::uint32_t> lane_op_index) const noexcept
{
    // One bit row per lane, in 64-bit words: rows[w][lane] holds input
    // bits 64w .. 64w + 63 of that lane's vector. A layout has at most four
    // fields of at most 64 bits each, so four words cover it.
    constexpr std::size_t max_row_words = 4;
    const std::size_t row_words = (width_ + 63) / 64;
    batch_result result;
    if (lane_words.size() != width_ || lane_op_index.size() < 64 ||
        row_words > max_row_words) {
        return result;
    }
    std::array<std::array<std::uint64_t, 64>, max_row_words> rows;
    for (std::size_t w = 0; w < row_words; ++w) {
        rows[w].fill(0);
    }
    std::size_t scanned = 0;
    for (; scanned < ops.size() && result.lanes < 64; ++scanned) {
        const micro_op& op = ops[scanned];
        if (!drives_stage(op)) {
            continue;
        }
        const std::size_t lane = result.lanes;
        std::uint64_t row[max_row_words] = {};
        switch (stage_) {
        case circuit::pipe_stage::decode:
            or_bits(row, 0, op.encoding, layout_.instruction_bits);
            break;
        case circuit::pipe_stage::simple_alu: {
            or_bits(row, 0, op.operand_a, layout_.operand_a_bits);
            or_bits(row, layout_.operand_a_bits, op.operand_b, layout_.operand_b_bits);
            // Same select encoding as extract(): bit0 = subtract, bits 1..2
            // = logic variant from the encoding's low bits.
            std::uint64_t select = 0;
            if (op.cls == op_class::int_sub) {
                select = 0b001;
            } else if (op.cls == op_class::int_logic) {
                const std::uint64_t variant = 1 + (op.encoding & 0x3) % 3; // 1..3
                select = variant << 1;
            }
            or_bits(row, layout_.operand_a_bits + layout_.operand_b_bits, select,
                    layout_.opcode_bits);
            break;
        }
        case circuit::pipe_stage::complex_alu:
            or_bits(row, 0, op.operand_a, layout_.operand_a_bits);
            or_bits(row, layout_.operand_a_bits, op.operand_b, layout_.operand_b_bits);
            break;
        }
        for (std::size_t w = 0; w < row_words; ++w) {
            rows[w][lane] = row[w];
        }
        lane_op_index[lane] = static_cast<std::uint32_t>(scanned);
        ++result.lanes;
    }
    result.ops_consumed = scanned;

    // Turn the lane rows into lane words: after the transpose, bit j of
    // rows[w][i] is input bit 64w + i of lane j. Unfilled lanes are zero
    // rows, so their bits stay 0.
    for (std::size_t w = 0; w < row_words; ++w) {
        transpose64(rows[w]);
        const std::size_t bits = std::min<std::size_t>(64, width_ - w * 64);
        std::copy_n(rows[w].begin(), bits,
                    lane_words.begin() + static_cast<std::ptrdiff_t>(w * 64));
    }
    return result;
}

} // namespace synts::arch
