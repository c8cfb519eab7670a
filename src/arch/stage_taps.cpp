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

/// transpose64 for a matrix whose rows hold bits 0..31 only, producing
/// rows 0..31 (rows 32..63 are left as scratch): the first round's swap
/// reduces to packing row k + 32 into the high half of row k, and the
/// other five rounds stay within rows 0..31.
void transpose64_low32(std::array<std::uint64_t, 64>& m) noexcept
{
    for (std::size_t k = 0; k < 32; ++k) {
        m[k] |= m[k + 32] << 32;
    }
    std::uint64_t mask = 0x0000FFFF0000FFFFull;
    for (std::size_t j = 16; j != 0; j >>= 1, mask ^= mask << j) {
        for (std::size_t k = 0; k < 32; k = ((k | j) + 1) & ~j) {
            const std::uint64_t t = ((m[k] >> j) ^ m[k | j]) & mask;
            m[k | j] ^= t;
            m[k] ^= t << j;
        }
    }
}

/// SimpleALU's op select: bit0 = subtract, bits 1..2 = {00 arith, 01 and,
/// 10 or, 11 xor}; the logic variant comes from the encoding's low bits.
std::uint64_t simple_alu_select(const micro_op& op) noexcept
{
    if (op.cls == op_class::int_sub) {
        return 0b001;
    }
    if (op.cls == op_class::int_logic) {
        const std::uint64_t variant = 1 + (op.encoding & 0x3) % 3; // 1..3
        return variant << 1;
    }
    return 0;
}

/// A row of at most this many bits is gathered bit by bit, not transposed.
constexpr std::size_t gather_bits = 4;

/// stage_tap::extract_batch for stage S (see there). One bit row per lane,
/// in 64-bit words: rows[w][lane] holds input bits 64w .. 64w + 63 of that
/// lane's vector. A layout has at most four fields of at most 64 bits
/// each, so four words cover it.
template <circuit::pipe_stage S>
[[gnu::aligned(64)]] stage_tap::batch_result
extract_lanes(const circuit::stage_input_layout& layout, std::size_t width,
              std::span<const micro_op> ops, std::span<std::uint64_t> lane_words,
              std::span<std::uint32_t> lane_op_index) noexcept
{
    constexpr std::size_t max_row_words = 4;
    const std::size_t row_words = (width + 63) / 64;
    stage_tap::batch_result result;
    if (lane_words.size() != width || lane_op_index.size() < 64 ||
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
        if (!stage_tap::stage_drives(S, op.cls)) {
            continue;
        }
        const std::size_t lane = result.lanes;
        std::uint64_t row[max_row_words] = {};
        if constexpr (S == circuit::pipe_stage::decode) {
            or_bits(row, 0, op.encoding, layout.instruction_bits);
        } else {
            or_bits(row, 0, op.operand_a, layout.operand_a_bits);
            or_bits(row, layout.operand_a_bits, op.operand_b, layout.operand_b_bits);
            if constexpr (S == circuit::pipe_stage::simple_alu) {
                or_bits(row, layout.operand_a_bits + layout.operand_b_bits,
                        simple_alu_select(op), layout.opcode_bits);
            }
        }
        for (std::size_t w = 0; w < row_words; ++w) {
            rows[w][lane] = row[w];
        }
        lane_op_index[lane] = static_cast<std::uint32_t>(scanned);
        ++result.lanes;
    }
    result.ops_consumed = scanned;

    // Turn the lane rows into lane words: bit j of word 64w + i is input
    // bit 64w + i of lane j. Unfilled lanes are zero rows, so their bits
    // stay 0.
    for (std::size_t w = 0; w < row_words; ++w) {
        std::array<std::uint64_t, 64>& m = rows[w];
        const std::size_t bits = std::min<std::size_t>(64, width - w * 64);
        const auto out = lane_words.begin() + static_cast<std::ptrdiff_t>(w * 64);
        if (bits <= gather_bits) {
            for (std::size_t i = 0; i < bits; ++i) {
                std::uint64_t word = 0;
                for (std::size_t lane = 0; lane < result.lanes; ++lane) {
                    word |= ((m[lane] >> i) & 1) << lane;
                }
                out[static_cast<std::ptrdiff_t>(i)] = word;
            }
            continue;
        }
        if (bits <= 32) {
            transpose64_low32(m);
        } else {
            transpose64(m);
        }
        std::copy_n(m.begin(), bits, out);
    }
    return result;
}

} // namespace

stage_tap::stage_tap(circuit::pipe_stage stage,
                     const circuit::stage_input_layout& layout) noexcept
    : stage_(stage), layout_(layout)
{
    width_ = layout.instruction_bits + layout.operand_a_bits + layout.operand_b_bits +
             layout.opcode_bits;
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
        write_bits(bits, layout_.operand_a_bits + layout_.operand_b_bits,
                   simple_alu_select(op), layout_.opcode_bits);
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
    switch (stage_) {
    case circuit::pipe_stage::decode:
        return extract_lanes<circuit::pipe_stage::decode>(layout_, width_, ops, lane_words,
                                                          lane_op_index);
    case circuit::pipe_stage::simple_alu:
        return extract_lanes<circuit::pipe_stage::simple_alu>(layout_, width_, ops,
                                                              lane_words, lane_op_index);
    case circuit::pipe_stage::complex_alu:
        return extract_lanes<circuit::pipe_stage::complex_alu>(layout_, width_, ops,
                                                               lane_words, lane_op_index);
    }
    return {};
}

} // namespace synts::arch
