// stage_taps.h -- per-stage input-vector extraction.
//
// The cross-layer methodology (paper Fig. 5.8) feeds "cycle-by-cycle input
// vectors for each stage" from the architectural simulation into the
// gate-level netlists. A stage tap converts a micro-op into the primary
// input bit vector of one stage netlist -- or reports that the op does not
// exercise that stage (a multiply never toggles the SimpleALU operand
// latches, etc.).

#pragma once

#include <cstdint>
#include <span>

#include "arch/isa.h"
#include "circuit/netlist_builder.h"

namespace synts::arch {

/// Extracts stage input vectors from micro-ops.
class stage_tap {
public:
    /// Binds the tap to a stage and its input layout.
    stage_tap(circuit::pipe_stage stage, const circuit::stage_input_layout& layout) noexcept;

    /// Total primary-input width of the stage netlist.
    [[nodiscard]] std::size_t width() const noexcept { return width_; }

    /// True when `op` exercises the stage.
    [[nodiscard]] bool drives_stage(const micro_op& op) const noexcept
    {
        return stage_drives(stage_, op.cls);
    }

    /// True when every op exercises `stage`: every instruction passes
    /// through Decode.
    [[nodiscard]] static constexpr bool drives_every_op(circuit::pipe_stage stage) noexcept
    {
        return stage == circuit::pipe_stage::decode;
    }

    /// True when an op of class `cls` exercises `stage`.
    [[nodiscard]] static constexpr bool stage_drives(circuit::pipe_stage stage,
                                                     op_class cls) noexcept
    {
        switch (stage) {
        case circuit::pipe_stage::decode:
            return drives_every_op(stage);
        case circuit::pipe_stage::simple_alu:
            return uses_simple_alu(cls);
        case circuit::pipe_stage::complex_alu:
            return uses_complex_alu(cls);
        }
        return false;
    }

    /// Fills `bits` (size width()) with the stage input vector for `op`.
    /// Returns false (leaving `bits` untouched) when the op does not drive
    /// the stage.
    bool extract(const micro_op& op, std::span<bool> bits) const noexcept;

    /// Outcome of one extract_batch call.
    struct batch_result {
        std::size_t lanes = 0;        ///< driving vectors packed (0 .. 64)
        std::size_t ops_consumed = 0; ///< ops scanned off the front of the span
    };

    /// Packs the driving vectors of up to 64 leading ops of `ops` into
    /// lane words for dynamic_timing_simulator::step_batch: bit j of
    /// lane_words[i] is input bit i of the j-th driving vector, in op
    /// order. Each driving op's input bits are packed into one 64-bit row
    /// per lane (a second row holds bits 64..127, e.g. SimpleALU's select
    /// field), and a bit-matrix transpose per row turns the rows into lane
    /// words -- 64x64, or 64x32 for a row of at most 32 bits (Decode's and
    /// ComplexALU's), and a row of a few bits is gathered bit by bit;
    /// bits of unused lanes are 0. Non-driving ops are
    /// skipped. lane_words (size width()) is fully rewritten;
    /// lane_op_index[j] (capacity >= 64) receives the index *within `ops`*
    /// of lane j's op. Scanning stops when 64 lanes are packed or `ops` is
    /// exhausted, whichever is first.
    batch_result extract_batch(std::span<const micro_op> ops,
                               std::span<std::uint64_t> lane_words,
                               std::span<std::uint32_t> lane_op_index) const noexcept;

private:
    circuit::pipe_stage stage_;
    circuit::stage_input_layout layout_;
    std::size_t width_ = 0;
};

} // namespace synts::arch
