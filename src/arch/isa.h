// isa.h -- the micro-op model shared by the workload generators, the
// architectural pipeline, and the circuit-level stage taps.
//
// Each micro-op carries everything the three analyzed pipe stages consume:
// the 32-bit encoding (Decode), the source operand values (SimpleALU /
// ComplexALU), and a memory address / branch outcome for the performance
// model. This mirrors what the paper extracts from gem5: "cycle-by-cycle
// input vectors for each stage".

#pragma once

#include <cstdint>
#include <string_view>

namespace synts::arch {

/// Functional classes of micro-ops.
enum class op_class : std::uint8_t {
    int_add = 0, ///< SimpleALU add
    int_sub,     ///< SimpleALU subtract
    int_logic,   ///< SimpleALU and/or/xor
    int_mul,     ///< ComplexALU multiply
    load,        ///< data-cache read
    store,       ///< data-cache write
    branch,      ///< conditional branch
    fp,          ///< floating point (modeled as multi-cycle, no stage tap)
    nop,         ///< no-op / other
};

/// Number of op classes.
inline constexpr std::size_t op_class_count = 9;

/// Display name of an op class.
[[nodiscard]] constexpr std::string_view op_class_name(op_class cls) noexcept
{
    switch (cls) {
    case op_class::int_add:
        return "int_add";
    case op_class::int_sub:
        return "int_sub";
    case op_class::int_logic:
        return "int_logic";
    case op_class::int_mul:
        return "int_mul";
    case op_class::load:
        return "load";
    case op_class::store:
        return "store";
    case op_class::branch:
        return "branch";
    case op_class::fp:
        return "fp";
    case op_class::nop:
        return "nop";
    }
    return "?";
}

/// True for classes executed by the SimpleALU stage.
[[nodiscard]] constexpr bool uses_simple_alu(op_class cls) noexcept
{
    return cls == op_class::int_add || cls == op_class::int_sub ||
           cls == op_class::int_logic;
}

/// True for classes executed by the ComplexALU stage.
[[nodiscard]] constexpr bool uses_complex_alu(op_class cls) noexcept
{
    return cls == op_class::int_mul;
}

/// One dynamic micro-op. Fields run widest first, so the record packs into
/// 32 bytes with no interior padding (a canonical sweep generates 1.5 M of
/// them). Initialize it by field name: the order is a layout choice.
struct micro_op {
    std::uint64_t operand_a = 0; ///< first source value
    std::uint64_t operand_b = 0; ///< second source value
    std::uint64_t address = 0;   ///< effective address (load/store)
    std::uint32_t encoding = 0;  ///< 32-bit instruction word (Decode stage input)
    op_class cls = op_class::nop;
    bool branch_taken = false;   ///< resolved direction (branch)
};

static_assert(sizeof(micro_op) == 32, "micro_op layout grew");

} // namespace synts::arch
