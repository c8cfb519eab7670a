// cell_library.h -- a small standard-cell library with 22 nm-flavored
// timing, area, and power parameters.
//
// This is the reproduction's stand-in for the synthesized IVM / MIAOW
// netlists' cell views. Delays are expressed in picoseconds at the nominal
// supply (1.0 V); the voltage dependence is handled by
// circuit/voltage_model.h via an alpha-power-law scale factor that is
// slightly cell-class specific (see DESIGN.md section 5.1).

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace synts::circuit {

/// Combinational cell classes plus the sequential DFF (used only for
/// area/power roll-ups; stage netlists are purely combinational between
/// pipeline registers).
enum class cell_kind : std::uint8_t {
    const0,
    const1,
    buf,
    inv,
    and2,
    or2,
    nand2,
    nor2,
    xor2,
    xnor2,
    and3,
    or3,
    nand3,
    nor3,
    aoi21, ///< out = !((a & b) | c)
    oai21, ///< out = !((a | b) & c)
    mux2,  ///< out = s ? b : a   (inputs ordered a, b, s)
    dff,   ///< sequential; never instantiated in combinational netlists
};

/// Number of distinct cell kinds.
inline constexpr std::size_t cell_kind_count = 18;

/// Electrical/physical parameters of one cell class.
struct cell_params {
    double intrinsic_delay_ps; ///< pin-to-pin delay at 1.0 V, zero load
    double load_delay_ps;      ///< additional delay per fanout endpoint
    double area_um2;           ///< placement area
    double input_cap_ff;       ///< per-input-pin capacitance
    double leakage_nw;         ///< leakage power at 1.0 V
    double switch_energy_fj;   ///< dynamic energy per output toggle at 1.0 V
};

/// Number of input pins a cell kind reads.
[[nodiscard]] constexpr std::size_t cell_input_count(cell_kind kind) noexcept
{
    switch (kind) {
    case cell_kind::const0:
    case cell_kind::const1:
        return 0;
    case cell_kind::buf:
    case cell_kind::inv:
    case cell_kind::dff:
        return 1;
    case cell_kind::and2:
    case cell_kind::or2:
    case cell_kind::nand2:
    case cell_kind::nor2:
    case cell_kind::xor2:
    case cell_kind::xnor2:
        return 2;
    case cell_kind::and3:
    case cell_kind::or3:
    case cell_kind::nand3:
    case cell_kind::nor3:
    case cell_kind::aoi21:
    case cell_kind::oai21:
    case cell_kind::mux2:
        return 3;
    }
    return 0;
}

/// Human-readable cell class name (for reports and netlist dumps).
[[nodiscard]] std::string_view cell_kind_name(cell_kind kind) noexcept;

/// Boolean function of the cell evaluated on up to three input bits.
/// `inputs` must supply cell_input_count(kind) values; extra values are
/// ignored. DFF evaluates as a buffer (value transport; timing handled at
/// the architecture level).
[[nodiscard]] bool evaluate_cell(cell_kind kind, std::span<const bool> inputs) noexcept;

/// Word-parallel twin of evaluate_cell: evaluates the cell's Boolean
/// function on all 64 bit positions of the operand words at once (bit j of
/// the result is evaluate_cell applied to bit j of each operand). Unused
/// operands are ignored; const cells produce all-0 / all-1 words. This is
/// the lane engine of dynamic_timing_simulator::step_batch -- one bitwise
/// expression replaces 64 scalar cell evaluations. Inline: the functional
/// pass calls it once per gate, and an out-of-line call cost as much as
/// the expression.
[[nodiscard]] constexpr std::uint64_t evaluate_cell_word(cell_kind kind, std::uint64_t a,
                                                         std::uint64_t b,
                                                         std::uint64_t c) noexcept
{
    switch (kind) {
    case cell_kind::const0:
        return 0;
    case cell_kind::const1:
        return ~0ull;
    case cell_kind::buf:
    case cell_kind::dff:
        return a;
    case cell_kind::inv:
        return ~a;
    case cell_kind::and2:
        return a & b;
    case cell_kind::or2:
        return a | b;
    case cell_kind::nand2:
        return ~(a & b);
    case cell_kind::nor2:
        return ~(a | b);
    case cell_kind::xor2:
        return a ^ b;
    case cell_kind::xnor2:
        return ~(a ^ b);
    case cell_kind::and3:
        return a & b & c;
    case cell_kind::or3:
        return a | b | c;
    case cell_kind::nand3:
        return ~(a & b & c);
    case cell_kind::nor3:
        return ~(a | b | c);
    case cell_kind::aoi21:
        return ~((a & b) | c);
    case cell_kind::oai21:
        return ~((a | b) & c);
    case cell_kind::mux2:
        return (c & b) | (~c & a);
    }
    return 0;
}

/// The standard-cell library: parameter lookup per cell class.
class cell_library {
public:
    /// The default 22 nm-flavored library used everywhere in this repo.
    /// Parameter values are representative (FO4-style ratios between cell
    /// classes), not foundry data; every experiment in the paper is
    /// normalized, so only ratios matter.
    [[nodiscard]] static cell_library standard_22nm();

    /// Parameters for a cell class.
    [[nodiscard]] const cell_params& params(cell_kind kind) const noexcept
    {
        return params_[static_cast<std::size_t>(kind)];
    }

    /// Mutable access for calibration/ablation experiments.
    [[nodiscard]] cell_params& params_mutable(cell_kind kind) noexcept
    {
        return params_[static_cast<std::size_t>(kind)];
    }

    /// Delay of `kind` driving `fanout` endpoints at the nominal supply.
    [[nodiscard]] double delay_ps(cell_kind kind, std::size_t fanout) const noexcept
    {
        const auto& p = params(kind);
        return p.intrinsic_delay_ps + p.load_delay_ps * static_cast<double>(fanout);
    }

private:
    std::array<cell_params, cell_kind_count> params_{};
};

} // namespace synts::circuit
