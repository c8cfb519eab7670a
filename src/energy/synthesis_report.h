// synthesis_report.h -- area/power accounting of the SynTS hardware additions.
//
// Section 6.3 synthesizes the IVM pipe stages with a 45 nm FreePDK library
// and reports the SynTS-online additions at ~3.41% of core power and ~2.7%
// of core area. We reproduce the accounting bottom-up: the SynTS controller
// is itemized as registers + combinational gates, costed with the same cell
// library as the stage netlists, and compared against a core reference
// derived from the synthesized stages (scaled by a documented factor
// representing the full core: `core_scale_factor` below).

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/cell_library.h"
#include "circuit/netlist.h"

namespace synts::energy {

/// One itemized hardware block of the SynTS-online controller.
struct hardware_block {
    std::string name;
    std::size_t dff_count = 0;       ///< sequential bits
    std::size_t comb_gate_count = 0; ///< combinational gates (avg-size)
};

/// The SynTS-online per-core additions (sampling counters, per-TSR error
/// registers, the TSR sweep FSM, and the V/F interface -- the solver itself
/// runs in software on a host core, per the paper's online flow).
[[nodiscard]] std::vector<hardware_block> synts_online_blocks(std::size_t tsr_level_count);

/// Reference area/power of one core against which overheads are reported.
struct core_reference {
    double area_um2 = 0.0;
    double power_uw = 0.0;
};

/// Cost of a set of hardware blocks.
struct block_cost {
    double area_um2 = 0.0;
    double power_uw = 0.0;
};

/// Synthesis-style estimator over the shared cell library.
class synthesis_estimator {
public:
    /// `switching_activity` is the average output toggle probability per
    /// cycle for datapath logic; `controller_activity` applies to the SynTS
    /// counter/FSM blocks, which toggle nearly every cycle during sampling
    /// (hence higher than the core average); `clock_ghz` converts switch
    /// energy to power.
    explicit synthesis_estimator(const circuit::cell_library& lib,
                                 double switching_activity = 0.10,
                                 double controller_activity = 0.16,
                                 double clock_ghz = 1.0);

    /// Area/power of one netlist (combinational only).
    [[nodiscard]] block_cost cost_of_netlist(const circuit::netlist& nl) const;

    /// Area/power of an itemized block list. DFFs use the library's dff
    /// cell; combinational gates use an average over common cell classes.
    [[nodiscard]] block_cost cost_of_blocks(std::span<const hardware_block> blocks) const;

    /// Core reference: the three analyzed pipe stages plus their pipeline
    /// registers, scaled by `core_scale_factor` to stand for the full IVM
    /// core (the stages are a small fraction of core logic).
    [[nodiscard]] core_reference
    make_core_reference(std::span<const circuit::netlist* const> stage_netlists,
                        double core_scale_factor = 14.0) const;

private:
    const circuit::cell_library& lib_;
    double switching_activity_;
    double controller_activity_;
    double clock_ghz_;

    [[nodiscard]] double gate_power_uw(const circuit::cell_params& p,
                                       double activity) const noexcept;
};

/// Final overhead numbers (paper: power 3.41%, area 2.7%).
struct overhead_report {
    block_cost synts_additions;
    core_reference core;
    double area_percent = 0.0;
    double power_percent = 0.0;
};

/// End-to-end overhead estimate for the SynTS-online controller.
[[nodiscard]] overhead_report
estimate_synts_overhead(const circuit::cell_library& lib,
                        std::span<const circuit::netlist* const> stage_netlists,
                        std::size_t tsr_level_count);

} // namespace synts::energy
