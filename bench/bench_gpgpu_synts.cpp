// Negative-result closure: running SynTS on the GPGPU.
//
// Sections 3.2 / 5.5 conclude that the HD 7970's vector ALUs are
// homogeneous, so "per-core timing speculation will work just fine" and
// the SynTS analysis focuses on CMPs. This bench verifies that conclusion
// end to end rather than taking it on faith: it treats the 16 VALUs as
// SynTS threads, builds their empirical error curves by driving the
// gate-level ALU with each VALU's operand stream, and shows SynTS's
// advantage over Per-core TS collapsing to (near) zero -- exactly why the
// paper skips the GPGPU in the optimization study.

#include <cstdio>
#include <memory>

#include "bench_common.h"
#include "circuit/dynamic_timing.h"
#include "circuit/netlist_builder.h"
#include "core/solver.h"
#include "gpgpu/kernels.h"
#include "util/table.h"

int main()
{
    using namespace synts;

    bench::banner("GPGPU + SynTS",
                  "SynTS applied to the 16 homogeneous VALUs (negative result)");

    const auto stage = circuit::build_simple_alu();
    const auto lib = circuit::cell_library::standard_22nm();
    const circuit::voltage_model vm(0.04);
    const auto corners = circuit::paper_voltage_levels();

    util::text_table table({"kernel", "SynTS cost", "PerCore cost", "raw gap (%)",
                            "identical-threads control (%)", "heterogeneity gain (%)"});

    double worst_advantage = 0.0;
    for (const auto kernel :
         {gpgpu::gpgpu_kernel::blackscholes, gpgpu::gpgpu_kernel::matrixmult,
          gpgpu::gpgpu_kernel::streamcluster, gpgpu::gpgpu_kernel::x264}) {
        const auto traces =
            gpgpu::execute_kernel(kernel, gpgpu::hd7970_valu_count, 6000, 42);

        // Characterize each VALU against the ALU netlist. The operand
        // stream drives the batched 64-lane path (bit-identical to scalar
        // stepping above the delay floor, which the models carry); one
        // corner's lane delays land in the histogram as a single bulk insert.
        const auto tables = circuit::make_corner_tables(stage.nl, lib, vm, corners);
        std::vector<core::empirical_error_model> models;
        const std::vector<double>& tnom = tables->nominal_period_ps;
        constexpr std::size_t lanes_max = circuit::dynamic_timing_simulator::max_batch_lanes;
        for (const auto& trace : traces) {
            circuit::dynamic_timing_simulator sim(stage.nl, tables);
            std::vector<util::histogram> hist;
            for (std::size_t c = 0; c < corners.size(); ++c) {
                hist.emplace_back(0.0, tnom[c] * 1.05, 256);
            }
            std::vector<std::uint64_t> lane_words(stage.nl.input_count());
            std::vector<double> delays(corners.size() * lanes_max);
            const std::span<const gpgpu::valu_instruction> insns(trace.instructions);
            for (std::size_t offset = 0; offset < insns.size(); offset += lanes_max) {
                const std::size_t lanes =
                    gpgpu::pack_valu_lanes(insns.subspan(offset), lane_words);
                sim.step_batch(lane_words, lanes,
                               std::span<double>(delays.data(), corners.size() * lanes));
                for (std::size_t c = 0; c < corners.size(); ++c) {
                    hist[c].add(std::span<const double>(delays).subspan(c * lanes, lanes));
                }
            }
            models.emplace_back(std::move(hist), tnom, 1.0, tables->delay_floor);
        }

        // SynTS vs Per-core over the 16 "threads" (equal work: SIMD
        // dispatch is balanced by construction).
        const core::config_space space = core::config_space::paper_grid(tnom);
        core::solver_input input;
        input.space = &space;
        for (std::size_t v = 0; v < models.size(); ++v) {
            input.workloads.push_back(core::thread_workload{6000, 1.0});
            input.error_models.push_back(&models[v]);
        }
        input.theta = core::equal_weight_theta(input);

        const double synts_cost = core::solve_synts_poly(input).weighted_cost;
        const double per_core_cost = core::solve_per_core_ts(input).weighted_cost;
        const double advantage = 100.0 * (1.0 - synts_cost / per_core_cost);

        // Control: literally identical threads (every VALU gets VALU 0's
        // error curve). Any remaining gap is the structural difference
        // between the per-core objective (en_i + theta * t_i each) and the
        // joint one (sum en + theta * max t) -- not heterogeneity.
        core::solver_input control = input;
        for (auto& curve : control.error_models) {
            curve = &models[0];
        }
        const double control_advantage =
            100.0 * (1.0 - core::solve_synts_poly(control).weighted_cost /
                               core::solve_per_core_ts(control).weighted_cost);
        const double heterogeneity_gain = advantage - control_advantage;
        worst_advantage = std::max(worst_advantage, heterogeneity_gain);

        table.begin_row();
        table.cell(std::string(gpgpu::gpgpu_kernel_name(kernel)));
        table.cell(synts_cost, 0);
        table.cell(per_core_cost, 0);
        table.cell(advantage, 2);
        table.cell(control_advantage, 2);
        table.cell(heterogeneity_gain, 2);
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("  largest heterogeneity-driven SynTS gain on the GPGPU: %.2f%%\n",
                worst_advantage);
    bench::note("The raw gap is a structural artifact of the per-core objective");
    bench::note("(it persists with literally identical threads -- see the control");
    bench::note("column); the *heterogeneity-driven* gain, which is the SynTS");
    bench::note("thesis, is ~0 on the GPGPU vs ~20% on the CMPs -- confirming the");
    bench::note("paper's decision to restrict the synergistic analysis to CMPs.");
    std::printf("\n");
    return 0;
}
