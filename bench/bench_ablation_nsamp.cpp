// Ablation (Section 4.3 knobs): sampling-phase length N_samp.
//
// "Increasing N_samp provides more precise error estimates, but results in
// greater energy and execution time overheads during sampling." This bench
// sweeps the sampling fraction and reports the online EDP relative to
// offline, exposing the U-shape the paper's 10% operating point sits in.

#include <cstdio>

#include "bench_common.h"
#include "core/experiment.h"
#include "util/table.h"

int main()
{
    using namespace synts;
    using core::policy_kind;

    bench::banner("Ablation", "sampling fraction N_samp sweep (online EDP overhead)");

    util::text_table table({"benchmark", "sample fraction", "online/offline EDP",
                            "critical thread found"});

    for (const auto id : {workload::benchmark_id::radix, workload::benchmark_id::fmm}) {
        for (const double fraction : {0.02, 0.05, 0.10, 0.20, 0.40}) {
            core::experiment_config cfg;
            cfg.sampling.sample_fraction = fraction;
            cfg.sampling.min_sample_instructions = 60;
            const core::benchmark_experiment experiment(
                id, circuit::pipe_stage::simple_alu, cfg);
            const double theta = experiment.equal_weight_theta();
            const double offline =
                experiment.run_policy(policy_kind::synts_offline, theta).sum.edp();
            const double online =
                experiment.run_policy(policy_kind::synts_online, theta).sum.edp();

            // Critical-thread identification at this sampling length.
            const core::online_estimator estimator(cfg.sampling);
            synts::energy::energy_params params;
            std::size_t truth_critical = 0;
            std::size_t estimated_critical = 0;
            double truth_best = -1.0;
            double estimate_best = -1.0;
            for (std::size_t t = 0; t < experiment.thread_count(); ++t) {
                const double actual =
                    experiment.error_model(t, 0).error_probability(0, 0.64);
                if (actual > truth_best) {
                    truth_best = actual;
                    truth_critical = t;
                }
                const auto sample = estimator.sample_interval(
                    experiment.space(), experiment.characterization().threads[t][0],
                    experiment.arch_profiles()[t][0].cpi_base, params);
                if (sample.err_estimates.front() > estimate_best) {
                    estimate_best = sample.err_estimates.front();
                    estimated_critical = t;
                }
            }

            table.begin_row();
            table.cell(std::string(workload::benchmark_name(id)));
            table.cell(fraction, 2);
            table.cell(online / offline, 4);
            table.cell(std::string(truth_critical == estimated_critical ? "yes" : "NO"));
        }
    }
    std::printf("%s\n", table.render().c_str());
    bench::note("Small N_samp: noisy estimates (risk of misconfiguration);");
    bench::note("large N_samp: the phase itself dominates. The paper operates at 10%.");
    std::printf("\n");
    return 0;
}
