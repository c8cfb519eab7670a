// Fig. 6.17: actual versus online-estimated error probability as a function
// of the timing speculation ratio, for one barrier interval of Radix
// (error scale ~1e-1) and FMM (~1e-3). N_samp = 10% of the interval,
// V_samp = nominal. The estimates must track the truth and, critically,
// always identify the timing-speculation-critical thread.

#include <cstdio>

#include "bench_common.h"
#include "core/experiment.h"
#include "core/online_estimator.h"
#include "util/table.h"

namespace {

using namespace synts;

void run_benchmark(workload::benchmark_id id)
{
    core::experiment_config cfg;
    const core::benchmark_experiment experiment(id, circuit::pipe_stage::simple_alu,
                                                cfg);
    const core::config_space& space = experiment.space();

    const core::online_estimator estimator(cfg.sampling);
    synts::energy::energy_params params;

    std::printf("  %s (sampling %0.f%% of the interval, V_samp = %.2f V):\n",
                workload::benchmark_name(id).data(), 100.0 * cfg.sampling.sample_fraction,
                space.voltage(cfg.sampling.sample_voltage_index));

    util::text_table table({"thread", "r", "actual", "estimated", "abs err"});
    double critical_actual = -1.0;
    std::size_t critical_thread_truth = 0;
    double critical_estimate = -1.0;
    std::size_t critical_thread_estimated = 0;

    for (std::size_t t = 0; t < experiment.thread_count(); ++t) {
        const auto& truth = experiment.error_model(t, 0);
        const auto sample = estimator.sample_interval(
            space, experiment.characterization().threads[t][0],
            experiment.arch_profiles()[t][0].cpi_base, params);
        const auto curve = sample.make_curve(space);

        for (std::size_t k = 0; k < space.tsr_count(); ++k) {
            const double r = space.tsr(k);
            const double actual = truth.error_probability(0, r);
            const double estimated = curve.error_probability(0, r);
            table.begin_row();
            table.cell(static_cast<long long>(t));
            table.cell(r, 3);
            table.cell(actual, 5);
            table.cell(estimated, 5);
            table.cell(std::abs(actual - estimated), 5);
        }
        const double deep_actual = truth.error_probability(0, space.tsr(0));
        const double deep_estimate = curve.error_probability(0, space.tsr(0));
        if (deep_actual > critical_actual) {
            critical_actual = deep_actual;
            critical_thread_truth = t;
        }
        if (deep_estimate > critical_estimate) {
            critical_estimate = deep_estimate;
            critical_thread_estimated = t;
        }
    }
    std::printf("%s", table.render(4).c_str());
    std::printf("    critical thread: actual T%zu, estimated T%zu -> %s\n\n",
                critical_thread_truth, critical_thread_estimated,
                critical_thread_truth == critical_thread_estimated
                    ? "identified correctly"
                    : "MISIDENTIFIED");
}

} // namespace

int main()
{
    bench::banner("Fig. 6.17",
                  "Actual vs online-estimated error probability (Radix, FMM)");
    run_benchmark(workload::benchmark_id::radix);
    run_benchmark(workload::benchmark_id::fmm);
    bench::note("Paper: '(1) the estimated error probabilities are close to the");
    bench::note("actual probabilities, and (2) importantly, the critical thread");
    bench::note("from a timing speculation perspective is always identified.'");
    std::printf("\n");
    return 0;
}
