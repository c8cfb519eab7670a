// End-to-end integration through core/experiment: the paper's headline
// facts must hold in the full pipeline (workload -> arch -> circuit ->
// error models -> optimizers -> policies).

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/experiment.h"
#include "reference_solvers.h"

namespace {

using namespace synts;
using core::benchmark_experiment;
using core::policy_kind;

class radix_simple_alu : public ::testing::Test {
protected:
    static void SetUpTestSuite()
    {
        core::experiment_config cfg;
        // gtest static-fixture idiom; TearDownTestSuite deletes it.
        experiment = new benchmark_experiment( // synts-lint: allow(naked-new)
            workload::benchmark_id::radix,
                                              circuit::pipe_stage::simple_alu, cfg);
    }
    static void TearDownTestSuite()
    {
        delete experiment;
        experiment = nullptr;
    }
    static benchmark_experiment* experiment;
};

benchmark_experiment* radix_simple_alu::experiment = nullptr;

TEST_F(radix_simple_alu, dimensions)
{
    EXPECT_EQ(experiment->thread_count(), 4u);
    EXPECT_EQ(experiment->interval_count(), 3u);
    EXPECT_EQ(experiment->space().voltage_count(), 7u);
    EXPECT_EQ(experiment->space().tsr_count(), 6u);
}

TEST_F(radix_simple_alu, thread0_is_timing_speculation_critical)
{
    // Fig. 3.5: thread 0's error probability is several times the calmest
    // thread's, consistently across the speculative range.
    for (std::size_t k = 0; k < experiment->interval_count(); ++k) {
        const double t0 = experiment->error_model(0, k).error_probability(0, 0.64);
        const double t3 = experiment->error_model(3, k).error_probability(0, 0.64);
        ASSERT_GT(t0, 2.5 * t3) << "interval " << k;
        ASSERT_GT(t0, 0.01) << "interval " << k;
    }
}

TEST_F(radix_simple_alu, error_curves_monotone_and_zero_at_nominal)
{
    for (std::size_t t = 0; t < 4; ++t) {
        const auto& model = experiment->error_model(t, 0);
        double previous = 1.0;
        // From the grid's lowest level: the models refuse anything at or
        // below the characterization's delay floor.
        for (double r = core::config_space::default_tsr_levels().front(); r <= 1.0;
             r += 0.02) {
            const double e = model.error_probability(0, r);
            ASSERT_LE(e, previous + 1e-12);
            previous = e;
        }
        EXPECT_LT(model.error_probability(0, 1.0), 1e-4);
    }
}

TEST_F(radix_simple_alu, policy_ordering_at_equal_theta)
{
    const double theta = experiment->equal_weight_theta();
    const auto nominal = experiment->run_policy(policy_kind::nominal, theta);
    const auto no_ts = experiment->run_policy(policy_kind::no_ts, theta);
    const auto per_core = experiment->run_policy(policy_kind::per_core_ts, theta);
    const auto offline = experiment->run_policy(policy_kind::synts_offline, theta);
    const auto online = experiment->run_policy(policy_kind::synts_online, theta);

    auto cost = [theta](const benchmark_experiment::policy_run& run) {
        return run.sum.energy + theta * run.sum.time_ps;
    };

    // SynTS-offline optimizes the weighted cost: nothing beats it.
    EXPECT_LE(cost(offline), cost(nominal) + 1e-9);
    EXPECT_LE(cost(offline), cost(no_ts) + 1e-9);
    EXPECT_LE(cost(offline), cost(per_core) + 1e-9);
    EXPECT_LE(cost(offline), cost(online) + 1e-9);

    // Fig. 6.18 shape: SynTS beats Per-core TS and No-TS on EDP; online
    // pays a bounded overhead over offline.
    EXPECT_LT(offline.sum.edp(), per_core.sum.edp());
    EXPECT_LT(offline.sum.edp(), no_ts.sum.edp());
    EXPECT_LT(online.sum.edp(), per_core.sum.edp());
    EXPECT_GE(online.sum.edp(), offline.sum.edp() * 0.999);
    EXPECT_LT(online.sum.edp(), offline.sum.edp() * 1.35);
}

TEST_F(radix_simple_alu, online_sampling_overhead_visible)
{
    const double theta = experiment->equal_weight_theta();
    const auto online = experiment->run_policy(policy_kind::synts_online, theta);
    for (const auto& interval : online.intervals) {
        EXPECT_GT(interval.sampling_energy, 0.0);
        EXPECT_GT(interval.sampling_time_ps, 0.0);
    }
}

TEST_F(radix_simple_alu, pareto_sweep_brackets_nominal)
{
    const std::vector<double> multipliers = {0.125, 1.0, 8.0};
    const auto points =
        core::pareto_sweep(*experiment, policy_kind::synts_offline, multipliers);
    ASSERT_EQ(points.size(), 3u);
    // Larger theta -> faster, more energy; smaller -> slower, less energy.
    EXPECT_LE(points[2].time, points[0].time + 1e-9);
    EXPECT_LE(points[0].energy, points[2].energy + 1e-9);
    // SynTS never loses to Nominal in weighted cost; at the high-theta end
    // it must be strictly faster than nominal.
    EXPECT_LT(points[2].time, 1.0);
}

/// The 97-multiplier dense ladder, 2^(e/8) for e = -48..48.
std::vector<double> dense_multipliers()
{
    std::vector<double> multipliers;
    for (int e = -48; e <= 48; ++e) {
        multipliers.push_back(std::pow(2.0, e / 8.0));
    }
    return multipliers;
}

TEST_F(radix_simple_alu, dense_pareto_sweep_equals_per_theta_run_policy)
{
    using test::same_bits;
    const std::vector<double> multipliers = dense_multipliers();
    ASSERT_EQ(multipliers.size(), 97u);
    const double theta_eq = experiment->equal_weight_theta();
    const auto nominal = experiment->run_policy(policy_kind::nominal, theta_eq);
    for (const policy_kind kind : core::all_policies()) {
        SCOPED_TRACE(core::policy_name(kind));
        const auto points =
            core::pareto_sweep(*experiment, kind, multipliers, theta_eq, nominal);
        ASSERT_EQ(points.size(), multipliers.size());
        for (std::size_t t = 0; t < multipliers.size(); ++t) {
            const double theta = theta_eq * multipliers[t];
            const auto run = experiment->run_policy(kind, theta);
            EXPECT_TRUE(same_bits(points[t].theta, theta)) << t;
            EXPECT_TRUE(same_bits(points[t].energy, run.sum.energy / nominal.sum.energy))
                << t;
            EXPECT_TRUE(same_bits(points[t].time, run.sum.time_ps / nominal.sum.time_ps))
                << t;
        }
    }
}

TEST_F(radix_simple_alu, run_policy_equals_per_theta_reference)
{
    // Per-interval outcomes (weighted_cost included) at theta_eq, and the
    // interval-order totals over the dense ladder, against the per-theta
    // reference solvers.
    const double theta_eq = experiment->equal_weight_theta();
    std::vector<double> thetas;
    for (const double multiplier : dense_multipliers()) {
        thetas.push_back(theta_eq * multiplier);
    }
    const core::sampling_config sampling{};
    for (const policy_kind kind : core::all_policies()) {
        SCOPED_TRACE(core::policy_name(kind));
        auto reference_at = [&](std::size_t k, double theta) {
            const core::solver_input truth = experiment->make_solver_input(k, theta);
            std::vector<const core::interval_characterization*> sampling_data;
            for (std::size_t t = 0; t < experiment->thread_count(); ++t) {
                sampling_data.push_back(&experiment->characterization().threads[t][k]);
            }
            return test::reference_interval(kind, truth, sampling_data, sampling);
        };

        const auto run = experiment->run_policy(kind, theta_eq);
        ASSERT_EQ(run.intervals.size(), experiment->interval_count());
        for (std::size_t k = 0; k < experiment->interval_count(); ++k) {
            SCOPED_TRACE(testing::Message() << "interval " << k);
            test::expect_same_outcome(run.intervals[k], reference_at(k, theta_eq));
        }

        const auto sums = experiment->sweep_policy(kind, theta_eq, thetas).ladder;
        ASSERT_EQ(sums.size(), thetas.size());
        for (std::size_t t = 0; t < thetas.size(); ++t) {
            double energy = 0.0;
            double time_ps = 0.0;
            for (std::size_t k = 0; k < experiment->interval_count(); ++k) {
                const core::interval_outcome want = reference_at(k, thetas[t]);
                energy += want.energy;
                time_ps += want.time_ps;
            }
            EXPECT_TRUE(test::same_bits(sums[t].energy, energy)) << t;
            EXPECT_TRUE(test::same_bits(sums[t].time_ps, time_ps)) << t;
        }
    }
}

TEST_F(radix_simple_alu, one_pass_cell_equals_separate_runs)
{
    // sweep_policy / evaluate_policy_cell fold theta_eq and the ladder into
    // one pass per interval and copy repeated picks; every number must
    // equal a separate run_policy at that theta (a ladder of one), bit for
    // bit, whether or not the ladder is empty, holds theta_eq itself
    // (multiplier 1.0) or repeats a theta.
    using test::same_bits;
    const double theta_eq = experiment->equal_weight_theta();
    const auto nominal = experiment->run_policy(policy_kind::nominal, theta_eq);
    const std::vector<std::vector<double>> ladders = {
        {},
        {0.25, 0.5, 2.0, 8.0},
        {1.0, 0.5, 1.0, 3.0, 0.5, 1.0},
    };
    for (const policy_kind kind : core::all_policies()) {
        SCOPED_TRACE(core::policy_name(kind));
        const auto alone = experiment->run_policy(kind, theta_eq);
        for (const std::vector<double>& multipliers : ladders) {
            SCOPED_TRACE(testing::Message() << multipliers.size() << " rungs");
            std::vector<double> thetas;
            for (const double multiplier : multipliers) {
                thetas.push_back(theta_eq * multiplier);
            }
            const auto sweep = experiment->sweep_policy(kind, theta_eq, thetas);
            const auto cell =
                core::evaluate_policy_cell(*experiment, kind, multipliers, theta_eq, nominal);
            const auto points =
                core::pareto_sweep(*experiment, kind, multipliers, theta_eq, nominal);
            for (const auto* run : {&sweep.run, &cell.equal_weight}) {
                EXPECT_EQ(run->kind, kind);
                ASSERT_EQ(run->intervals.size(), alone.intervals.size());
                for (std::size_t k = 0; k < alone.intervals.size(); ++k) {
                    test::expect_same_outcome(run->intervals[k], alone.intervals[k]);
                }
                EXPECT_TRUE(same_bits(run->sum.energy, alone.sum.energy));
                EXPECT_TRUE(same_bits(run->sum.time_ps, alone.sum.time_ps));
            }
            ASSERT_EQ(sweep.ladder.size(), thetas.size());
            ASSERT_EQ(cell.pareto.size(), thetas.size());
            ASSERT_EQ(points.size(), thetas.size());
            for (std::size_t t = 0; t < thetas.size(); ++t) {
                const auto single = experiment->run_policy(kind, thetas[t]);
                EXPECT_TRUE(same_bits(sweep.ladder[t].energy, single.sum.energy)) << t;
                EXPECT_TRUE(same_bits(sweep.ladder[t].time_ps, single.sum.time_ps)) << t;
                const double energy = single.sum.energy / nominal.sum.energy;
                const double time = single.sum.time_ps / nominal.sum.time_ps;
                for (const core::pareto_point& p : {cell.pareto[t], points[t]}) {
                    EXPECT_TRUE(same_bits(p.theta, thetas[t])) << t;
                    EXPECT_TRUE(same_bits(p.energy, energy)) << t;
                    EXPECT_TRUE(same_bits(p.time, time)) << t;
                }
            }
        }
    }
}

TEST_F(radix_simple_alu, one_pass_rejects_negative_theta)
{
    const double theta_eq = experiment->equal_weight_theta();
    const std::vector<double> negative = {theta_eq, -theta_eq};
    for (const policy_kind kind : core::all_policies()) {
        SCOPED_TRACE(core::policy_name(kind));
        EXPECT_THROW((void)experiment->sweep_policy(kind, theta_eq, negative),
                     std::invalid_argument);
        EXPECT_THROW((void)experiment->sweep_policy(kind, -1.0, {}), std::invalid_argument);
    }
}

TEST(integration_fft, homogeneous_and_error_bound)
{
    core::experiment_config cfg;
    const benchmark_experiment fft(workload::benchmark_id::fft,
                                   circuit::pipe_stage::simple_alu, cfg);
    // Section 5.4: FFT error probabilities are high (no useful speculation)
    // and homogeneous across threads.
    double min_err = 1.0;
    double max_err = 0.0;
    for (std::size_t t = 0; t < fft.thread_count(); ++t) {
        const double e = fft.error_model(t, 0).error_probability(0, 0.928);
        min_err = std::min(min_err, e);
        max_err = std::max(max_err, e);
    }
    EXPECT_GT(min_err, 0.02);          // high errors even at mild speculation
    EXPECT_LT(max_err, 2.0 * min_err); // homogeneous across threads
}

TEST(integration_decode, cholesky_decode_heterogeneity)
{
    core::experiment_config cfg;
    const benchmark_experiment cholesky(workload::benchmark_id::cholesky,
                                        circuit::pipe_stage::decode, cfg);
    const double t0 = cholesky.error_model(0, 0).error_probability(0, 0.64);
    const double t2 = cholesky.error_model(2, 0).error_probability(0, 0.64);
    EXPECT_GT(t0, 2.0 * t2);
    EXPECT_GT(t0, 0.005);

    const double theta = cholesky.equal_weight_theta();
    const auto offline = cholesky.run_policy(policy_kind::synts_offline, theta);
    const auto per_core = cholesky.run_policy(policy_kind::per_core_ts, theta);
    EXPECT_LT(offline.sum.edp(), per_core.sum.edp());
}

TEST(integration_experiment, deterministic_across_runs)
{
    core::experiment_config cfg;
    cfg.seed = 7;
    const benchmark_experiment a(workload::benchmark_id::fmm,
                                 circuit::pipe_stage::simple_alu, cfg);
    const benchmark_experiment b(workload::benchmark_id::fmm,
                                 circuit::pipe_stage::simple_alu, cfg);
    const double theta = a.equal_weight_theta();
    EXPECT_DOUBLE_EQ(theta, b.equal_weight_theta());
    const auto ra = a.run_policy(policy_kind::synts_online, theta);
    const auto rb = b.run_policy(policy_kind::synts_online, theta);
    EXPECT_DOUBLE_EQ(ra.sum.energy, rb.sum.energy);
    EXPECT_DOUBLE_EQ(ra.sum.time_ps, rb.sum.time_ps);
}

} // namespace
