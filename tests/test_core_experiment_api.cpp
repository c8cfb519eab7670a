// Driver-level API tests for core/experiment: theta sweeps, predicted-N
// mode, and the edge cases the figure benches rely on. One shared fixture
// keeps the (heavyweight) characterization to a single run.

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.h"

namespace {

using namespace synts;
using core::benchmark_experiment;
using core::experiment_config;
using core::policy_kind;

class barnes_experiment : public ::testing::Test {
protected:
    static void SetUpTestSuite()
    {
        core::experiment_config cfg;
        // gtest static-fixture idiom; TearDownTestSuite deletes it.
        experiment = new benchmark_experiment( // synts-lint: allow(naked-new)
            workload::benchmark_id::barnes,
                                              circuit::pipe_stage::simple_alu, cfg);
    }
    static void TearDownTestSuite()
    {
        delete experiment;
        experiment = nullptr;
    }
    static benchmark_experiment* experiment;
};

benchmark_experiment* barnes_experiment::experiment = nullptr;

TEST_F(barnes_experiment, make_solver_input_bounds)
{
    EXPECT_THROW((void)experiment->make_solver_input(99, 1.0), std::out_of_range);
    const auto input = experiment->make_solver_input(0, 1.0);
    EXPECT_EQ(input.thread_count(), 4u);
    EXPECT_NO_THROW(input.validate());
}

TEST_F(barnes_experiment, workloads_reflect_imbalance)
{
    // Thread 0 carries the most work per the calibrated profile.
    const auto input = experiment->make_solver_input(0, 1.0);
    for (std::size_t t = 1; t < input.thread_count(); ++t) {
        EXPECT_GT(input.workloads[0].instructions, input.workloads[t].instructions);
    }
}

TEST_F(barnes_experiment, run_all_policies_order_matches_enum)
{
    const double theta = experiment->equal_weight_theta();
    const auto runs = experiment->run_all_policies(theta);
    ASSERT_EQ(runs.size(), core::policy_count);
    for (std::size_t i = 0; i < runs.size(); ++i) {
        EXPECT_EQ(static_cast<std::size_t>(runs[i].kind), i);
    }
}

TEST_F(barnes_experiment, pareto_points_normalized_to_nominal)
{
    const std::vector<double> ones = {1.0};
    const auto nominal_points =
        core::pareto_sweep(*experiment, policy_kind::nominal, ones);
    ASSERT_EQ(nominal_points.size(), 1u);
    EXPECT_NEAR(nominal_points[0].energy, 1.0, 1e-12);
    EXPECT_NEAR(nominal_points[0].time, 1.0, 1e-12);
}

TEST_F(barnes_experiment, predicted_mode_close_to_online)
{
    const double theta = experiment->equal_weight_theta();
    const auto online = experiment->run_policy(policy_kind::synts_online, theta);
    const auto predicted = experiment->run_synts_online_predicted(theta);
    ASSERT_EQ(predicted.intervals.size(), online.intervals.size());
    // Intervals of a phase are similar; prediction costs at most a few
    // percent EDP over the true-N online mode (see bench_ext_predictor).
    EXPECT_LT(predicted.sum.edp(), online.sum.edp() * 1.10);
    EXPECT_GT(predicted.sum.edp(), online.sum.edp() * 0.90);
    // Interval 0 is bootstrapped with the true workloads, so the decisions
    // and outcomes must agree exactly there.
    EXPECT_DOUBLE_EQ(predicted.intervals[0].energy, online.intervals[0].energy);
}

TEST_F(barnes_experiment, theta_multipliers_are_log_spaced)
{
    const auto multipliers = core::default_theta_multipliers();
    ASSERT_GE(multipliers.size(), 5u);
    for (std::size_t i = 1; i < multipliers.size(); ++i) {
        EXPECT_NEAR(multipliers[i] / multipliers[i - 1], 2.0, 1e-12);
    }
}

TEST_F(barnes_experiment, equal_weight_theta_positive_and_stable)
{
    const double a = experiment->equal_weight_theta();
    const double b = experiment->equal_weight_theta();
    EXPECT_GT(a, 0.0);
    EXPECT_DOUBLE_EQ(a, b);
}

// --- digest drift guard -----------------------------------------------------
//
// The runtime's experiment cache trusts experiment_config::digest() (and the
// program tier trusts workload_digest()) to change whenever any
// result-affecting field changes. A field someone adds but forgets to fold
// in would silently serve stale cache entries; this table makes that a test
// failure instead. Every field of experiment_config -- including every
// energy_params and core_config field -- must appear here.

struct digest_perturbation {
    std::string name;
    std::function<void(experiment_config&)> mutate;
    /// True when the field feeds the stage-independent program artifacts
    /// (trace generation or architectural profiling), i.e. must also change
    /// workload_digest().
    bool affects_workload = false;
};

std::vector<digest_perturbation> digest_perturbations()
{
    return {
        {"thread_count", [](experiment_config& c) { c.thread_count = 8; }, true},
        {"seed", [](experiment_config& c) { c.seed = 7; }, true},
        {"sampling.sample_fraction",
         [](experiment_config& c) { c.sampling.sample_fraction = 0.25; }, false},
        {"sampling.sample_voltage_index",
         [](experiment_config& c) { c.sampling.sample_voltage_index += 1; }, false},
        {"sampling.min_sample_instructions",
         [](experiment_config& c) { c.sampling.min_sample_instructions += 100; }, false},
        {"characterization.histogram_bins",
         [](experiment_config& c) { c.characterization.histogram_bins = 256; }, false},
        {"characterization.histogram_headroom",
         [](experiment_config& c) { c.characterization.histogram_headroom = 1.25; },
         false},
        {"characterization.keep_sampling_trace",
         [](experiment_config& c) {
             c.characterization.keep_sampling_trace =
                 !c.characterization.keep_sampling_trace;
         },
         false},
        {"core.dcache.size_bytes",
         [](experiment_config& c) { c.characterization.core.dcache.size_bytes *= 2; },
         true},
        {"core.dcache.line_bytes",
         [](experiment_config& c) { c.characterization.core.dcache.line_bytes *= 2; },
         true},
        {"core.dcache.ways",
         [](experiment_config& c) { c.characterization.core.dcache.ways += 1; }, true},
        {"core.dcache.hit_latency_cycles",
         [](experiment_config& c) {
             c.characterization.core.dcache.hit_latency_cycles += 1;
         },
         true},
        {"core.dcache.miss_penalty_cycles",
         [](experiment_config& c) {
             c.characterization.core.dcache.miss_penalty_cycles += 6;
         },
         true},
        {"core.branch_mispredict_penalty",
         [](experiment_config& c) {
             c.characterization.core.branch_mispredict_penalty += 2;
         },
         true},
        {"core.mul_latency_cycles",
         [](experiment_config& c) { c.characterization.core.mul_latency_cycles += 1; },
         true},
        {"core.fp_latency_cycles",
         [](experiment_config& c) { c.characterization.core.fp_latency_cycles += 1; },
         true},
        {"core.predictor_index_bits",
         [](experiment_config& c) { c.characterization.core.predictor_index_bits += 1; },
         true},
        {"params.alpha_switching_cap",
         [](experiment_config& c) { c.params.alpha_switching_cap = 1.5; }, false},
        {"params.error_penalty_cycles",
         [](experiment_config& c) { c.params.error_penalty_cycles += 1; }, false},
        {"params.leakage_power",
         [](experiment_config& c) { c.params.leakage_power = 1e-6; }, false},
        {"voltage_class_spread",
         [](experiment_config& c) { c.voltage_class_spread = 0.0; }, false},
    };
}

TEST(experiment_tsr_grid, must_lie_above_the_delay_floor)
{
    // The experiment's error models and the online estimator's sampled
    // levels answer only above the characterization's delay floor, so
    // benchmark_experiment rejects a grid that reaches down to it.
    const std::vector<double> tnom(circuit::paper_voltage_levels().size(), 100.0);
    const core::config_space paper = core::config_space::paper_grid(tnom);
    EXPECT_NO_THROW(core::detail::check_tsr_grid(paper, 0.0));
    EXPECT_NO_THROW(core::detail::check_tsr_grid(paper, circuit::exact_delay_floor));
    EXPECT_THROW(core::detail::check_tsr_grid(paper, 0.64), std::invalid_argument);
    EXPECT_THROW(core::detail::check_tsr_grid(paper, 0.9), std::invalid_argument);
    const core::config_space deep(
        std::vector<double>(circuit::paper_voltage_levels().begin(),
                            circuit::paper_voltage_levels().end()),
        {0.2, 0.6, 1.0}, tnom);
    EXPECT_THROW(core::detail::check_tsr_grid(deep, circuit::exact_delay_floor),
                 std::invalid_argument);
    EXPECT_NO_THROW(core::detail::check_tsr_grid(deep, 0.0));
}

TEST(experiment_config_digest, is_stable_for_equal_configs)
{
    const experiment_config a;
    const experiment_config b;
    EXPECT_EQ(a.digest(), b.digest());
    EXPECT_EQ(a.workload_digest(), b.workload_digest());
}

TEST(experiment_config_digest, every_field_perturbation_changes_the_digest)
{
    const experiment_config base;
    for (const digest_perturbation& p : digest_perturbations()) {
        experiment_config changed = base;
        p.mutate(changed);
        EXPECT_NE(changed.digest(), base.digest()) << "field not in digest(): " << p.name;
    }
}

TEST(experiment_config_digest, workload_digest_tracks_exactly_the_workload_fields)
{
    const experiment_config base;
    for (const digest_perturbation& p : digest_perturbations()) {
        experiment_config changed = base;
        p.mutate(changed);
        if (p.affects_workload) {
            EXPECT_NE(changed.workload_digest(), base.workload_digest())
                << "workload field not in workload_digest(): " << p.name;
        } else {
            EXPECT_EQ(changed.workload_digest(), base.workload_digest())
                << "evaluation-only field leaked into workload_digest(): " << p.name
                << " (it would needlessly split the shared program tier)";
        }
    }
}

TEST(experiment_config_digest, perturbed_digests_are_pairwise_distinct)
{
    // A weak mixer could map two different single-field perturbations to one
    // digest; with FNV-1a over 64 bits any collision here is a bug, not luck.
    const experiment_config base;
    std::vector<std::uint64_t> digests{base.digest()};
    for (const digest_perturbation& p : digest_perturbations()) {
        experiment_config changed = base;
        p.mutate(changed);
        digests.push_back(changed.digest());
    }
    for (std::size_t i = 0; i < digests.size(); ++i) {
        for (std::size_t j = i + 1; j < digests.size(); ++j) {
            EXPECT_NE(digests[i], digests[j]) << "digest collision between perturbations";
        }
    }
}

} // namespace
