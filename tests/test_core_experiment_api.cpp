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

/// An error model over empty histograms shaped as the characterizer shapes
/// them, [0, headroom * tnom) with `bins` bins per corner: what it refuses
/// depends only on that shape and the floor, not on the counts.
core::empirical_error_model grid_probe_model(const std::vector<double>& tnom,
                                             std::size_t bins, double delay_floor)
{
    const core::characterization_config shape;
    std::vector<util::histogram> hists;
    for (const double t : tnom) {
        hists.emplace_back(0.0, t * shape.histogram_headroom, bins);
    }
    return core::empirical_error_model(hists, tnom, 1.0, delay_floor);
}

TEST(experiment_tsr_grid, must_lie_above_the_delay_floor)
{
    // The experiment's error models and the online estimator's sampled
    // levels answer only above the characterization's delay floor, so
    // benchmark_experiment rejects a grid that reaches down to it.
    const std::vector<double> tnom(circuit::paper_voltage_levels().size(), 100.0);
    const std::size_t bins = core::characterization_config{}.histogram_bins;
    const core::config_space paper = core::config_space::paper_grid(tnom);
    EXPECT_NO_THROW(core::detail::check_tsr_grid(paper, grid_probe_model(tnom, bins, 0.0)));
    EXPECT_NO_THROW(core::detail::check_tsr_grid(
        paper, grid_probe_model(tnom, bins, circuit::exact_delay_floor)));
    EXPECT_THROW(core::detail::check_tsr_grid(paper, grid_probe_model(tnom, bins, 0.64)),
                 std::invalid_argument);
    EXPECT_THROW(core::detail::check_tsr_grid(paper, grid_probe_model(tnom, bins, 0.9)),
                 std::invalid_argument);
    const core::config_space deep(
        std::vector<double>(circuit::paper_voltage_levels().begin(),
                            circuit::paper_voltage_levels().end()),
        {0.2, 0.6, 1.0}, tnom);
    EXPECT_THROW(core::detail::check_tsr_grid(
                     deep, grid_probe_model(tnom, bins, circuit::exact_delay_floor)),
                 std::invalid_argument);
    EXPECT_THROW(core::detail::check_tsr_grid(deep, grid_probe_model(tnom, bins, 0.25)),
                 std::invalid_argument);
    EXPECT_NO_THROW(core::detail::check_tsr_grid(deep, grid_probe_model(tnom, bins, 0.0)));
}

TEST(experiment_tsr_grid, default_floor_lies_below_the_paper_grid)
{
    EXPECT_LT(circuit::exact_delay_floor, core::config_space::default_tsr_levels().front());
}

TEST(experiment_tsr_grid, must_clear_the_floor_bin_at_every_corner)
{
    // The default 512 bins put 0.63 * tnom and 0.64 * tnom in different
    // bins, so the paper grid passes. At 32 bins (width 1.05 / 32 of tnom)
    // both land in bin 19: the grid lies above the floor, but its lowest
    // level lies in the floor's bin, which the error model refuses.
    const std::vector<double> tnom = {100.0, 110.0, 125.0, 140.0, 160.0, 185.0, 215.0};
    const core::config_space paper = core::config_space::paper_grid(tnom);
    const auto fine = grid_probe_model(tnom, 512, circuit::exact_delay_floor);
    const auto coarse = grid_probe_model(tnom, 32, circuit::exact_delay_floor);
    EXPECT_NO_THROW(core::detail::check_tsr_grid(paper, fine));
    EXPECT_THROW(core::detail::check_tsr_grid(paper, coarse), std::invalid_argument);
    for (std::size_t c = 0; c < tnom.size(); ++c) {
        const double lowest = paper.tsr_levels().front();
        EXPECT_NO_THROW((void)fine.vector_error_probability(c, lowest)) << c;
        EXPECT_THROW((void)coarse.vector_error_probability(c, lowest), std::invalid_argument)
            << c;
    }
}

TEST(experiment_tsr_grid, coarse_histograms_fail_when_the_experiment_is_built)
{
    // End to end: a config whose histograms put the grid's lowest level in
    // the floor's bin fails at construction, not at its first query.
    experiment_config cfg;
    cfg.characterization.histogram_bins = 32;
    EXPECT_THROW(benchmark_experiment(workload::benchmark_id::radix,
                                      circuit::pipe_stage::decode, cfg),
                 std::invalid_argument);
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
