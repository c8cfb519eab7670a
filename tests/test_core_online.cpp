// Tests for core/online_estimator: the Section 4.3 sampling phase.

#include <gtest/gtest.h>

#include <cmath>

#include "core/online_estimator.h"
#include "util/rng.h"

namespace {

using namespace synts::core;

/// Builds a synthetic interval characterization whose sampling-corner
/// delays follow a known exceedance curve: a `heavy_fraction` of vectors
/// carry delay 0.95 * tnom, the rest 0.3 * tnom. Every instruction drives
/// the stage.
interval_characterization make_interval(std::size_t instructions, double heavy_fraction,
                                        double tnom, std::uint64_t seed)
{
    interval_characterization data;
    data.instruction_count = instructions;
    synts::util::xoshiro256 rng(seed);
    for (std::size_t n = 0; n < instructions; ++n) {
        const double delay = rng.bernoulli(heavy_fraction) ? 0.95 * tnom : 0.3 * tnom;
        data.sampling_delays_ps.push_back(static_cast<float>(delay));
        data.sampling_instr_index.push_back(static_cast<std::uint32_t>(n));
        ++data.vector_count;
    }
    // Histograms are unused by the estimator but required by other users;
    // fill corner 0 minimally.
    data.delay_histograms.emplace_back(0.0, tnom * 1.05, 64);
    for (const float d : data.sampling_delays_ps) {
        data.delay_histograms[0].add(static_cast<double>(d));
    }
    return data;
}

config_space make_space(double tnom)
{
    return config_space::paper_grid(std::vector<double>{
        tnom, tnom * 1.13, tnom * 1.27, tnom * 1.39, tnom * 1.63, tnom * 2.21,
        tnom * 2.63});
}

TEST(estimated_curve, interpolates_and_clamps)
{
    const estimated_error_curve curve({0.6, 0.8, 1.0}, {0.3, 0.1, 0.0});
    EXPECT_DOUBLE_EQ(curve.error_probability(0, 0.6), 0.3);
    EXPECT_DOUBLE_EQ(curve.error_probability(3, 0.6), 0.3); // voltage ignored
    EXPECT_DOUBLE_EQ(curve.error_probability(0, 1.0), 0.0);
    EXPECT_DOUBLE_EQ(curve.error_probability(0, 0.7), 0.2);
    EXPECT_DOUBLE_EQ(curve.error_probability(0, 0.5), 0.3);  // clamp low
    EXPECT_DOUBLE_EQ(curve.error_probability(0, 1.1), 0.0);  // clamp high
}

TEST(estimated_curve, rejects_mismatched_arrays)
{
    EXPECT_THROW(estimated_error_curve({0.5, 1.0}, {0.1}), std::invalid_argument);
    EXPECT_THROW(estimated_error_curve({}, {}), std::invalid_argument);
}

TEST(online_estimator, rejects_bad_config)
{
    sampling_config cfg;
    cfg.sample_fraction = 0.0;
    EXPECT_THROW(online_estimator{cfg}, std::invalid_argument);
    cfg.sample_fraction = 1.5;
    EXPECT_THROW(online_estimator{cfg}, std::invalid_argument);
}

TEST(online_estimator, estimates_step_exceedance_curve)
{
    const double tnom = 1000.0;
    const config_space space = make_space(tnom);
    const double heavy = 0.08;
    const auto data = make_interval(60000, heavy, tnom, 5);

    sampling_config cfg;
    cfg.sample_fraction = 0.5; // large sample for a tight estimate
    const online_estimator estimator(cfg);
    synts::energy::energy_params params;
    const sampling_result result = estimator.sample_interval(space, data, 1.2, params);

    // Heavy vectors (0.95 tnom) error at r in {0.64 .. 0.928}; nothing
    // errors at r = 1.
    for (std::size_t k = 0; k + 1 < space.tsr_count(); ++k) {
        EXPECT_NEAR(result.err_estimates[k], heavy, 0.02) << "level " << k;
    }
    EXPECT_NEAR(result.err_estimates.back(), 0.0, 1e-12);
}

TEST(online_estimator, estimates_are_monotone_non_increasing)
{
    const double tnom = 500.0;
    const config_space space = make_space(tnom);
    const auto data = make_interval(20000, 0.05, tnom, 7);
    const online_estimator estimator;
    synts::energy::energy_params params;
    const sampling_result result = estimator.sample_interval(space, data, 1.0, params);
    for (std::size_t k = 1; k < result.err_estimates.size(); ++k) {
        ASSERT_LE(result.err_estimates[k], result.err_estimates[k - 1] + 1e-12);
    }
}

TEST(online_estimator, sampled_instruction_budget)
{
    const double tnom = 500.0;
    const config_space space = make_space(tnom);
    const auto data = make_interval(10000, 0.05, tnom, 9);
    sampling_config cfg;
    cfg.sample_fraction = 0.1;
    const online_estimator estimator(cfg);
    synts::energy::energy_params params;
    const sampling_result result = estimator.sample_interval(space, data, 1.0, params);
    EXPECT_EQ(result.sampled_instructions, 1000u);
    std::uint64_t total = 0;
    for (const auto n : result.instructions) {
        total += n;
    }
    EXPECT_EQ(total, result.sampled_instructions);
}

TEST(online_estimator, tiny_interval_levels_never_underflow)
{
    // Fewer instructions than TSR levels - 1: the last levels sample
    // nothing, and no level's count may wrap around below zero.
    const double tnom = 500.0;
    const config_space space = make_space(tnom);
    const double cpi_base = 1.5;
    const online_estimator estimator;
    const synts::energy::energy_params params;
    for (const std::size_t n : {0u, 3u, 5u}) {
        SCOPED_TRACE(testing::Message() << "instruction_count = " << n);
        const auto data = make_interval(n, 0.5, tnom, 13 + n);
        const sampling_result result = estimator.sample_interval(space, data, cpi_base, params);
        EXPECT_EQ(result.sampled_instructions, n);
        std::uint64_t total = 0;
        for (std::size_t k = 0; k < result.instructions.size(); ++k) {
            EXPECT_LE(result.instructions[k], result.sampled_instructions) << "level " << k;
            EXPECT_LE(result.errors[k], result.instructions[k]) << "level " << k;
            total += result.instructions[k];
        }
        EXPECT_EQ(total, result.sampled_instructions);

        // Every sampled instruction failing at the slowest sampling clock
        // bounds the phase's cost.
        const double max_time = synts::energy::thread_execution_time(
            n, tnom, 1.0, cpi_base, params.error_penalty_cycles);
        const double max_energy = synts::energy::thread_energy(
            params, space.voltage(0), n, 1.0, cpi_base);
        EXPECT_TRUE(std::isfinite(result.sampling_time_ps));
        EXPECT_TRUE(std::isfinite(result.sampling_energy));
        EXPECT_GE(result.sampling_time_ps, 0.0);
        EXPECT_GE(result.sampling_energy, 0.0);
        EXPECT_LE(result.sampling_time_ps, max_time);
        EXPECT_LE(result.sampling_energy, max_energy);
    }
}

TEST(online_estimator, respects_min_sample_floor)
{
    const double tnom = 500.0;
    const config_space space = make_space(tnom);
    const auto data = make_interval(2000, 0.05, tnom, 11);
    sampling_config cfg;
    cfg.sample_fraction = 0.01; // would be 20 instructions
    cfg.min_sample_instructions = 600;
    const online_estimator estimator(cfg);
    synts::energy::energy_params params;
    const sampling_result result = estimator.sample_interval(space, data, 1.0, params);
    EXPECT_EQ(result.sampled_instructions, 600u);
}

TEST(online_estimator, sampling_costs_positive_and_scale)
{
    const double tnom = 500.0;
    const config_space space = make_space(tnom);
    const auto data = make_interval(50000, 0.05, tnom, 13);
    synts::energy::energy_params params;

    sampling_config small;
    small.sample_fraction = 0.05;
    sampling_config large;
    large.sample_fraction = 0.20;
    const sampling_result a = online_estimator(small).sample_interval(space, data, 1.0,
                                                                      params);
    const sampling_result b = online_estimator(large).sample_interval(space, data, 1.0,
                                                                      params);
    EXPECT_GT(a.sampling_time_ps, 0.0);
    EXPECT_GT(a.sampling_energy, 0.0);
    EXPECT_GT(b.sampling_time_ps, 2.0 * a.sampling_time_ps);
    EXPECT_GT(b.sampling_energy, 2.0 * a.sampling_energy);
}

TEST(online_estimator, estimation_improves_with_sample_size)
{
    const double tnom = 800.0;
    const config_space space = make_space(tnom);
    const double heavy = 0.06;

    auto estimate_error = [&](double fraction, std::uint64_t seed) {
        const auto data = make_interval(40000, heavy, tnom, seed);
        sampling_config cfg;
        cfg.sample_fraction = fraction;
        const online_estimator estimator(cfg);
        synts::energy::energy_params params;
        const sampling_result result = estimator.sample_interval(space, data, 1.0,
                                                                 params);
        // Average absolute estimation error over the speculative levels.
        double total = 0.0;
        for (std::size_t k = 0; k + 1 < space.tsr_count(); ++k) {
            total += std::abs(result.err_estimates[k] - heavy);
        }
        return total / static_cast<double>(space.tsr_count() - 1);
    };

    double small_error = 0.0;
    double large_error = 0.0;
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        small_error += estimate_error(0.02, 100 + seed);
        large_error += estimate_error(0.60, 200 + seed);
    }
    EXPECT_LT(large_error, small_error);
}

TEST(online_estimator, requires_sampling_trace)
{
    const double tnom = 500.0;
    const config_space space = make_space(tnom);
    interval_characterization data = make_interval(1000, 0.05, tnom, 15);
    data.sampling_instr_index.pop_back(); // corrupt alignment
    const online_estimator estimator;
    synts::energy::energy_params params;
    EXPECT_THROW((void)estimator.sample_interval(space, data, 1.0, params),
                 std::invalid_argument);
}

} // namespace
