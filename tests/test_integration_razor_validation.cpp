// Cross-layer integration: the Razor replay of an actual sensitized-delay
// trace must agree with the empirical error model built from the same
// characterization -- and both must satisfy the Eq. 4.1 SPI identity.

#include <gtest/gtest.h>

#include "arch/razor.h"
#include "core/characterization.h"
#include "energy/energy_model.h"
#include "workload/splash2.h"

#include "helpers.h"

namespace {

using namespace synts;

class razor_validation : public ::testing::Test {
protected:
    static void SetUpTestSuite()
    {
        const auto lib = circuit::cell_library::standard_22nm();
        static circuit::voltage_model vm(0.04);
        core::characterization_config cfg;
        const core::characterizer chars(lib, vm, cfg);

        auto profile = workload::make_profile(workload::benchmark_id::radix, 4);
        profile.interval_count = 1;
        profile.instructions_per_interval = 8000;
        const auto program = workload::generate_program_trace(profile, 19);
        // The architectural profiles live with the artifacts, not the
        // per-stage characterization; keep both for the SPI identity test.
        // gtest static-fixture idiom; TearDownTestSuite deletes both.
        artifacts = new core::program_artifacts( // synts-lint: allow(naked-new)
            test::characterize_trace(program, cfg.core));
        characterization = new core::stage_characterization( // synts-lint: allow(naked-new)
            chars.characterize(*artifacts, circuit::pipe_stage::simple_alu));
    }

    static void TearDownTestSuite()
    {
        delete characterization;
        characterization = nullptr;
        delete artifacts;
        artifacts = nullptr;
    }

    static core::program_artifacts* artifacts;
    static core::stage_characterization* characterization;
};

core::program_artifacts* razor_validation::artifacts = nullptr;
core::stage_characterization* razor_validation::characterization = nullptr;

TEST_F(razor_validation, replay_matches_empirical_exceedance)
{
    const auto& sc = *characterization;
    const double tnom = sc.tnom_ps[0];
    for (std::size_t t = 0; t < sc.threads.size(); ++t) {
        const auto& data = sc.threads[t][0];
        const auto model = sc.make_error_model(t, 0);
        std::vector<double> delays(data.sampling_delays_ps.begin(),
                                   data.sampling_delays_ps.end());
        for (const double r : {0.64, 0.784, 0.928}) {
            const arch::razor_run_stats stats =
                arch::replay_delay_trace(delays, r * tnom, 0);
            // Per-vector error rate from replay vs histogram exceedance.
            EXPECT_NEAR(stats.error_probability(),
                        model.vector_error_probability(0, r), 0.01)
                << "thread " << t << " r " << r;
        }
    }
}

TEST_F(razor_validation, per_instruction_error_includes_drive_fraction)
{
    const auto& sc = *characterization;
    const auto& data = sc.threads[0][0];
    const auto model = sc.make_error_model(0, 0);
    const double drive = data.drive_fraction();
    EXPECT_GT(drive, 0.2);
    EXPECT_LT(drive, 0.9);
    EXPECT_NEAR(model.error_probability(0, 0.7),
                model.vector_error_probability(0, 0.7) * drive, 1e-12);
}

TEST_F(razor_validation, spi_identity_on_real_trace)
{
    const auto& sc = *characterization;
    const auto& data = sc.threads[0][0];
    const double tnom = sc.tnom_ps[0];
    const double cpi_base = artifacts->arch_profiles[0][0].cpi_base;

    std::vector<double> delays(data.sampling_delays_ps.begin(),
                               data.sampling_delays_ps.end());
    const double t_clk = 0.7 * tnom;
    // Base cycles for the *vectors* window.
    const auto base_cycles = static_cast<std::uint64_t>(
        cpi_base * static_cast<double>(delays.size()));
    const arch::razor_run_stats stats =
        arch::replay_delay_trace(delays, t_clk, base_cycles);

    const double expected = energy::seconds_per_instruction(
        t_clk, stats.error_probability(),
        static_cast<double>(base_cycles) / static_cast<double>(delays.size()),
        arch::razor_default_penalty_cycles);
    EXPECT_NEAR(stats.seconds_per_instruction(), expected, expected * 1e-9);
}

TEST_F(razor_validation, lower_voltage_corner_preserves_normalized_errors)
{
    // The paper's single-voltage sampling extrapolation: err(V, r) is
    // nearly voltage-independent. Check corners 0 and 4 (1.0 V vs 0.72 V).
    const auto& sc = *characterization;
    const auto model = sc.make_error_model(0, 0);
    for (const double r : {0.7, 0.8, 0.9}) {
        const double e0 = model.error_probability(0, r);
        const double e4 = model.error_probability(4, r);
        EXPECT_NEAR(e0, e4, 0.012 + 0.25 * e0) << "r=" << r;
    }
}

} // namespace
