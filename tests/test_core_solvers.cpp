// Property tests for the optimizers: SynTS-Poly (Algorithm 1) must agree
// with exhaustive search (Lemma 4.2.1) and dominate every baseline in
// weighted cost, on randomized instances. Differential tests hold the
// theta-ladder path (plan once, pick per theta) to the per-theta reference
// solvers bit for bit.

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "core/solver.h"
#include "reference_solvers.h"
#include "solver_fixtures.h"
#include "util/rng.h"

namespace {

using namespace synts::core;
using synts::test::expect_same_solution;
using synts::test::make_random_instance;

class solver_property : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(solver_property, poly_equals_exhaustive)
{
    for (const auto& [m, q, s] :
         {std::tuple<std::size_t, std::size_t, std::size_t>{2, 2, 2},
          {3, 3, 2},
          {4, 2, 3},
          {2, 4, 4},
          {4, 3, 2}}) {
        auto inst = make_random_instance(m, q, s, GetParam() * 101 + m * 7 + q * 3 + s);
        const interval_solution poly = solve_synts_poly(inst.input);
        const interval_solution brute = solve_exhaustive(inst.input);
        ASSERT_NEAR(poly.weighted_cost, brute.weighted_cost,
                    1e-9 * std::max(1.0, brute.weighted_cost))
            << "M=" << m << " Q=" << q << " S=" << s;
    }
}

TEST_P(solver_property, poly_dominates_baselines)
{
    auto inst = make_random_instance(4, 4, 4, GetParam() * 31 + 5);
    const double optimal = solve_synts_poly(inst.input).weighted_cost;
    EXPECT_LE(optimal, solve_per_core_ts(inst.input).weighted_cost + 1e-9);
    EXPECT_LE(optimal, solve_no_ts(inst.input).weighted_cost + 1e-9);
    EXPECT_LE(optimal, nominal_solution(inst.input).weighted_cost + 1e-9);
}

TEST_P(solver_property, no_ts_dominates_nominal)
{
    // Nominal is a member of the No-TS search space.
    auto inst = make_random_instance(4, 4, 3, GetParam() * 17 + 2);
    EXPECT_LE(solve_no_ts(inst.input).weighted_cost,
              nominal_solution(inst.input).weighted_cost + 1e-9);
}

TEST_P(solver_property, no_ts_never_speculates)
{
    auto inst = make_random_instance(4, 3, 4, GetParam() * 13 + 3);
    const interval_solution sol = solve_no_ts(inst.input);
    for (const auto& a : sol.assignments) {
        EXPECT_EQ(a.tsr_index, inst.space->tsr_count() - 1);
    }
    for (const auto& m : sol.metrics) {
        EXPECT_DOUBLE_EQ(m.tsr, 1.0);
    }
}

TEST_P(solver_property, exec_time_non_increasing_in_theta)
{
    auto inst = make_random_instance(4, 4, 4, GetParam() * 7 + 1);
    const double base_theta = inst.input.theta;
    double previous_time = 1e300;
    for (const double multiplier : {0.1, 0.5, 1.0, 5.0, 25.0}) {
        inst.input.theta = base_theta * multiplier;
        const interval_solution sol = solve_synts_poly(inst.input);
        ASSERT_LE(sol.exec_time_ps, previous_time * (1.0 + 1e-9));
        previous_time = sol.exec_time_ps;
    }
}

TEST_P(solver_property, energy_non_decreasing_in_theta)
{
    auto inst = make_random_instance(4, 4, 4, GetParam() * 19 + 11);
    const double base_theta = inst.input.theta;
    double previous_energy = -1.0;
    for (const double multiplier : {0.1, 0.5, 1.0, 5.0, 25.0}) {
        inst.input.theta = base_theta * multiplier;
        const interval_solution sol = solve_synts_poly(inst.input);
        ASSERT_GE(sol.total_energy, previous_energy - 1e-9);
        previous_energy = sol.total_energy;
    }
}

/// A ladder around `input`'s own theta with the edge cases the pick must
/// resolve exactly as a fresh per-theta solve: zero, repeats, and extremes.
std::vector<double> edge_ladder(double theta)
{
    return {0.0,          theta,        theta, 1e-12,        1e12,         theta * 0.25,
            theta * 4.0,  0.0,          1e-12, theta * 1e-3, theta * 1e3,  theta};
}

using ladder_solver = std::function<std::vector<interval_solution>(
    const solver_input&, std::span<const double>)>;
using single_solver = std::function<interval_solution(const solver_input&)>;

/// The ladder solve of `input` equals, at every theta, both the per-theta
/// reference and a per-theta loop over the single-theta entry point.
void expect_ladder_matches(const solver_input& input, std::span<const double> thetas,
                           const ladder_solver& ladder, const single_solver& single,
                           const single_solver& reference)
{
    const std::vector<interval_solution> got = ladder(input, thetas);
    ASSERT_EQ(got.size(), thetas.size());
    solver_input at = input;
    for (std::size_t t = 0; t < thetas.size(); ++t) {
        at.theta = thetas[t];
        SCOPED_TRACE(testing::Message() << "theta[" << t << "] = " << thetas[t]);
        expect_same_solution(got[t], reference(at));
        expect_same_solution(got[t], single(at));
    }
}

void expect_all_ladders_match(const solver_input& input, std::span<const double> thetas)
{
    using synts::test::reference_no_ts;
    using synts::test::reference_nominal;
    using synts::test::reference_per_core_ts;
    using synts::test::reference_synts_poly;
    {
        SCOPED_TRACE("synts_poly");
        expect_ladder_matches(
            input, thetas,
            [](const solver_input& in, std::span<const double> th) {
                return solve_synts_poly(in, th);
            },
            [](const solver_input& in) { return solve_synts_poly(in); }, reference_synts_poly);
    }
    {
        SCOPED_TRACE("per_core_ts");
        expect_ladder_matches(
            input, thetas,
            [](const solver_input& in, std::span<const double> th) {
                return solve_per_core_ts(in, th);
            },
            [](const solver_input& in) { return solve_per_core_ts(in); },
            reference_per_core_ts);
    }
    {
        SCOPED_TRACE("no_ts");
        expect_ladder_matches(
            input, thetas,
            [](const solver_input& in, std::span<const double> th) {
                return solve_no_ts(in, th);
            },
            [](const solver_input& in) { return solve_no_ts(in); }, reference_no_ts);
    }
    {
        SCOPED_TRACE("nominal");
        expect_ladder_matches(
            input, thetas,
            [](const solver_input& in, std::span<const double> th) {
                return nominal_solution(in, th);
            },
            [](const solver_input& in) { return nominal_solution(in); }, reference_nominal);
    }
}

TEST_P(solver_property, ladder_equals_per_theta_reference)
{
    for (const auto& [m, q, s] :
         {std::tuple<std::size_t, std::size_t, std::size_t>{1, 3, 3},
          {2, 4, 4},
          {3, 7, 6},
          {4, 7, 6},
          {6, 3, 4}}) {
        auto inst = make_random_instance(m, q, s, GetParam() * 211 + m * 13 + q * 5 + s);
        SCOPED_TRACE(testing::Message() << "M=" << m << " Q=" << q << " S=" << s);
        expect_all_ladders_match(inst.input, edge_ladder(inst.input.theta));
    }
}

INSTANTIATE_TEST_SUITE_P(seeds, solver_property,
                         ::testing::Values(1ull, 2ull, 3ull, 4ull, 5ull, 6ull, 7ull,
                                           8ull));

TEST(solver_ladder, tie_resolves_to_earliest_candidate)
{
    // Voltage levels 0 and 1 are identical, so every (critical thread, 0, k)
    // candidate ties exactly with (critical thread, 1, k) at every theta.
    // Enumeration order puts level 0 first, and a strict < keeps it.
    auto inst = make_random_instance(3, 3, 4, 17);
    const std::vector<double> volts = {1.0, 1.0, 0.9};
    const std::vector<double> tnom = {100.0, 100.0, 125.0};
    const config_space tied(volts,
                            std::vector<double>(inst.space->tsr_levels().begin(),
                                                inst.space->tsr_levels().end()),
                            tnom);
    inst.input.space = &tied;
    inst.input.theta = equal_weight_theta(inst.input);
    const std::vector<double> thetas = edge_ladder(inst.input.theta);
    expect_all_ladders_match(inst.input, thetas);

    const synts_plan plan(inst.input);
    for (const double theta : thetas) {
        for (const thread_assignment& a : plan.pick(theta)) {
            EXPECT_NE(a.voltage_index, 1u) << "theta " << theta;
        }
    }
}

/// An error curve that answers NaN: every time and energy is NaN, so no
/// cost is ever below the best so far.
class nan_error_curve final : public error_curve {
public:
    [[nodiscard]] double error_probability(std::size_t, double) const override
    {
        return std::numeric_limits<double>::quiet_NaN();
    }
};

TEST(solver_ladder, no_feasible_candidate_keeps_default_assignments)
{
    auto inst = make_random_instance(2, 3, 3, 23);
    const nan_error_curve nan_curve;
    inst.input.error_models = {&nan_curve, &nan_curve};
    const std::vector<double> thetas = {0.0, 1.0, 1e12};
    expect_all_ladders_match(inst.input, thetas);

    const synts_plan plan(inst.input);
    for (const double theta : thetas) {
        for (const thread_assignment& a : plan.pick(theta)) {
            EXPECT_EQ(a, thread_assignment{});
        }
    }
}

TEST(solver_ladder, empty_ladder_and_negative_theta)
{
    auto inst = make_random_instance(3, 3, 3, 29);
    EXPECT_TRUE(solve_synts_poly(inst.input, std::span<const double>{}).empty());
    const std::vector<double> negative = {1.0, -1.0};
    EXPECT_THROW((void)solve_synts_poly(inst.input, negative), std::invalid_argument);
    EXPECT_THROW((void)solve_per_core_ts(inst.input, negative), std::invalid_argument);
}

TEST(solver_ladder, repeated_pick_still_rejects_negative_theta)
{
    // Nominal picks the same assignments at every theta, so -1.0 repeats the
    // pick at 1.0; the repeat is copied, but its theta is still validated.
    auto inst = make_random_instance(3, 3, 3, 31);
    const std::vector<double> negative = {1.0, -1.0};
    EXPECT_THROW((void)nominal_solution(inst.input, negative), std::invalid_argument);
    EXPECT_THROW((void)solve_no_ts(inst.input, negative), std::invalid_argument);
    const std::vector<thread_assignment> fixed(3);
    EXPECT_THROW((void)evaluate_ladder(inst.input, negative,
                                       [&](double) {
                                           return std::span<const thread_assignment>(fixed);
                                       }),
                 std::invalid_argument);
}

// ---- minEnergy staircase against the linear scan ----

constexpr double inf = std::numeric_limits<double>::infinity();
constexpr double nan = std::numeric_limits<double>::quiet_NaN();

/// Every query the staircase must answer like the scan: each grid time,
/// each pool value, and points between and beyond them.
void expect_staircase_matches_scan(const std::vector<double>& time_ps,
                                   const std::vector<double>& energy,
                                   std::span<const double> extra_queries)
{
    const min_energy_staircase stairs(time_ps, energy);
    std::vector<double> queries(time_ps.begin(), time_ps.end());
    queries.insert(queries.end(), extra_queries.begin(), extra_queries.end());
    for (const double texec : queries) {
        EXPECT_EQ(stairs.cheapest_within(texec),
                  synts::test::reference_cheapest_within(time_ps, energy, texec))
            << "texec " << texec;
    }
}

TEST(min_energy_staircase, matches_scan_on_adversarial_grids)
{
    // Small value pools force duplicate times, equal energies at different
    // indices, signed zeros, and +-inf/NaN in both times and energies.
    const std::vector<double> time_pool = {nan, -inf, -0.0, 0.0, 1.0, 1.0, 2.0, 3.0, inf};
    const std::vector<double> energy_pool = {nan, inf, -inf, -0.0, 0.0, 1.0, 1.0, 2.0, 5.0};
    const std::vector<double> queries = {nan, -inf, -1.0, -0.0, 0.0,  0.5,
                                         1.0, 1.5,  2.5,  3.0,  1e300, inf};
    synts::util::xoshiro256 rng(57);
    for (int trial = 0; trial < 3000; ++trial) {
        const std::size_t n = 1 + rng.uniform_below(48);
        std::vector<double> time_ps(n);
        std::vector<double> energy(n);
        for (std::size_t c = 0; c < n; ++c) {
            time_ps[c] = time_pool[rng.uniform_below(time_pool.size())];
            energy[c] = energy_pool[rng.uniform_below(energy_pool.size())];
        }
        SCOPED_TRACE(testing::Message() << "trial " << trial);
        expect_staircase_matches_scan(time_ps, energy, queries);
        if (HasFailure()) {
            return;
        }
    }
}

/// The staircase's answer for one grid and one deadline.
std::size_t cheapest(const std::vector<double>& time_ps, const std::vector<double>& energy,
                     double texec)
{
    return min_energy_staircase(time_ps, energy).cheapest_within(texec);
}

TEST(min_energy_staircase, ties_signed_zeros_and_exclusions)
{
    const std::vector<double> queries = {nan, -1.0, 0.0, 1.0, 2.0, 3.0, inf};
    // Equal energies at different indices and equal times: lowest index.
    const std::vector<double> tied_time = {2.0, 1.0, 1.0, 2.0};
    const std::vector<double> tied_energy = {3.0, 3.0, 3.0, 3.0};
    expect_staircase_matches_scan(tied_time, tied_energy, queries);
    EXPECT_EQ(cheapest(tied_time, tied_energy, 1.0), 1u);
    EXPECT_EQ(cheapest(tied_time, tied_energy, 2.0), 0u);
    // +0 and -0 compare equal: the lower index wins whichever sign it has.
    const std::vector<double> zero_time = {1.0, 1.0, 0.0};
    const std::vector<double> zero_energy = {0.0, -0.0, 0.0};
    expect_staircase_matches_scan(zero_time, zero_energy, queries);
    EXPECT_EQ(cheapest(zero_time, zero_energy, 0.0), 2u);
    EXPECT_EQ(cheapest(zero_time, zero_energy, 1.0), 0u);
    // NaN times never qualify; NaN and +inf energies never win; a NaN
    // deadline admits nothing.
    const std::vector<double> odd_time = {nan, 1.0, 1.0, 2.0};
    const std::vector<double> odd_energy = {0.0, nan, inf, 4.0};
    expect_staircase_matches_scan(odd_time, odd_energy, queries);
    EXPECT_EQ(cheapest(odd_time, odd_energy, 1.5), min_energy_staircase::none);
    EXPECT_EQ(cheapest(odd_time, odd_energy, inf), 3u);
    EXPECT_EQ(cheapest(odd_time, odd_energy, nan), min_energy_staircase::none);
    // A -inf energy wins (the plan then drops the candidate as infeasible).
    expect_staircase_matches_scan({3.0, 1.0, 2.0}, {1.0, -inf, -inf}, queries);
}

/// An error curve that answers from a per-(voltage, TSR) table, so a plan
/// can be fed +-inf/NaN times and energies.
class table_error_curve final : public error_curve {
public:
    table_error_curve(const config_space& space, std::vector<double> table)
        : space_(space), table_(std::move(table))
    {
    }
    [[nodiscard]] double error_probability(std::size_t voltage_index,
                                           double tsr) const override
    {
        for (std::size_t k = 0; k < space_.tsr_count(); ++k) {
            if (space_.tsr(k) == tsr) {
                return table_[voltage_index * space_.tsr_count() + k];
            }
        }
        return 0.0;
    }

private:
    const config_space& space_;
    std::vector<double> table_;
};

TEST(min_energy_staircase, plans_match_reference_on_adversarial_curves)
{
    // Duplicate voltage levels give duplicate times and equal energies at
    // different indices; inf and NaN error probabilities give inf/NaN
    // times and energies. Plans must match the scan-based reference.
    const std::vector<double> pool = {0.0, 0.0, 0.001, 0.02, 0.02, inf, nan};
    synts::util::xoshiro256 rng(61);
    for (int trial = 0; trial < 40; ++trial) {
        auto inst = make_random_instance(1 + trial % 4, 3, 3, 500 + trial);
        const config_space tied({1.0, 1.0, 0.9},
                                std::vector<double>(inst.space->tsr_levels().begin(),
                                                    inst.space->tsr_levels().end()),
                                {100.0, 100.0, 125.0});
        inst.input.space = &tied;
        std::vector<std::unique_ptr<table_error_curve>> curves;
        for (std::size_t i = 0; i < inst.input.thread_count(); ++i) {
            std::vector<double> table(tied.voltage_count() * tied.tsr_count());
            for (double& p : table) {
                p = pool[rng.uniform_below(pool.size())];
            }
            curves.push_back(std::make_unique<table_error_curve>(tied, std::move(table)));
            inst.input.error_models[i] = curves.back().get();
        }
        SCOPED_TRACE(testing::Message() << "trial " << trial);
        const std::vector<double> thetas = {0.0, 1e-3, 0.5, 1.0, 1.0, 40.0, 1e9};
        expect_all_ladders_match(inst.input, thetas);
        if (HasFailure()) {
            return;
        }
    }
}

TEST(solvers, per_core_ts_optimizes_each_thread_independently)
{
    auto inst = make_random_instance(3, 3, 3, 99);
    const interval_solution sol = solve_per_core_ts(inst.input);
    // No other config of thread 0 can improve its own en + theta * t.
    const auto& chosen = sol.assignments[0];
    const double chosen_cost =
        sol.metrics[0].energy + inst.input.theta * sol.metrics[0].time_ps;
    for (std::size_t j = 0; j < inst.space->voltage_count(); ++j) {
        for (std::size_t k = 0; k < inst.space->tsr_count(); ++k) {
            const thread_metrics m =
                evaluate_thread(*inst.space, inst.input.workloads[0],
                                *inst.input.error_models[0], thread_assignment{j, k},
                                inst.input.params);
            const double cost = m.energy + inst.input.theta * m.time_ps;
            ASSERT_GE(cost, chosen_cost - 1e-9) << j << "," << k;
        }
    }
    (void)chosen;
}

TEST(solvers, nominal_runs_everything_at_v0_r1)
{
    auto inst = make_random_instance(4, 3, 3, 123);
    const interval_solution sol = nominal_solution(inst.input);
    for (const auto& m : sol.metrics) {
        EXPECT_DOUBLE_EQ(m.vdd, inst.space->voltage(0));
        EXPECT_DOUBLE_EQ(m.tsr, 1.0);
    }
}

TEST(solvers, exhaustive_guards_search_space)
{
    auto inst = make_random_instance(10, 7, 6, 5);
    EXPECT_THROW((void)solve_exhaustive(inst.input, 1000), std::invalid_argument);
}

TEST(solvers, synts_exploits_heterogeneity)
{
    // Two threads with equal work: one error-prone, one error-free. SynTS
    // should not give both the same voltage: the clean thread can afford a
    // deeper speculation or lower voltage.
    auto inst = make_random_instance(2, 4, 4, 42);
    // Overwrite curves: thread 0 noisy, thread 1 clean.
    inst.curves[0] = std::make_unique<synthetic_error_curve>(0.98, 0.5, 0.4, 1.0);
    inst.curves[1] = std::make_unique<synthetic_error_curve>(0.55, 0.4, 0.001, 1.0);
    inst.input.error_models = {inst.curves[0].get(), inst.curves[1].get()};
    inst.input.workloads[0] = inst.input.workloads[1];
    inst.input.theta = equal_weight_theta(inst.input);

    const interval_solution sol = solve_synts_poly(inst.input);
    // The clean thread must speculate at least as deep as the noisy one.
    EXPECT_LE(sol.metrics[1].tsr, sol.metrics[0].tsr + 1e-12);
    // And the joint solution beats per-core TS.
    EXPECT_LE(sol.weighted_cost, solve_per_core_ts(inst.input).weighted_cost + 1e-9);
}

} // namespace
