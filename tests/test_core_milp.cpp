// Tests for the reference SynTS-MILP model (Eqs. 4.5-4.10) and its exact
// branch-and-bound solver (tests/reference_milp.h), and SynTS-Poly's
// optimality against it.

#include <gtest/gtest.h>

#include "core/solver.h"
#include "reference_milp.h"
#include "solver_fixtures.h"

namespace {

using namespace synts::core;
using synts::test::branch_and_bound_stats;
using synts::test::make_random_instance;
using synts::test::milp_model;
using synts::test::solve_branch_and_bound;

TEST(milp_model, dimensions_and_counts)
{
    auto inst = make_random_instance(4, 7, 6, 3);
    const milp_model model = milp_model::build(inst.input);
    EXPECT_EQ(model.thread_count(), 4u);
    EXPECT_EQ(model.voltage_count(), 7u);
    EXPECT_EQ(model.tsr_count(), 6u);
    EXPECT_EQ(model.binary_variable_count(), 4u * 7u * 6u);
    EXPECT_EQ(model.constraint_count(), 8u); // M one-hot + M t_exec bounds
}

TEST(milp_model, coefficients_match_system_model)
{
    auto inst = make_random_instance(3, 3, 3, 7);
    const milp_model model = milp_model::build(inst.input);
    for (std::size_t i = 0; i < 3; ++i) {
        for (std::size_t j = 0; j < 3; ++j) {
            for (std::size_t k = 0; k < 3; ++k) {
                const thread_metrics m =
                    evaluate_thread(*inst.space, inst.input.workloads[i],
                                    *inst.input.error_models[i], thread_assignment{j, k},
                                    inst.input.params);
                ASSERT_DOUBLE_EQ(model.energy_coeff(i, j, k), m.energy);
                ASSERT_DOUBLE_EQ(model.time_coeff(i, j, k), m.time_ps);
            }
        }
    }
}

TEST(milp_model, objective_matches_evaluate_assignment)
{
    auto inst = make_random_instance(4, 3, 4, 11);
    const milp_model model = milp_model::build(inst.input);
    const std::vector<thread_assignment> assignment(4, thread_assignment{1, 2});
    const interval_solution sol = evaluate_assignment(inst.input, assignment);
    EXPECT_NEAR(model.objective(assignment), sol.weighted_cost,
                1e-9 * sol.weighted_cost);
}

TEST(milp_model, feasibility_checks)
{
    auto inst = make_random_instance(2, 2, 2, 13);
    const milp_model model = milp_model::build(inst.input);
    EXPECT_TRUE(model.is_feasible(std::vector<thread_assignment>{{0, 0}, {1, 1}}));
    EXPECT_FALSE(model.is_feasible(std::vector<thread_assignment>{{0, 0}}));
    EXPECT_FALSE(model.is_feasible(std::vector<thread_assignment>{{0, 0}, {2, 1}}));
}

TEST(milp_model, lp_string_structure)
{
    auto inst = make_random_instance(2, 2, 2, 17);
    const milp_model model = milp_model::build(inst.input);
    const std::string lp = model.to_lp_string();
    EXPECT_NE(lp.find("Minimize"), std::string::npos);
    EXPECT_NE(lp.find("Subject To"), std::string::npos);
    EXPECT_NE(lp.find("Binaries"), std::string::npos);
    EXPECT_NE(lp.find("t_exec"), std::string::npos);
    EXPECT_NE(lp.find("onehot_0"), std::string::npos);
    EXPECT_NE(lp.find("onehot_1"), std::string::npos);
    EXPECT_NE(lp.find("texec_bound_1"), std::string::npos);
    EXPECT_NE(lp.find("x_1_1_1"), std::string::npos);
    EXPECT_NE(lp.find("End"), std::string::npos);
}

class milp_property : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(milp_property, branch_and_bound_equals_poly)
{
    for (const auto& [m, q, s] :
         {std::tuple<std::size_t, std::size_t, std::size_t>{2, 3, 3},
          {4, 4, 4},
          {6, 3, 3},
          {3, 7, 6}}) {
        auto inst = make_random_instance(m, q, s, GetParam() * 211 + m + q + s);
        const interval_solution bnb = solve_branch_and_bound(inst.input);
        const interval_solution poly = solve_synts_poly(inst.input);
        ASSERT_NEAR(bnb.weighted_cost, poly.weighted_cost,
                    1e-9 * std::max(1.0, poly.weighted_cost))
            << "M=" << m << " Q=" << q << " S=" << s;
    }
}

TEST_P(milp_property, branch_and_bound_prunes)
{
    auto inst = make_random_instance(5, 5, 4, GetParam() * 7 + 100);
    branch_and_bound_stats stats;
    (void)solve_branch_and_bound(inst.input, &stats);
    EXPECT_GT(stats.nodes_expanded, 0u);
    EXPECT_GT(stats.nodes_pruned, 0u);
    // Without pruning the tree has (QS)^M ~ 3.2M leaves; expansion must be
    // far smaller.
    EXPECT_LT(stats.nodes_expanded, 1000000u);
}

INSTANTIATE_TEST_SUITE_P(seeds, milp_property,
                         ::testing::Values(1ull, 2ull, 3ull, 4ull, 5ull));

} // namespace
