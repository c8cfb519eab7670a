// reference_solvers.h -- the per-theta optimizers and policy evaluation as
// they were before the solvers split into a theta-free plan and a per-theta
// pick: every call re-enumerates Algorithm 1 (or the Per-core TS grids) at
// one theta. Differential tests hold the ladder path to these bit for bit.

#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "core/online_estimator.h"
#include "core/policies.h"
#include "core/solver.h"
#include "core/system_model.h"

namespace synts::test {

/// Time and energy of every (j, k) of every thread: [thread][j * S + k].
struct reference_grids {
    std::vector<std::vector<double>> time_ps;
    std::vector<std::vector<double>> energy;
};

inline reference_grids make_reference_grids(const core::solver_input& input)
{
    const core::config_space& space = *input.space;
    const std::size_t s = space.tsr_count();
    reference_grids grids;
    for (std::size_t i = 0; i < input.thread_count(); ++i) {
        grids.time_ps.emplace_back();
        grids.energy.emplace_back();
        for (std::size_t j = 0; j < space.voltage_count(); ++j) {
            for (std::size_t k = 0; k < s; ++k) {
                const core::thread_metrics m = core::evaluate_thread(
                    space, input.workloads[i], *input.error_models[i],
                    core::thread_assignment{j, k}, input.params);
                grids.time_ps[i].push_back(m.time_ps);
                grids.energy[i].push_back(m.energy);
            }
        }
    }
    return grids;
}

/// Algorithm 1's minEnergy as a linear scan over one thread's configs: the
/// index of the config that is cheapest among those with time <= texec (the
/// first one found on ties, by a strict <), or min_energy_staircase::none
/// when no energy is below +inf.
inline std::size_t reference_cheapest_within(std::span<const double> time_ps,
                                             std::span<const double> energy,
                                             double texec)
{
    double cheapest = std::numeric_limits<double>::infinity();
    std::size_t chosen = core::min_energy_staircase::none;
    for (std::size_t c = 0; c < time_ps.size(); ++c) {
        if (time_ps[c] <= texec && energy[c] < cheapest) {
            cheapest = energy[c];
            chosen = c;
        }
    }
    return chosen;
}

/// Algorithm 1 at input.theta, enumerating and picking in one scan.
inline core::interval_solution reference_synts_poly(const core::solver_input& input)
{
    input.validate();
    const core::config_space& space = *input.space;
    const std::size_t m = input.thread_count();
    const std::size_t q = space.voltage_count();
    const std::size_t s = space.tsr_count();
    const reference_grids grids = make_reference_grids(input);

    double best_cost = std::numeric_limits<double>::infinity();
    std::vector<core::thread_assignment> best(m);
    std::vector<core::thread_assignment> candidate(m);
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < q; ++j) {
            for (std::size_t k = 0; k < s; ++k) {
                const double texec = grids.time_ps[i][j * s + k];
                double energy = grids.energy[i][j * s + k];
                candidate[i] = core::thread_assignment{j, k};
                bool feasible = true;
                for (std::size_t l = 0; l < m && feasible; ++l) {
                    if (l == i) {
                        continue;
                    }
                    const std::size_t c =
                        reference_cheapest_within(grids.time_ps[l], grids.energy[l], texec);
                    if (c == core::min_energy_staircase::none ||
                        !std::isfinite(grids.energy[l][c])) {
                        feasible = false;
                    } else {
                        energy += grids.energy[l][c];
                        candidate[l] = core::thread_assignment{c / s, c % s};
                    }
                }
                if (!feasible) {
                    continue;
                }
                const double cost = energy + input.theta * texec;
                if (cost < best_cost) {
                    best_cost = cost;
                    best = candidate;
                }
            }
        }
    }
    return core::evaluate_assignment(input, best);
}

/// Per-core TS at input.theta.
inline core::interval_solution reference_per_core_ts(const core::solver_input& input)
{
    input.validate();
    const std::size_t s = input.space->tsr_count();
    const reference_grids grids = make_reference_grids(input);
    std::vector<core::thread_assignment> chosen(input.thread_count());
    for (std::size_t i = 0; i < input.thread_count(); ++i) {
        double best_cost = std::numeric_limits<double>::infinity();
        for (std::size_t j = 0; j < input.space->voltage_count(); ++j) {
            for (std::size_t k = 0; k < s; ++k) {
                const double cost =
                    grids.energy[i][j * s + k] + input.theta * grids.time_ps[i][j * s + k];
                if (cost < best_cost) {
                    best_cost = cost;
                    chosen[i] = core::thread_assignment{j, k};
                }
            }
        }
    }
    return core::evaluate_assignment(input, chosen);
}

/// No-TS at input.theta: Algorithm 1 over the r = 1 space, remapped.
inline core::interval_solution reference_no_ts(const core::solver_input& input)
{
    input.validate();
    const core::config_space& space = *input.space;
    const core::config_space restricted(
        std::vector<double>(space.voltages().begin(), space.voltages().end()), {1.0},
        std::vector<double>(space.tnom_levels_ps().begin(), space.tnom_levels_ps().end()));
    core::solver_input narrowed = input;
    narrowed.space = &restricted;
    const core::interval_solution solution = reference_synts_poly(narrowed);
    std::vector<core::thread_assignment> remapped;
    for (const core::thread_assignment& a : solution.assignments) {
        remapped.push_back(core::thread_assignment{a.voltage_index, space.tsr_count() - 1});
    }
    return core::evaluate_assignment(input, remapped);
}

/// Nominal at input.theta.
inline core::interval_solution reference_nominal(const core::solver_input& input)
{
    const std::vector<core::thread_assignment> assignments(
        input.thread_count(), input.space->nominal_assignment());
    return core::evaluate_assignment(input, assignments);
}

/// SynTS-online at truth.theta: sample, estimate, solve, evaluate, charge.
inline core::interval_outcome
reference_online(const core::solver_input& truth,
                 std::span<const core::interval_characterization* const> sampling_data,
                 const core::sampling_config& sampling)
{
    const std::size_t m = truth.thread_count();
    const core::online_estimator estimator(sampling);
    std::vector<core::sampling_result> samples;
    std::vector<core::estimated_error_curve> curves;
    samples.reserve(m);
    curves.reserve(m);
    for (std::size_t i = 0; i < m; ++i) {
        samples.push_back(estimator.sample_interval(*truth.space, *sampling_data[i],
                                                    truth.workloads[i].cpi_base,
                                                    truth.params));
        curves.push_back(samples.back().make_curve(*truth.space));
    }
    core::solver_input estimated = truth;
    core::solver_input actual = truth;
    for (std::size_t i = 0; i < m; ++i) {
        estimated.error_models[i] = &curves[i];
        const std::uint64_t n = truth.workloads[i].instructions;
        const std::uint64_t remaining =
            n >= samples[i].sampled_instructions ? n - samples[i].sampled_instructions : 0;
        estimated.workloads[i].instructions = remaining;
        actual.workloads[i].instructions = remaining;
    }
    core::interval_outcome outcome;
    outcome.solution =
        core::evaluate_assignment(actual, reference_synts_poly(estimated).assignments);
    for (std::size_t i = 0; i < m; ++i) {
        outcome.time_ps = std::max(outcome.time_ps, samples[i].sampling_time_ps +
                                                        outcome.solution.metrics[i].time_ps);
        outcome.energy += samples[i].sampling_energy + outcome.solution.metrics[i].energy;
        outcome.sampling_energy += samples[i].sampling_energy;
        outcome.sampling_time_ps =
            std::max(outcome.sampling_time_ps, samples[i].sampling_time_ps);
    }
    return outcome;
}

/// Any policy on one interval at truth.theta.
inline core::interval_outcome
reference_interval(core::policy_kind kind, const core::solver_input& truth,
                   std::span<const core::interval_characterization* const> sampling_data,
                   const core::sampling_config& sampling = {})
{
    core::interval_outcome outcome;
    switch (kind) {
    case core::policy_kind::nominal:
        outcome.solution = reference_nominal(truth);
        break;
    case core::policy_kind::no_ts:
        outcome.solution = reference_no_ts(truth);
        break;
    case core::policy_kind::per_core_ts:
        outcome.solution = reference_per_core_ts(truth);
        break;
    case core::policy_kind::synts_offline:
        outcome.solution = reference_synts_poly(truth);
        break;
    case core::policy_kind::synts_online:
        return reference_online(truth, sampling_data, sampling);
    }
    outcome.energy = outcome.solution.total_energy;
    outcome.time_ps = outcome.solution.exec_time_ps;
    return outcome;
}

/// Bitwise double equality (NaN equals an identical NaN; -0 differs from 0).
inline bool same_bits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Asserts two solutions are equal bit for bit, field by field.
inline void expect_same_solution(const core::interval_solution& got,
                                 const core::interval_solution& want)
{
    ASSERT_EQ(got.assignments, want.assignments);
    ASSERT_EQ(got.metrics.size(), want.metrics.size());
    for (std::size_t i = 0; i < got.metrics.size(); ++i) {
        const core::thread_metrics& a = got.metrics[i];
        const core::thread_metrics& b = want.metrics[i];
        EXPECT_TRUE(same_bits(a.vdd, b.vdd)) << "thread " << i;
        EXPECT_TRUE(same_bits(a.tsr, b.tsr)) << "thread " << i;
        EXPECT_TRUE(same_bits(a.clock_period_ps, b.clock_period_ps)) << "thread " << i;
        EXPECT_TRUE(same_bits(a.error_probability, b.error_probability)) << "thread " << i;
        EXPECT_TRUE(same_bits(a.time_ps, b.time_ps)) << "thread " << i;
        EXPECT_TRUE(same_bits(a.energy, b.energy)) << "thread " << i;
    }
    EXPECT_TRUE(same_bits(got.exec_time_ps, want.exec_time_ps));
    EXPECT_TRUE(same_bits(got.total_energy, want.total_energy));
    EXPECT_TRUE(same_bits(got.weighted_cost, want.weighted_cost));
}

/// Asserts two interval outcomes are equal bit for bit.
inline void expect_same_outcome(const core::interval_outcome& got,
                                const core::interval_outcome& want)
{
    expect_same_solution(got.solution, want.solution);
    EXPECT_TRUE(same_bits(got.sampling_energy, want.sampling_energy));
    EXPECT_TRUE(same_bits(got.sampling_time_ps, want.sampling_time_ps));
    EXPECT_TRUE(same_bits(got.energy, want.energy));
    EXPECT_TRUE(same_bits(got.time_ps, want.time_ps));
}

} // namespace synts::test
