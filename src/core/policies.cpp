#include "core/policies.h"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <utility>

namespace synts::core {

std::string_view policy_name(policy_kind kind) noexcept
{
    switch (kind) {
    case policy_kind::nominal:
        return "Nominal";
    case policy_kind::no_ts:
        return "No-TS";
    case policy_kind::per_core_ts:
        return "Per-core TS";
    case policy_kind::synts_offline:
        return "SynTS (offline)";
    case policy_kind::synts_online:
        return "SynTS (online)";
    }
    return "?";
}

std::span<const policy_kind> all_policies() noexcept
{
    static constexpr std::array<policy_kind, policy_count> all = {
        policy_kind::nominal,       policy_kind::no_ts,
        policy_kind::per_core_ts,   policy_kind::synts_offline,
        policy_kind::synts_online,
    };
    return all;
}

policy_engine::policy_engine(sampling_config sampling)
    : sampling_(sampling)
{
}

std::vector<interval_outcome> policy_engine::run_interval_ladder(
    policy_kind kind, const solver_input& truth, std::span<const double> thetas,
    std::span<const interval_characterization* const> sampling_data) const
{
    std::vector<interval_solution> solutions;
    switch (kind) {
    case policy_kind::nominal:
        solutions = nominal_solution(truth, thetas);
        break;
    case policy_kind::no_ts:
        solutions = solve_no_ts(truth, thetas);
        break;
    case policy_kind::per_core_ts:
        solutions = solve_per_core_ts(truth, thetas);
        break;
    case policy_kind::synts_offline:
        solutions = solve_synts_poly(truth, thetas);
        break;
    case policy_kind::synts_online:
        return run_online(truth, sampling_data, truth.workloads, thetas);
    }
    std::vector<interval_outcome> outcomes(solutions.size());
    for (std::size_t t = 0; t < solutions.size(); ++t) {
        outcomes[t].solution = std::move(solutions[t]);
        outcomes[t].energy = outcomes[t].solution.total_energy;
        outcomes[t].time_ps = outcomes[t].solution.exec_time_ps;
    }
    return outcomes;
}

interval_outcome policy_engine::run_interval(
    policy_kind kind, const solver_input& truth,
    std::span<const interval_characterization* const> sampling_data) const
{
    return std::move(
        run_interval_ladder(kind, truth, std::span(&truth.theta, 1), sampling_data).front());
}

interval_outcome policy_engine::run_online_predicted(
    const solver_input& truth,
    std::span<const interval_characterization* const> sampling_data,
    std::span<const thread_workload> decision_workloads) const
{
    return std::move(run_online(truth, sampling_data, decision_workloads,
                                std::span(&truth.theta, 1))
                         .front());
}

std::vector<interval_outcome> policy_engine::run_online(
    const solver_input& truth,
    std::span<const interval_characterization* const> sampling_data,
    std::span<const thread_workload> decision_workloads,
    std::span<const double> thetas) const
{
    truth.validate();
    const std::size_t m = truth.thread_count();
    if (sampling_data.size() != m) {
        throw std::invalid_argument("policy_engine: synts_online needs per-thread "
                                    "characterization data");
    }
    if (decision_workloads.size() != m) {
        throw std::invalid_argument("policy_engine: decision workload count mismatch");
    }

    const online_estimator estimator(sampling_);

    // 1. Sampling phase on every thread (concurrent across cores; each
    //    thread pays its own time/energy).
    std::vector<sampling_result> samples;
    samples.reserve(m);
    std::vector<estimated_error_curve> curves;
    curves.reserve(m);
    for (std::size_t i = 0; i < m; ++i) {
        if (sampling_data[i] == nullptr) {
            throw std::invalid_argument("policy_engine: null characterization entry");
        }
        samples.push_back(estimator.sample_interval(*truth.space, *sampling_data[i],
                                                    truth.workloads[i].cpi_base,
                                                    truth.params));
        curves.push_back(samples.back().make_curve(*truth.space));
    }

    // 2. Plan the remaining interval with the *estimated* curves and the
    //    decision workloads (equal to the truth for plain online mode, or a
    //    predictor's output when the N_i assumption is dropped).
    solver_input estimated = truth;
    estimated.error_models.clear();
    for (std::size_t i = 0; i < m; ++i) {
        estimated.error_models.push_back(&curves[i]);
        estimated.workloads[i] = decision_workloads[i];
        estimated.workloads[i].instructions =
            decision_workloads[i].instructions >= samples[i].sampled_instructions
                ? decision_workloads[i].instructions - samples[i].sampled_instructions
                : 0;
    }
    const synts_plan plan(estimated);

    // 3. Evaluate each theta's pick under the TRUE error models and true
    //    workloads on the remaining instructions.
    solver_input actual = truth;
    for (std::size_t i = 0; i < m; ++i) {
        actual.workloads[i].instructions =
            truth.workloads[i].instructions >= samples[i].sampled_instructions
                ? truth.workloads[i].instructions - samples[i].sampled_instructions
                : 0;
    }
    std::vector<interval_solution> solutions =
        evaluate_ladder(actual, thetas, [&](double theta) { return plan.pick(theta); });

    // 4. Charge the sampling phase: each thread's wall time is sampling +
    //    remainder; the barrier closes at the slowest thread.
    std::vector<interval_outcome> outcomes(solutions.size());
    for (std::size_t t = 0; t < solutions.size(); ++t) {
        interval_outcome& outcome = outcomes[t];
        outcome.solution = std::move(solutions[t]);
        double barrier_time = 0.0;
        double total_energy = 0.0;
        for (std::size_t i = 0; i < m; ++i) {
            const double thread_time =
                samples[i].sampling_time_ps + outcome.solution.metrics[i].time_ps;
            barrier_time = std::max(barrier_time, thread_time);
            total_energy += samples[i].sampling_energy + outcome.solution.metrics[i].energy;
            outcome.sampling_energy += samples[i].sampling_energy;
            outcome.sampling_time_ps =
                std::max(outcome.sampling_time_ps, samples[i].sampling_time_ps);
        }
        outcome.energy = total_energy;
        outcome.time_ps = barrier_time;
    }
    return outcomes;
}

} // namespace synts::core
