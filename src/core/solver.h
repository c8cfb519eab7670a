// solver.h -- optimizers for SynTS-OPT (Eq. 4.4) and the baselines.
//
//   * solve_synts_poly   -- Algorithm 1 (SynTS-Poly): enumerate the critical
//                           thread and its (V, r); give every other thread
//                           its cheapest config that still meets the
//                           critical thread's finish time. Exact
//                           (Lemma 4.2.1). minEnergy is a binary search in a
//                           per-thread staircase (configs sorted by time,
//                           running cheapest), so the plan costs
//                           O(M^2 QS log QS) instead of the scan's
//                           O(M^2 Q^2 S^2).
//   * solve_exhaustive   -- brute force over all (QS)^M joint assignments;
//                           ground truth for property tests (small M only).
//   * solve_per_core_ts  -- the Per-core TS baseline: each core minimizes
//                           its own en_i + theta * t_i independently (the
//                           best any single-core Razor-style scheme can do).
//   * solve_no_ts        -- the No-TS baseline: joint DVFS without timing
//                           speculation (r pinned to 1).
//   * nominal_solution   -- every core at the highest voltage, r = 1.
//
// Plan and pick. Only the last step of each optimizer depends on theta:
// Algorithm 1's candidate set (one per critical thread and (V, r), with its
// energy, t_exec and assignments) and Per-core TS's per-thread grids are
// theta-free. A Pareto sweep therefore builds that plan once per interval
// and picks from it per theta, O(M^2 QS log QS) once plus O(MQS) per theta.
// The pick scans the plan in enumeration order, computes exactly
// energy + theta * t_exec and keeps a candidate only when it is strictly
// below the best so far, so ties resolve to the earliest candidate. When no
// candidate is feasible the assignments stay default-constructed. The
// single-theta solvers are a ladder of one through the same code, and a
// ladder prices each distinct pick once (evaluate_ladder).

#pragma once

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "core/system_model.h"

namespace synts::core {

/// Algorithm 1's minEnergy over one thread's (V, r) grid: configs sorted by
/// time with a running lexicographic (energy, index) minimum, so a query is
/// one binary search. A config is eligible when its time is not NaN and its
/// energy is below +inf; the answer equals an index-order scan that keeps
/// the first config with time <= texec and energy strictly below the best
/// so far (tests/reference_solvers.h).
class min_energy_staircase {
public:
    /// No eligible config meets the deadline.
    static constexpr std::size_t none = static_cast<std::size_t>(-1);

    /// `time_ps[c]` and `energy[c]` of config c = j * S + k (equal sizes).
    min_energy_staircase(std::span<const double> time_ps, std::span<const double> energy);

    /// The cheapest eligible config with time <= texec_ps (lowest index on
    /// ties), or `none` when there is none or texec_ps is NaN.
    [[nodiscard]] std::size_t cheapest_within(double texec_ps) const noexcept;

private:
    std::vector<double> time_ps_;        ///< eligible configs' times, ascending
    std::vector<std::size_t> cheapest_;  ///< argmin over time_ps_[0..n]
};

/// The theta-free half of Algorithm 1: every feasible (critical thread,
/// voltage, TSR) candidate in enumeration order.
class synts_plan {
public:
    /// Enumerates the candidates of `input` (input.theta is not read).
    explicit synts_plan(const solver_input& input);

    /// The assignments minimizing energy + theta * t_exec (first candidate
    /// wins ties; default-constructed when none is feasible). The span
    /// lives as long as the plan.
    [[nodiscard]] std::span<const thread_assignment> pick(double theta) const;

private:
    std::size_t threads_ = 0;
    std::vector<double> energy_;                 ///< per candidate
    std::vector<double> texec_ps_;               ///< per candidate
    std::vector<thread_assignment> assignments_; ///< [candidate * M + thread]
    std::vector<thread_assignment> fallback_;    ///< M default assignments
};

/// Algorithm 1 (SynTS-Poly). Returns the optimal interval solution.
[[nodiscard]] interval_solution solve_synts_poly(const solver_input& input);

/// Algorithm 1 at every theta of `thetas` (input.theta is ignored); entry t
/// is evaluated with solver_input::theta = thetas[t].
[[nodiscard]] std::vector<interval_solution>
solve_synts_poly(const solver_input& input, std::span<const double> thetas);

/// Exhaustive search over all joint assignments. Intended for tests;
/// throws std::invalid_argument when (QS)^M exceeds `max_combinations`.
[[nodiscard]] interval_solution solve_exhaustive(const solver_input& input,
                                                 std::uint64_t max_combinations = 50'000'000);

/// Per-core timing speculation: independent per-thread minimization of
/// en_i + theta * t_i over the full (V, r) grid.
[[nodiscard]] interval_solution solve_per_core_ts(const solver_input& input);

/// Per-core TS at every theta of `thetas`, from one set of per-thread grids.
[[nodiscard]] std::vector<interval_solution>
solve_per_core_ts(const solver_input& input, std::span<const double> thetas);

/// Conventional joint DVFS (no timing speculation): SynTS restricted to
/// r = 1.
[[nodiscard]] interval_solution solve_no_ts(const solver_input& input);

/// No-TS at every theta of `thetas`: one SynTS plan over the r = 1 space,
/// remapped to the caller's last TSR level.
[[nodiscard]] std::vector<interval_solution>
solve_no_ts(const solver_input& input, std::span<const double> thetas);

/// The Nominal baseline: highest voltage, r = 1 for every thread.
[[nodiscard]] interval_solution nominal_solution(const solver_input& input);

/// Nominal at every theta of `thetas` (only weighted_cost moves).
[[nodiscard]] std::vector<interval_solution>
nominal_solution(const solver_input& input, std::span<const double> thetas);

/// Evaluates `pick(theta)` under `input` at every theta of `thetas`, with
/// solver_input::theta set to that theta: the shared tail of every ladder.
/// Each distinct pick is priced once: a pick equal to an earlier one copies
/// that solution and recomputes only weighted_cost, exactly as
/// evaluate_assignment does. Every theta is still validated (a negative one
/// throws std::invalid_argument).
template <typename Pick>
[[nodiscard]] std::vector<interval_solution>
evaluate_ladder(const solver_input& input, std::span<const double> thetas, Pick&& pick)
{
    solver_input at = input;
    std::vector<interval_solution> solutions;
    solutions.reserve(thetas.size());
    std::vector<std::size_t> distinct; // first solution of each distinct pick
    for (const double theta : thetas) {
        at.theta = theta;
        const std::span<const thread_assignment> picked = pick(theta);
        // Ladders are usually monotone, so a repeat is most often the last
        // distinct pick: search newest first.
        const auto earlier =
            std::find_if(distinct.rbegin(), distinct.rend(), [&](std::size_t d) {
                return std::ranges::equal(solutions[d].assignments, picked);
            });
        if (earlier == distinct.rend()) {
            distinct.push_back(solutions.size());
            solutions.push_back(evaluate_assignment(at, picked));
            continue;
        }
        at.validate();
        interval_solution repeat = solutions[*earlier];
        repeat.weighted_cost = repeat.total_energy + theta * repeat.exec_time_ps;
        solutions.push_back(std::move(repeat));
    }
    return solutions;
}

} // namespace synts::core
