// reference_milp.h -- the SynTS-MILP formulation (Eqs. 4.5-4.10) and an
// exact solver over it: a test oracle for SynTS-Poly's optimality claim
// (Lemma 4.2.1), not a production path.
//
// The paper linearizes SynTS-OPT with binary variables x_ijk (thread i runs
// at voltage j, TSR k) and a continuous t_exec:
//
//   min  sum_ijk en_ijk x_ijk + theta * t_exec                      (4.5)
//   s.t. t_exec >= sum_jk time_ijk x_ijk     for all i              (4.6)
//        sum_jk x_ijk = 1                    for all i              (4.10)
//
// (4.7-4.9 define t_clk, p_err and en in terms of x and are substituted
// into the coefficients.) A standard MILP solver is not available offline,
// so `solve_branch_and_bound` is an exact solver exploiting the assignment
// structure: depth-first search over threads with an admissible lower bound
// (energy: per-thread minima; time: max of assigned times and unassigned
// per-thread minimum times). `to_lp_string()` emits the LP file a
// commercial solver would consume.

#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/system_model.h"

namespace synts::test {

/// Materialized coefficients of the SynTS-MILP instance.
class milp_model {
public:
    /// Builds the model from a solver input (computes en_ijk / time_ijk for
    /// every thread and grid point).
    [[nodiscard]] static milp_model build(const core::solver_input& input)
    {
        input.validate();
        const core::config_space& space = *input.space;

        milp_model model;
        model.m_ = input.thread_count();
        model.q_ = space.voltage_count();
        model.s_ = space.tsr_count();
        model.theta_ = input.theta;
        model.energy_.resize(model.m_ * model.q_ * model.s_);
        model.time_.resize(model.m_ * model.q_ * model.s_);
        for (std::size_t i = 0; i < model.m_; ++i) {
            for (std::size_t j = 0; j < model.q_; ++j) {
                for (std::size_t k = 0; k < model.s_; ++k) {
                    const core::thread_metrics metric = core::evaluate_thread(
                        space, input.workloads[i], *input.error_models[i],
                        core::thread_assignment{j, k}, input.params);
                    model.energy_[model.index(i, j, k)] = metric.energy;
                    model.time_[model.index(i, j, k)] = metric.time_ps;
                }
            }
        }
        return model;
    }

    /// M, Q, S.
    [[nodiscard]] std::size_t thread_count() const noexcept { return m_; }
    [[nodiscard]] std::size_t voltage_count() const noexcept { return q_; }
    [[nodiscard]] std::size_t tsr_count() const noexcept { return s_; }

    /// Number of binary variables: M * Q * S (plus one continuous t_exec).
    [[nodiscard]] std::size_t binary_variable_count() const noexcept { return m_ * q_ * s_; }

    /// Number of constraints: M one-hot (4.10) + M t_exec bounds (4.6).
    [[nodiscard]] std::size_t constraint_count() const noexcept { return 2 * m_; }

    /// en_ijk coefficient.
    [[nodiscard]] double energy_coeff(std::size_t i, std::size_t j, std::size_t k) const
    {
        return energy_[index(i, j, k)];
    }

    /// time_ijk coefficient (thread i's execution time at (j, k)).
    [[nodiscard]] double time_coeff(std::size_t i, std::size_t j, std::size_t k) const
    {
        return time_[index(i, j, k)];
    }

    /// theta of the objective.
    [[nodiscard]] double theta() const noexcept { return theta_; }

    /// Objective value of a complete assignment (Eq. 4.5 with t_exec at its
    /// binding value).
    [[nodiscard]] double objective(std::span<const core::thread_assignment> assignments) const
    {
        double energy = 0.0;
        double texec = 0.0;
        for (std::size_t i = 0; i < m_; ++i) {
            const std::size_t idx =
                index(i, assignments[i].voltage_index, assignments[i].tsr_index);
            energy += energy_[idx];
            texec = std::max(texec, time_[idx]);
        }
        return energy + theta_ * texec;
    }

    /// True when the assignment satisfies every constraint (one config per
    /// thread; t_exec is implied).
    [[nodiscard]] bool
    is_feasible(std::span<const core::thread_assignment> assignments) const
    {
        if (assignments.size() != m_) {
            return false;
        }
        return std::ranges::all_of(assignments, [&](const core::thread_assignment& a) {
            return a.voltage_index < q_ && a.tsr_index < s_;
        });
    }

    /// CPLEX-LP-format rendering of the full instance.
    [[nodiscard]] std::string to_lp_string() const
    {
        std::ostringstream lp;
        lp << "\\ SynTS-MILP (Eqs. 4.5-4.10): M=" << m_ << " Q=" << q_ << " S=" << s_
           << "\n";
        lp << "Minimize\n obj: ";
        bool first = true;
        for_each_variable([&](std::size_t i, std::size_t j, std::size_t k) {
            lp << (first ? "" : " + ") << energy_[index(i, j, k)] << " " << name(i, j, k);
            first = false;
        });
        lp << " + " << theta_ << " t_exec\n";

        lp << "Subject To\n";
        // Eq. 4.6: t_exec >= sum_jk time_ijk x_ijk  for each thread.
        for (std::size_t i = 0; i < m_; ++i) {
            lp << " texec_bound_" << i << ": t_exec";
            for (std::size_t j = 0; j < q_; ++j) {
                for (std::size_t k = 0; k < s_; ++k) {
                    lp << " - " << time_[index(i, j, k)] << " " << name(i, j, k);
                }
            }
            lp << " >= 0\n";
        }
        // Eq. 4.10: one-hot assignment per thread.
        for (std::size_t i = 0; i < m_; ++i) {
            lp << " onehot_" << i << ":";
            for (std::size_t j = 0; j < q_; ++j) {
                for (std::size_t k = 0; k < s_; ++k) {
                    lp << (j == 0 && k == 0 ? " " : " + ") << name(i, j, k);
                }
            }
            lp << " = 1\n";
        }

        lp << "Bounds\n t_exec >= 0\n";
        lp << "Binaries\n";
        for_each_variable(
            [&](std::size_t i, std::size_t j, std::size_t k) { lp << " " << name(i, j, k); });
        lp << "\nEnd\n";
        return lp.str();
    }

private:
    [[nodiscard]] std::size_t index(std::size_t i, std::size_t j, std::size_t k) const
    {
        return (i * q_ + j) * s_ + k;
    }

    [[nodiscard]] static std::string name(std::size_t i, std::size_t j, std::size_t k)
    {
        return "x_" + std::to_string(i) + "_" + std::to_string(j) + "_" + std::to_string(k);
    }

    template <typename Visit>
    void for_each_variable(Visit&& visit) const
    {
        for (std::size_t i = 0; i < m_; ++i) {
            for (std::size_t j = 0; j < q_; ++j) {
                for (std::size_t k = 0; k < s_; ++k) {
                    visit(i, j, k);
                }
            }
        }
    }

    std::size_t m_ = 0;
    std::size_t q_ = 0;
    std::size_t s_ = 0;
    double theta_ = 0.0;
    std::vector<double> energy_;
    std::vector<double> time_;
};

/// Search statistics of one solve_branch_and_bound call.
struct branch_and_bound_stats {
    std::uint64_t nodes_expanded = 0;
    std::uint64_t nodes_pruned = 0;
};

/// Exact branch-and-bound over the MILP's assignment structure. Returns the
/// same optimum as solve_synts_poly / solve_exhaustive; `stats`, when
/// given, receives the search's node counts.
[[nodiscard]] inline core::interval_solution
solve_branch_and_bound(const core::solver_input& input,
                       branch_and_bound_stats* stats = nullptr)
{
    const milp_model model = milp_model::build(input);
    const std::size_t m = model.thread_count();
    const std::size_t q = model.voltage_count();
    const std::size_t s = model.tsr_count();
    branch_and_bound_stats counts;

    // Per-thread minima used by the admissible lower bound.
    std::vector<double> min_energy(m, std::numeric_limits<double>::infinity());
    std::vector<double> min_time(m, std::numeric_limits<double>::infinity());
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < q; ++j) {
            for (std::size_t k = 0; k < s; ++k) {
                min_energy[i] = std::min(min_energy[i], model.energy_coeff(i, j, k));
                min_time[i] = std::min(min_time[i], model.time_coeff(i, j, k));
            }
        }
    }
    // Suffix sums/maxima over threads i..M-1 for O(1) bound queries.
    std::vector<double> suffix_min_energy(m + 1, 0.0);
    std::vector<double> suffix_min_time(m + 1, 0.0);
    for (std::size_t i = m; i-- > 0;) {
        suffix_min_energy[i] = suffix_min_energy[i + 1] + min_energy[i];
        suffix_min_time[i] = std::max(suffix_min_time[i + 1], min_time[i]);
    }

    std::vector<core::thread_assignment> current(m);
    std::vector<core::thread_assignment> best(m, input.space->nominal_assignment());
    double best_cost = model.objective(best);

    // Iterative DFS (thread, next (j, k) flat index, accumulated energy,
    // accumulated max time).
    struct frame {
        std::size_t thread;
        std::size_t next_flat;
        double energy_so_far;
        double time_so_far;
    };
    std::vector<frame> stack;
    stack.push_back({0, 0, 0.0, 0.0});

    const std::size_t per_thread = q * s;
    while (!stack.empty()) {
        frame& top = stack.back();
        if (top.thread == m) {
            const double cost = top.energy_so_far + model.theta() * top.time_so_far;
            if (cost < best_cost) {
                best_cost = cost;
                best = current;
            }
            stack.pop_back();
            continue;
        }
        if (top.next_flat >= per_thread) {
            stack.pop_back();
            continue;
        }
        const std::size_t flat = top.next_flat++;
        const std::size_t j = flat / s;
        const std::size_t k = flat % s;
        ++counts.nodes_expanded;

        const double energy = top.energy_so_far + model.energy_coeff(top.thread, j, k);
        const double time = std::max(top.time_so_far, model.time_coeff(top.thread, j, k));
        const double bound = energy + suffix_min_energy[top.thread + 1] +
                             model.theta() * std::max(time, suffix_min_time[top.thread + 1]);
        if (bound >= best_cost) {
            ++counts.nodes_pruned;
            continue;
        }
        current[top.thread] = core::thread_assignment{j, k};
        stack.push_back({top.thread + 1, 0, energy, time});
    }

    if (stats != nullptr) {
        *stats = counts;
    }
    return core::evaluate_assignment(input, best);
}

} // namespace synts::test
