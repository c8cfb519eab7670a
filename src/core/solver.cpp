#include "core/solver.h"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace synts::core {

namespace {

/// Precomputed per-thread evaluation grid: time and energy of every (j, k).
struct thread_grid {
    std::vector<double> time_ps; ///< [j * S + k]
    std::vector<double> energy;  ///< [j * S + k]
};

[[nodiscard]] std::vector<thread_grid> precompute_grids(const solver_input& input)
{
    const config_space& space = *input.space;
    const std::size_t q = space.voltage_count();
    const std::size_t s = space.tsr_count();

    std::vector<thread_grid> grids(input.thread_count());
    for (std::size_t i = 0; i < input.thread_count(); ++i) {
        thread_grid& grid = grids[i];
        grid.time_ps.resize(q * s);
        grid.energy.resize(q * s);
        for (std::size_t j = 0; j < q; ++j) {
            for (std::size_t k = 0; k < s; ++k) {
                const thread_metrics m =
                    evaluate_thread(space, input.workloads[i], *input.error_models[i],
                                    thread_assignment{j, k}, input.params);
                grid.time_ps[j * s + k] = m.time_ps;
                grid.energy[j * s + k] = m.energy;
            }
        }
    }
    return grids;
}

/// minEnergy procedure of Algorithm 1: cheapest config of thread `i` whose
/// execution time does not exceed `texec`. Returns its energy and writes
/// the winning assignment (untouched when infeasible -> +inf).
[[nodiscard]] double min_energy_within(const thread_grid& grid, std::size_t q,
                                       std::size_t s, double texec_ps,
                                       thread_assignment& chosen)
{
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < q; ++j) {
        for (std::size_t k = 0; k < s; ++k) {
            const std::size_t idx = j * s + k;
            if (grid.time_ps[idx] <= texec_ps && grid.energy[idx] < best) {
                best = grid.energy[idx];
                chosen = thread_assignment{j, k};
            }
        }
    }
    return best;
}

} // namespace

synts_plan::synts_plan(const solver_input& input)
    : threads_(input.thread_count()), fallback_(input.thread_count())
{
    input.validate();
    const config_space& space = *input.space;
    const std::size_t m = threads_;
    const std::size_t q = space.voltage_count();
    const std::size_t s = space.tsr_count();
    const auto grids = precompute_grids(input);

    std::vector<thread_assignment> candidate(m);

    // Iteratively demarcate each thread as the critical thread.
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < q; ++j) {
            for (std::size_t k = 0; k < s; ++k) {
                const std::size_t idx = j * s + k;
                const double texec = grids[i].time_ps[idx];
                double energy = grids[i].energy[idx];
                candidate[i] = thread_assignment{j, k};

                bool feasible = true;
                for (std::size_t l = 0; l < m && feasible; ++l) {
                    if (l == i) {
                        continue;
                    }
                    const double e =
                        min_energy_within(grids[l], q, s, texec, candidate[l]);
                    if (!std::isfinite(e)) {
                        feasible = false;
                    } else {
                        energy += e;
                    }
                }
                if (!feasible) {
                    continue;
                }
                energy_.push_back(energy);
                texec_ps_.push_back(texec);
                assignments_.insert(assignments_.end(), candidate.begin(), candidate.end());
            }
        }
    }
}

std::span<const thread_assignment> synts_plan::pick(const double theta) const
{
    double best_cost = std::numeric_limits<double>::infinity();
    std::span<const thread_assignment> best = fallback_;
    for (std::size_t c = 0; c < energy_.size(); ++c) {
        const double cost = energy_[c] + theta * texec_ps_[c];
        if (cost < best_cost) {
            best_cost = cost;
            best = std::span<const thread_assignment>(assignments_).subspan(c * threads_,
                                                                            threads_);
        }
    }
    return best;
}

interval_solution solve_synts_poly(const solver_input& input)
{
    return std::move(solve_synts_poly(input, std::span(&input.theta, 1)).front());
}

std::vector<interval_solution> solve_synts_poly(const solver_input& input,
                                                std::span<const double> thetas)
{
    const synts_plan plan(input);
    return evaluate_ladder(input, thetas, [&](double theta) { return plan.pick(theta); });
}

interval_solution solve_exhaustive(const solver_input& input,
                                   std::uint64_t max_combinations)
{
    input.validate();
    const config_space& space = *input.space;
    const std::size_t m = input.thread_count();
    const std::uint64_t per_thread =
        static_cast<std::uint64_t>(space.voltage_count()) * space.tsr_count();

    double combinations = 1.0;
    for (std::size_t i = 0; i < m; ++i) {
        combinations *= static_cast<double>(per_thread);
    }
    if (combinations > static_cast<double>(max_combinations)) {
        throw std::invalid_argument("solve_exhaustive: search space too large");
    }

    const auto grids = precompute_grids(input);
    const std::size_t s = space.tsr_count();

    std::vector<std::size_t> flat(m, 0); // flat config index per thread
    std::vector<thread_assignment> best(m);
    double best_cost = std::numeric_limits<double>::infinity();

    for (;;) {
        double energy = 0.0;
        double texec = 0.0;
        for (std::size_t i = 0; i < m; ++i) {
            energy += grids[i].energy[flat[i]];
            texec = std::max(texec, grids[i].time_ps[flat[i]]);
        }
        const double cost = energy + input.theta * texec;
        if (cost < best_cost) {
            best_cost = cost;
            for (std::size_t i = 0; i < m; ++i) {
                best[i] = thread_assignment{flat[i] / s, flat[i] % s};
            }
        }

        // Odometer increment.
        std::size_t digit = 0;
        while (digit < m) {
            if (++flat[digit] < per_thread) {
                break;
            }
            flat[digit] = 0;
            ++digit;
        }
        if (digit == m) {
            break;
        }
    }
    return evaluate_assignment(input, best);
}

interval_solution solve_per_core_ts(const solver_input& input)
{
    return std::move(solve_per_core_ts(input, std::span(&input.theta, 1)).front());
}

std::vector<interval_solution> solve_per_core_ts(const solver_input& input,
                                                 std::span<const double> thetas)
{
    input.validate();
    const config_space& space = *input.space;
    const std::size_t s = space.tsr_count();
    const auto grids = precompute_grids(input);

    std::vector<thread_assignment> chosen(input.thread_count());
    return evaluate_ladder(input, thetas, [&](double theta) {
        for (std::size_t i = 0; i < input.thread_count(); ++i) {
            chosen[i] = thread_assignment{};
            double best_cost = std::numeric_limits<double>::infinity();
            for (std::size_t j = 0; j < space.voltage_count(); ++j) {
                for (std::size_t k = 0; k < s; ++k) {
                    const std::size_t idx = j * s + k;
                    const double cost = grids[i].energy[idx] + theta * grids[i].time_ps[idx];
                    if (cost < best_cost) {
                        best_cost = cost;
                        chosen[i] = thread_assignment{j, k};
                    }
                }
            }
        }
        return std::span<const thread_assignment>(chosen);
    });
}

interval_solution solve_no_ts(const solver_input& input)
{
    return std::move(solve_no_ts(input, std::span(&input.theta, 1)).front());
}

std::vector<interval_solution> solve_no_ts(const solver_input& input,
                                           std::span<const double> thetas)
{
    input.validate();
    // Restrict the space to r = 1 by cloning with a single TSR level; the
    // assignment indices map back to the original space's last TSR level.
    const config_space& space = *input.space;
    const std::size_t last_tsr = space.tsr_count() - 1;

    const config_space restricted(
        std::vector<double>(space.voltages().begin(), space.voltages().end()),
        {1.0},
        std::vector<double>(space.tnom_levels_ps().begin(), space.tnom_levels_ps().end()));

    solver_input narrowed = input;
    narrowed.space = &restricted;
    const synts_plan plan(narrowed);

    // Re-express in the full space (k index -> last level) so metrics
    // reference the caller's space.
    std::vector<thread_assignment> remapped(input.thread_count());
    return evaluate_ladder(input, thetas, [&](double theta) {
        const std::span<const thread_assignment> picked = plan.pick(theta);
        for (std::size_t i = 0; i < remapped.size(); ++i) {
            remapped[i] = thread_assignment{picked[i].voltage_index, last_tsr};
        }
        return std::span<const thread_assignment>(remapped);
    });
}

interval_solution nominal_solution(const solver_input& input)
{
    return std::move(nominal_solution(input, std::span(&input.theta, 1)).front());
}

std::vector<interval_solution> nominal_solution(const solver_input& input,
                                                std::span<const double> thetas)
{
    input.validate();
    const std::vector<thread_assignment> assignments(input.thread_count(),
                                                     input.space->nominal_assignment());
    return evaluate_ladder(input, thetas,
                           [&](double) { return std::span<const thread_assignment>(assignments); });
}

} // namespace synts::core
