#include "core/solver.h"

#include <algorithm>
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

} // namespace

min_energy_staircase::min_energy_staircase(std::span<const double> time_ps,
                                           std::span<const double> energy)
{
    constexpr double inf = std::numeric_limits<double>::infinity();
    std::vector<std::size_t> order;
    order.reserve(time_ps.size());
    for (std::size_t c = 0; c < time_ps.size(); ++c) {
        if (!std::isnan(time_ps[c]) && energy[c] < inf) {
            order.push_back(c);
        }
    }
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return time_ps[a] < time_ps[b]; });

    time_ps_.reserve(order.size());
    cheapest_.reserve(order.size());
    std::size_t best = none;
    for (const std::size_t c : order) {
        // Lexicographic (energy, index) minimum: equal to the first strict
        // < winner of an index-order scan over the same set.
        if (best == none || energy[c] < energy[best] ||
            (!(energy[best] < energy[c]) && c < best)) {
            best = c;
        }
        time_ps_.push_back(time_ps[c]);
        cheapest_.push_back(best);
    }
}

std::size_t min_energy_staircase::cheapest_within(double texec_ps) const noexcept
{
    if (std::isnan(texec_ps)) {
        return none;
    }
    const auto step = std::upper_bound(time_ps_.begin(), time_ps_.end(), texec_ps);
    return step == time_ps_.begin() ? none : cheapest_[step - time_ps_.begin() - 1];
}

synts_plan::synts_plan(const solver_input& input)
    : threads_(input.thread_count()), fallback_(input.thread_count())
{
    input.validate();
    const config_space& space = *input.space;
    const std::size_t m = threads_;
    const std::size_t q = space.voltage_count();
    const std::size_t s = space.tsr_count();
    const auto grids = precompute_grids(input);
    std::vector<min_energy_staircase> stairs;
    stairs.reserve(m);
    for (const thread_grid& grid : grids) {
        stairs.emplace_back(grid.time_ps, grid.energy);
    }

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
                    const std::size_t cheapest = stairs[l].cheapest_within(texec);
                    if (cheapest == min_energy_staircase::none ||
                        !std::isfinite(grids[l].energy[cheapest])) {
                        feasible = false;
                    } else {
                        energy += grids[l].energy[cheapest];
                        candidate[l] = thread_assignment{cheapest / s, cheapest % s};
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
