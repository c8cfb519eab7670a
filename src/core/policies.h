// policies.h -- the five operating policies compared in the paper.
//
//   Nominal        -- highest voltage, r = 1 (no scaling, no speculation).
//   No-TS          -- joint DVFS, no speculation (Liu et al.-style balancing).
//   Per-core TS    -- independent per-core timing speculation with offline
//                     error knowledge (upper bound of Razor-like schemes).
//   SynTS-offline  -- Algorithm 1 with the true error curves.
//   SynTS-online   -- sampling phase -> estimated curves -> Algorithm 1 on
//                     the remaining interval; sampling cost charged.
//
// Policies are evaluated per barrier interval: decisions may come from
// estimates, but outcomes are always evaluated under the *true* error
// models.
//
// Every policy evaluates a theta ladder in one pass per interval: its
// theta-free plan (solver.h: the SynTS candidate set, the Per-core TS
// grids; for SynTS-online also the sampling phase and the estimated curves)
// is built once, and each theta picks from it with the solvers' tie rule
// (earliest candidate wins). A single theta is a ladder of one.

#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "core/online_estimator.h"
#include "core/solver.h"
#include "core/system_model.h"

namespace synts::core {

/// The compared schemes.
enum class policy_kind {
    nominal = 0,
    no_ts,
    per_core_ts,
    synts_offline,
    synts_online,
};

/// Number of policies.
inline constexpr std::size_t policy_count = 5;

/// Display name matching the paper's figures.
[[nodiscard]] std::string_view policy_name(policy_kind kind) noexcept;

/// All five policies in presentation order.
[[nodiscard]] std::span<const policy_kind> all_policies() noexcept;

/// Evaluated outcome of one policy on one barrier interval.
struct interval_outcome {
    /// Chosen configurations evaluated under the true error models (for
    /// SynTS-online: over the post-sampling remainder of the interval).
    interval_solution solution;
    /// Per-thread sampling overheads (zero for offline policies).
    double sampling_energy = 0.0;
    double sampling_time_ps = 0.0;
    /// Interval totals including sampling.
    double energy = 0.0;
    double time_ps = 0.0;

    /// Interval EDP.
    [[nodiscard]] double edp() const noexcept { return energy * time_ps; }
};

/// Evaluates policies on barrier intervals.
class policy_engine {
public:
    explicit policy_engine(sampling_config sampling = {});

    /// Runs `kind` on one interval at every theta of `thetas` (truth.theta
    /// is ignored); outcome t is evaluated with solver_input::theta =
    /// thetas[t]. `truth` carries the true error models and full-interval
    /// workloads. For synts_online, `sampling_data` must supply one
    /// interval_characterization per thread (the estimator's replay
    /// source); other policies ignore it.
    [[nodiscard]] std::vector<interval_outcome>
    run_interval_ladder(policy_kind kind, const solver_input& truth,
                        std::span<const double> thetas,
                        std::span<const interval_characterization* const> sampling_data =
                            {}) const;

    /// run_interval_ladder at the single theta truth.theta.
    [[nodiscard]] interval_outcome
    run_interval(policy_kind kind, const solver_input& truth,
                 std::span<const interval_characterization* const> sampling_data = {}) const;

    /// SynTS-online, but optimizing with *predicted* workloads (e.g. from a
    /// core::workload_predictor) instead of the true N_i / CPI_base_i --
    /// removing the paper's assumption that workload heterogeneity is known.
    /// Outcomes are still evaluated under the true workloads and curves.
    [[nodiscard]] interval_outcome
    run_online_predicted(const solver_input& truth,
                         std::span<const interval_characterization* const> sampling_data,
                         std::span<const thread_workload> decision_workloads) const;

private:
    sampling_config sampling_;

    [[nodiscard]] std::vector<interval_outcome>
    run_online(const solver_input& truth,
               std::span<const interval_characterization* const> sampling_data,
               std::span<const thread_workload> decision_workloads,
               std::span<const double> thetas) const;
};

} // namespace synts::core
