// experiment.h -- benchmark-level experiment driver.
//
// Ties the whole reproduction together: generate the SPLASH-2 program
// trace, run the cross-layer characterization for a pipe stage, build the
// config space from the stage's per-voltage nominal periods, and evaluate
// any policy over all barrier intervals. This is the entry point used by
// the examples and by every figure bench.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "circuit/cell_library.h"
#include "circuit/netlist_builder.h"
#include "circuit/voltage_model.h"
#include "core/characterization.h"
#include "core/program_artifacts.h"
#include "core/workload_predictor.h"
#include "core/config_space.h"
#include "core/policies.h"
#include "util/parallel.h"
#include "workload/splash2.h"

namespace synts::core {

/// Experiment-wide knobs.
struct experiment_config {
    std::size_t thread_count = 4;     ///< M (the paper's CMP study uses 4)
    std::uint64_t seed = 42;          ///< workload generation seed
    sampling_config sampling{};       ///< SynTS-online knobs
    characterization_config characterization{};
    energy::energy_params params{};
    double voltage_class_spread = 0.04; ///< see voltage_model (0 = uniform)

    /// Stable 64-bit digest over the fields that determine the
    /// stage-INDEPENDENT program artifacts (trace + architectural
    /// profiles): thread_count, seed, and every core-model knob. Two
    /// configs with equal workload digests generate identical
    /// program_artifacts, so the runtime's program-tier cache may share one
    /// artifact set between them -- across all pipe stages and across
    /// configs differing only in sampling/histogram/energy/voltage knobs.
    [[nodiscard]] std::uint64_t workload_digest() const noexcept;

    /// Stable 64-bit digest over every result-affecting field; composes
    /// workload_digest() with the stage-characterization and evaluation
    /// knobs. Two configs with equal digests characterize identically, so
    /// the runtime's experiment cache may serve one in place of the other.
    /// Any new knob added above MUST be folded into digest() (or, when it
    /// changes the trace or architectural profiles, into
    /// workload_digest()); tests/test_core_experiment_api.cpp perturbs
    /// every field and fails on a forgotten one.
    [[nodiscard]] std::uint64_t digest() const noexcept;
};

/// A fully characterized (benchmark, stage) experiment, ready to evaluate
/// policies at any theta.
class benchmark_experiment {
public:
    /// Generates the workload, profiles the cores and characterizes the
    /// stage. Heavyweight: run once and reuse. Prefer the artifact
    /// constructor below when several stages (or configs differing only in
    /// evaluation knobs) share one workload -- this overload rebuilds the
    /// stage-independent artifacts every time. The workload is resolved
    /// through workload_registry::global(); benchmark_id call sites convert
    /// implicitly (the built-in ten are always registered), and an
    /// unregistered key throws std::out_of_range.
    benchmark_experiment(const workload::workload_key& workload,
                         circuit::pipe_stage stage,
                         const experiment_config& config = {});

    /// Staged-pipeline constructor: consumes pre-built stage-independent
    /// artifacts (trace + architectural profiles) instead of regenerating
    /// them. The trace is read only while the stage characterizes; the
    /// experiment copies the architectural profiles and keeps no reference
    /// to `artifacts`, so the caller decides how long the trace lives.
    /// Throws std::invalid_argument when `artifacts` is null or its provenance
    /// (thread count, and the stamped workload digest covering seed and
    /// core model) disagrees with `config`. `parallel` fans the
    /// per-(thread, interval) stage characterization out; results are
    /// bit-identical for any executor.
    benchmark_experiment(std::shared_ptr<const program_artifacts> artifacts,
                         circuit::pipe_stage stage, const experiment_config& config = {},
                         const util::parallel_for_fn& parallel = {});

    /// N_i and CPI_base_i of every (thread, interval), [thread][interval]:
    /// the architectural profiles of the artifacts this experiment was
    /// built on, copied (a few hundred bytes).
    [[nodiscard]] const std::vector<arch::thread_profile>& arch_profiles() const noexcept
    {
        return arch_profiles_;
    }

    /// The workload's registry identity.
    [[nodiscard]] const workload::workload_key& workload() const noexcept
    {
        return workload_;
    }
    /// The analyzed stage.
    [[nodiscard]] circuit::pipe_stage stage() const noexcept { return stage_; }
    /// Number of barrier intervals.
    [[nodiscard]] std::size_t interval_count() const noexcept;
    /// Number of threads.
    [[nodiscard]] std::size_t thread_count() const noexcept;
    /// The (V, r) grid with this stage's nominal periods.
    [[nodiscard]] const config_space& space() const noexcept { return space_; }
    /// The raw characterization (delay histograms etc.).
    [[nodiscard]] const stage_characterization& characterization() const noexcept
    {
        return characterization_;
    }
    /// True error model of (thread, interval).
    [[nodiscard]] const empirical_error_model& error_model(std::size_t thread,
                                                           std::size_t interval) const
    {
        return error_models_.at(thread).at(interval);
    }

    /// Solver input (true curves, full workloads) for interval `k`.
    [[nodiscard]] solver_input make_solver_input(std::size_t interval, double theta) const;

    /// theta equalizing total nominal energy and execution time across all
    /// intervals (Fig. 6.18's "weights energy and execution time equally").
    [[nodiscard]] double equal_weight_theta() const;

    /// Aggregated policy result over all intervals.
    struct totals {
        double energy = 0.0;
        double time_ps = 0.0;
        [[nodiscard]] double edp() const noexcept { return energy * time_ps; }
    };

    /// Per-interval outcomes plus the aggregate.
    struct policy_run {
        policy_kind kind = policy_kind::nominal;
        std::vector<interval_outcome> intervals;
        totals sum;
    };

    /// One policy at `theta` (a full per-interval run) and at every theta
    /// of `ladder` (interval-order totals).
    struct policy_sweep {
        policy_run run;
        std::vector<totals> ladder; ///< entry t at ladder[t]
    };

    /// The one policy-evaluation pass: per interval, one
    /// policy_engine::run_interval_ladder call over {theta, ladder...}
    /// builds the theta-free plan once and prices each distinct pick once.
    /// run.intervals[k] equals the policy evaluated at `theta` alone, and
    /// ladder[t] equals run_policy(kind, ladder[t]).sum, bit for bit.
    /// run_policy, pareto_sweep and the runtime's sweep cells are views of
    /// it. A negative theta anywhere throws std::invalid_argument.
    ///
    /// Thread safety: this and every other const member (make_solver_input,
    /// equal_weight_theta, run_policy, run_all_policies,
    /// run_synts_online_predicted, and the free pareto_sweep below) may be
    /// called concurrently on one instance. The evaluation path holds no
    /// hidden mutable state -- plans are built per call, and the
    /// policy_engine, solvers and estimators are pure const code. The
    /// runtime's experiment_cache relies on this to share one instance
    /// across all sweep workers; tests/test_runtime_sweep.cpp pins the
    /// contract.
    [[nodiscard]] policy_sweep sweep_policy(policy_kind kind, double theta,
                                            std::span<const double> ladder) const;

    /// Runs one policy at `theta` over every interval (sweep_policy with an
    /// empty ladder).
    [[nodiscard]] policy_run run_policy(policy_kind kind, double theta) const;

    /// Convenience: runs all five policies at `theta`.
    [[nodiscard]] std::vector<policy_run> run_all_policies(double theta) const;

    /// SynTS-online with *predicted* workloads: interval 0 is bootstrapped
    /// by the characterized workloads (the paper's offline-knowledge
    /// assumption), then an EWMA workload predictor replaces it -- the
    /// fully-online operating mode the paper's citations [8, 15, 16] hint
    /// at. `smoothing` is the predictor's EWMA weight.
    [[nodiscard]] policy_run run_synts_online_predicted(double theta,
                                                        double smoothing = 0.6) const;

private:
    /// Outcomes of `kind` on interval `k` at every theta of `thetas`.
    [[nodiscard]] std::vector<interval_outcome>
    run_interval_ladder(policy_kind kind, std::size_t k, std::span<const double> thetas) const;

    workload::workload_key workload_;
    circuit::pipe_stage stage_;
    experiment_config config_;
    std::vector<arch::thread_profile> arch_profiles_; ///< [thread][interval]
    circuit::cell_library lib_;
    circuit::voltage_model vm_;
    stage_characterization characterization_;
    config_space space_{{1.0}, {1.0}, {1.0}};
    std::vector<std::vector<empirical_error_model>> error_models_; ///< [thread][interval]
    policy_engine engine_;
};

/// Builds the stage-independent program artifacts of (workload, config):
/// phase one of the staged pipeline. Only config.thread_count, config.seed
/// and config.characterization.core participate (== workload_digest());
/// the workload key selects WHICH registered program is generated, through
/// workload_registry::global() (an unregistered key throws
/// std::out_of_range). Generates the trace, then profiles it with
/// arch::multicore_profiler; `parallel` fans per-thread work out without
/// changing the result.
[[nodiscard]] std::shared_ptr<const program_artifacts>
make_program_artifacts(const workload::workload_key& workload,
                       const experiment_config& config = {},
                       const util::parallel_for_fn& parallel = {});

/// One point of a Pareto sweep (Figs. 6.11-6.16).
struct pareto_point {
    double theta = 0.0;
    double energy = 0.0;  ///< normalized to Nominal
    double time = 0.0;    ///< normalized to Nominal
};

/// Sweeps theta over `theta_multipliers` x equal_weight_theta() and returns
/// (energy, time) of `kind` normalized to the Nominal baseline. The whole
/// ladder is evaluated in one pass per interval (sweep_policy).
[[nodiscard]] std::vector<pareto_point>
pareto_sweep(const benchmark_experiment& experiment, policy_kind kind,
             std::span<const double> theta_multipliers);

/// Same sweep with the shared per-experiment inputs precomputed:
/// `theta_eq` must be experiment.equal_weight_theta() and
/// `nominal_baseline` its Nominal run at theta_eq. The two-argument
/// overload above delegates here, so results are bit-identical. Equal to
/// evaluate_policy_cell(...).pareto.
[[nodiscard]] std::vector<pareto_point>
pareto_sweep(const benchmark_experiment& experiment, policy_kind kind,
             std::span<const double> theta_multipliers, double theta_eq,
             const benchmark_experiment::policy_run& nominal_baseline);

/// One sweep cell: a policy at theta_eq and its Pareto ladder.
struct policy_cell {
    benchmark_experiment::policy_run equal_weight;
    std::vector<pareto_point> pareto; ///< index-aligned with the multipliers
};

/// Evaluates `kind` at theta_eq and over `theta_multipliers` x theta_eq in
/// one sweep_policy pass: equal_weight is run_policy(kind, theta_eq) and
/// pareto is pareto_sweep(...) with the same arguments, bit for bit. The
/// runtime scheduler computes each cell with one call (the baseline once
/// per (benchmark, stage) pair); `nominal_baseline` is not read when the
/// ladder is empty.
[[nodiscard]] policy_cell
evaluate_policy_cell(const benchmark_experiment& experiment, policy_kind kind,
                     std::span<const double> theta_multipliers, double theta_eq,
                     const benchmark_experiment::policy_run& nominal_baseline);

/// Default multiplier ladder for Pareto sweeps (log-spaced around 1).
[[nodiscard]] std::vector<double> default_theta_multipliers();

namespace detail {

/// Throws std::invalid_argument unless `model` answers every TSR level of
/// `space` at every corner: an error model refuses a query in the
/// histogram bin that holds its characterization's delay floor, or lower,
/// so a grid must clear the floor's bin, not only the floor (the online
/// estimator's sampled levels then lie above the floor too).
/// benchmark_experiment checks each error model with this as it builds it.
void check_tsr_grid(const config_space& space, const empirical_error_model& model);

} // namespace detail

} // namespace synts::core
