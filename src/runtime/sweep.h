// sweep.h -- declarative experiment sweeps over the thread pool.
//
// A sweep_spec names WHAT to evaluate: a set of (benchmark, stage) pairs
// (explicitly, or as a benchmarks x stages cross product), a set of
// policies, and an optional theta-multiplier ladder. The sweep_scheduler
// decides HOW: it expands the spec into one task per (benchmark, stage)
// pair -- the pair's characterization, theta_eq and Nominal baseline are
// computed once and shared across its policy cells -- runs the tasks on a
// work-stealing thread_pool, memoizes the heavyweight characterizations in
// an experiment_cache (each (benchmark, stage, config) is characterized
// once no matter how many specs or figures consume it), and aggregates the
// cells in a deterministic, schedule-independent order.
//
// Determinism contract: every cell's numbers are produced by the same
// const code path the serial benches use (equal_weight_theta, then one
// core::evaluate_policy_cell per cell, equal to run_policy plus
// pareto_sweep on an identically-constructed benchmark_experiment), tasks
// share no mutable state, and results land in pre-assigned slots -- so a
// sweep's output is bit-identical across runs, worker counts, and the
// serial path. Each cell also carries a `task_seed` stream tag derived from
// (config.seed, cell index) via hash_mix, for future stochastic policies;
// nothing in the current policies draws from it.

#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "runtime/experiment_cache.h"
#include "runtime/thread_pool.h"

namespace synts::storage {
class artifact_store;
}

namespace synts::runtime {

/// One (workload, stage) evaluation target. Workloads are registry keys
/// (workload/registry.h); benchmark_id literals convert implicitly.
using benchmark_stage = std::pair<workload::workload_key, circuit::pipe_stage>;

/// Declarative description of a batched sweep.
struct sweep_spec {
    /// Cross-product axes (used when `pairs` is empty). Any registered
    /// workload key -- built-in SPLASH-2 profile or parametric scenario
    /// instance -- is a valid axis value.
    std::vector<workload::workload_key> benchmarks;
    std::vector<circuit::pipe_stage> stages;
    /// Explicit pair list; when non-empty it replaces the cross product
    /// (the figure benches plot hand-picked pairs, not a full grid).
    std::vector<benchmark_stage> pairs;

    /// Policies evaluated per pair.
    std::vector<core::policy_kind> policies;

    /// Theta ladder as multipliers of each experiment's equal-weight theta.
    /// Empty = no Pareto sweep; cells then carry only the equal-weight run.
    std::vector<double> theta_multipliers;

    /// Experiment construction knobs (seed, thread count, models).
    core::experiment_config config{};

    /// The pairs this spec expands to (explicit list or cross product).
    [[nodiscard]] std::vector<benchmark_stage> expanded_pairs() const;

    /// Number of (pair, policy) result cells the sweep expands to.
    [[nodiscard]] std::size_t task_count() const;

    /// Stable digest over everything that determines the sweep's cells:
    /// the config digest, the expanded pair list, the policy list, and the
    /// theta ladder. Two specs with equal digests expand to cell-for-cell
    /// identical sweeps, so checkpointed cells are keyed on
    /// (spec digest, cell index) -- any spec edit changes every key and a
    /// stale checkpoint can never be resumed into the wrong sweep.
    [[nodiscard]] std::uint64_t digest() const;

};

/// Checkpoint key of cell `index` of a spec (see sweep_spec::digest()).
[[nodiscard]] std::uint64_t sweep_cell_digest(std::uint64_t spec_digest,
                                              std::size_t index) noexcept;

/// Fully evaluated (workload, stage, policy) cell.
struct sweep_cell {
    workload::workload_key workload;
    circuit::pipe_stage stage = circuit::pipe_stage::decode;
    core::policy_kind policy = core::policy_kind::nominal;

    /// The experiment's equal-weight theta (shared by the pair's cells).
    double theta_eq = 0.0;
    /// Deterministic per-cell RNG stream tag (see header comment).
    std::uint64_t task_seed = 0;

    /// Policy run at theta_eq (the Fig. 6.18 operating point).
    core::benchmark_experiment::policy_run equal_weight;
    /// Pareto front over spec.theta_multipliers (empty when no ladder),
    /// index-aligned with the ladder; identical to core::pareto_sweep.
    std::vector<core::pareto_point> pareto;
};

/// Aggregated sweep outcome, cell order = pair-major, policy-minor (the
/// spec's declaration order, independent of execution schedule).
struct sweep_result {
    sweep_spec spec;
    /// The spec's digest -- the checkpoint keying identity
    /// (sweep_cell_digest(spec_digest, index)) and what the JSON document
    /// emits.
    std::uint64_t spec_digest = 0;
    std::vector<sweep_cell> cells;
    double wall_seconds = 0.0;
    /// Stage-tier cache traffic attributable to this sweep.
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    /// Program-tier (shared artifacts) cache traffic attributable to this
    /// sweep.
    std::uint64_t program_cache_hits = 0;
    std::uint64_t program_cache_misses = 0;
    /// Trace generations + profiler runs this sweep performed (one per
    /// program-tier miss).
    std::uint64_t program_computes = 0;
    /// True when the run had a checkpoint store (sweep_options::store).
    bool checkpointing = false;
    /// Checkpoint traffic: cells adopted from the store (resume) and cells
    /// computed then persisted this run; both zero without a store.
    std::uint64_t cells_loaded = 0;
    std::uint64_t cells_stored = 0;

    /// Cells that went through compute because no usable checkpoint
    /// covered them; 0 when the run had no store at all. Guarded against
    /// underflow: a caller-filled result can present cells_loaded >
    /// cells.size(), which on the unsigned types would wrap to ~2^64 --
    /// such a state reports 0 missed, never a wrapped count.
    [[nodiscard]] std::uint64_t cells_missed() const noexcept
    {
        if (!checkpointing || cells_loaded >= cells.size()) {
            return 0;
        }
        return cells.size() - cells_loaded;
    }

    /// The cell of (workload, stage, policy), or nullptr.
    [[nodiscard]] const sweep_cell* find(const workload::workload_key& workload,
                                         circuit::pipe_stage stage,
                                         core::policy_kind policy) const noexcept;
};

/// Checkpointing knobs for sweep_scheduler::run.
struct sweep_options {
    /// Checkpoint store; null (the default) disables checkpointing. When
    /// set, every computed cell is persisted (atomic write-back) as it
    /// finishes, keyed on (spec digest, cell index) -- a killed sweep
    /// leaves its finished cells behind. Must outlive the run.
    storage::artifact_store* store = nullptr;
    /// With `store`: cells already materialized (decodable, matching
    /// (benchmark, stage, policy)) are adopted instead of recomputed, so a
    /// restarted sweep re-runs only the missing cells. A pair whose every
    /// cell is checkpointed skips its characterization entirely. Off by
    /// default: a re-run without it recomputes every cell and overwrites
    /// its checkpoint, so the store always holds what the current binary
    /// computes.
    bool resume = false;
};

/// Expands sweep_specs into pool tasks and aggregates the results.
class sweep_scheduler {
public:
    /// Both the pool and the cache must outlive the scheduler.
    sweep_scheduler(thread_pool& pool, experiment_cache& cache)
        : pool_(&pool), cache_(&cache)
    {
    }

    /// Runs every cell of `spec`; blocks until done. The first cell
    /// exception (in cell order) is rethrown after all tasks settle.
    /// Determinism contract: `options` never change what a cell contains,
    /// only whether it is recomputed or restored.
    [[nodiscard]] sweep_result run(const sweep_spec& spec,
                                   const sweep_options& options = {}) const;

private:
    thread_pool* pool_;
    experiment_cache* cache_;
};

} // namespace synts::runtime
