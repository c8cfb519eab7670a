#include "runtime/sweep.h"

#include <atomic>
#include <chrono>
#include <string>
#include <utility>

#include "circuit/netlist_builder.h"
#include "core/policies.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/hashing.h"

namespace synts::runtime {

std::vector<benchmark_stage> sweep_spec::expanded_pairs() const
{
    if (!pairs.empty()) {
        return pairs;
    }
    std::vector<benchmark_stage> expanded;
    expanded.reserve(benchmarks.size() * stages.size());
    for (const workload::workload_key& workload : benchmarks) {
        for (const circuit::pipe_stage stage : stages) {
            expanded.emplace_back(workload, stage);
        }
    }
    return expanded;
}

std::size_t sweep_spec::task_count() const
{
    return expanded_pairs().size() * policies.size();
}

std::uint64_t sweep_spec::digest() const
{
    util::digest_builder h;
    h.value(config.digest());
    const std::vector<benchmark_stage> expanded = expanded_pairs();
    h.u64(expanded.size());
    for (const auto& [workload, stage] : expanded) {
        h.u64(workload.id);
        h.text(workload.name);
        h.value(stage);
    }
    h.u64(policies.size());
    for (const core::policy_kind policy : policies) {
        h.value(policy);
    }
    h.values(theta_multipliers);
    return h.digest();
}

const sweep_cell* sweep_result::find(const workload::workload_key& workload,
                                     circuit::pipe_stage stage,
                                     core::policy_kind policy) const noexcept
{
    for (const sweep_cell& cell : cells) {
        if (cell.workload == workload && cell.stage == stage &&
            cell.policy == policy) {
            return &cell;
        }
    }
    return nullptr;
}

sweep_result sweep_scheduler::run(const sweep_spec& spec) const
{
    const std::vector<benchmark_stage> pairs = spec.expanded_pairs();
    const std::size_t policy_count = spec.policies.size();

    sweep_result result;
    result.spec = spec;
    result.spec_digest = spec.digest();
    result.cells.resize(pairs.size() * policy_count);

    // Per-run attribution sink: every cache lookup this run makes counts
    // here (and in the cache's process-global counters), so concurrent
    // sweeps on one cache each report exactly their own traffic instead of
    // differencing global counters over overlapping windows.
    cache_traffic traffic;

    // Registry counters (sweep.* taxonomy) and the run-level span. The
    // per-sweep numbers above stay attribution-correct; the registry
    // aggregates process-wide for --metrics.
    obs::metrics_registry& registry = obs::metrics_registry::global();
    obs::counter& obs_cells_computed = registry.counter_at("sweep.cells_computed");
    // The calling thread claims pairs while it waits, so the sweep runs on
    // one thread more than the pool has workers.
    registry.gauge_at("sweep.threads")
        .set(static_cast<std::int64_t>(pool_->worker_count() + 1));
    const obs::trace_span run_span(obs::trace_recorder::global(), "sweep.run");

    const auto t0 = std::chrono::steady_clock::now();

    // One loop index per (benchmark, stage) pair: the pair's shared inputs
    // -- the characterization, theta_eq, and the Nominal baseline run --
    // are computed once and reused across its policy cells, instead of once
    // per cell (per-cell work would re-derive theta_eq Q times and a
    // ladder's Nominal baseline Q more times). Policy cells within a pair
    // run sequentially; pairs run in parallel, which is where the work is.
    // Grain 1 makes every pair its own block, and blocks are claimed in
    // index order. A cross product is workload-major, so a workload's
    // stages run close together and the program tier frees its trace
    // sooner; claiming stage-major would keep every trace alive at once.
    // parallel_for rethrows the first failing pair's exception (in cell
    // order) once every pair has settled.
    const auto run_pair = [this, &spec, &result, &pairs, policy_count, &traffic,
                           &obs_cells_computed](std::size_t p) {
        if (policy_count == 0) {
            return;
        }
        const auto& [workload, stage] = pairs[p];
        const experiment_cache::experiment_ptr experiment =
            cache_->get_or_create(workload, stage, spec.config, pool_, &traffic);
        const double theta_eq = experiment->equal_weight_theta();
        core::benchmark_experiment::policy_run nominal_baseline;
        if (!spec.theta_multipliers.empty()) {
            nominal_baseline = experiment->run_policy(core::policy_kind::nominal, theta_eq);
        }

        for (std::size_t q = 0; q < policy_count; ++q) {
            const std::size_t index = p * policy_count + q;
            sweep_cell& cell = result.cells[index];
            cell.workload = workload;
            cell.stage = stage;
            cell.policy = spec.policies[q];
            cell.task_seed = util::hash_mix(spec.config.seed, index);
            cell.theta_eq = theta_eq;
            obs_cells_computed.add(1);
            const obs::trace_span cell_span(obs::trace_recorder::global(), [&] {
                std::string name = "sweep.cell:";
                name += workload.name;
                name += '/';
                name += circuit::pipe_stage_name(stage);
                name += '/';
                name += core::policy_name(cell.policy);
                return name;
            });
            core::policy_cell evaluated = core::evaluate_policy_cell(
                *experiment, cell.policy, spec.theta_multipliers, theta_eq,
                nominal_baseline);
            cell.equal_weight = std::move(evaluated.equal_weight);
            cell.pareto = std::move(evaluated.pareto);
        }
    };
    pool_->parallel_for(0, pairs.size(), run_pair, /*grain=*/1);

    const auto t1 = std::chrono::steady_clock::now();
    result.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
    result.cache_hits = traffic.stage.hits.load(std::memory_order_relaxed);
    result.cache_misses = traffic.stage.misses.load(std::memory_order_relaxed);
    result.program_cache_hits = traffic.program.hits.load(std::memory_order_relaxed);
    result.program_cache_misses = traffic.program.misses.load(std::memory_order_relaxed);
    result.program_computes = traffic.program_computes.load(std::memory_order_relaxed);
    return result;
}

} // namespace synts::runtime
