#include "runtime/sweep.h"

#include <atomic>
#include <chrono>
#include <exception>
#include <future>
#include <optional>
#include <string>
#include <utility>

#include "circuit/netlist_builder.h"
#include "core/policies.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/artifact_store.h"
#include "storage/serialize.h"
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

std::uint64_t sweep_cell_digest(std::uint64_t spec_digest, std::size_t index) noexcept
{
    return util::hash_mix(spec_digest, index);
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

namespace {

/// Checkpoint probe: decodes a stored cell frame and sanity-checks its
/// identity against the slot it would fill. Returns nullopt -- recompute
/// -- on any failure; a corrupt or foreign checkpoint is never adopted.
std::optional<sweep_cell> try_load_cell(const storage::artifact_store& store,
                                        std::uint64_t cell_key,
                                        const workload::workload_key& workload,
                                        circuit::pipe_stage stage,
                                        core::policy_kind policy)
{
    const std::optional<std::string> frame = store.load(storage::cell_bucket, cell_key);
    if (!frame) {
        return std::nullopt;
    }
    try {
        sweep_cell cell = storage::decode_sweep_cell(*frame);
        if (cell.workload != workload || cell.stage != stage ||
            cell.policy != policy) {
            return std::nullopt;
        }
        return cell;
    } catch (const std::exception&) {
        return std::nullopt;
    }
}

} // namespace

sweep_result sweep_scheduler::run(const sweep_spec& spec,
                                  const sweep_options& options) const
{
    const std::vector<benchmark_stage> pairs = spec.expanded_pairs();
    const std::size_t policy_count = spec.policies.size();
    storage::artifact_store* const store = options.store;
    const std::uint64_t spec_digest = spec.digest();

    sweep_result result;
    result.spec = spec;
    result.spec_digest = spec_digest;
    result.cells.resize(pairs.size() * policy_count);

    // Per-run attribution sink: every cache lookup this run makes counts
    // here (and in the cache's process-global counters), so concurrent
    // sweeps on one cache each report exactly their own traffic instead of
    // differencing global counters over overlapping windows.
    cache_traffic traffic;
    std::atomic<std::uint64_t> cells_loaded{0};
    std::atomic<std::uint64_t> cells_stored{0};

    // Registry counters (sweep.* taxonomy) and the run-level span. The
    // per-sweep numbers above stay attribution-correct; the registry
    // aggregates process-wide for --metrics.
    obs::metrics_registry& registry = obs::metrics_registry::global();
    obs::counter& obs_cells_loaded = registry.counter_at("sweep.cells_loaded");
    obs::counter& obs_cells_stored = registry.counter_at("sweep.cells_stored");
    obs::counter& obs_cells_missed = registry.counter_at("sweep.cells_missed");
    obs::counter& obs_cells_computed = registry.counter_at("sweep.cells_computed");
    const obs::trace_span run_span(obs::trace_recorder::global(), "sweep.run");

    const auto t0 = std::chrono::steady_clock::now();

    // One task per (benchmark, stage) pair: the pair's shared inputs
    // -- the characterization, theta_eq, and the Nominal baseline run --
    // are computed once and reused across its policy cells, instead of once
    // per cell (per-cell tasks would re-derive theta_eq Q times and a
    // ladder's Nominal baseline Q more times). Policy cells within a pair
    // run sequentially; pairs run in parallel, which is where the work is.
    std::vector<std::future<void>> tasks;
    tasks.reserve(pairs.size());
    for (std::size_t p = 0; p < pairs.size(); ++p) {
        tasks.push_back(pool_->submit(
            [this, &spec, &options, &result, &pairs, store, spec_digest, policy_count,
             &traffic, &cells_loaded, &cells_stored, &obs_cells_loaded,
             &obs_cells_stored, &obs_cells_missed, &obs_cells_computed, p] {
            const auto& [workload, stage] = pairs[p];

            // Resume pass: adopt every decodable checkpoint of this pair
            // first; only the gaps are computed. When nothing is missing
            // the pair's characterization is skipped entirely.
            std::vector<std::optional<sweep_cell>> restored(policy_count);
            bool complete = true;
            if (options.resume && store != nullptr) {
                for (std::size_t q = 0; q < policy_count; ++q) {
                    const std::size_t index = p * policy_count + q;
                    restored[q] = try_load_cell(
                        *store, sweep_cell_digest(spec_digest, index),
                        workload, stage, spec.policies[q]);
                    complete = complete && restored[q].has_value();
                }
            } else {
                complete = policy_count == 0;
            }

            experiment_cache::experiment_ptr experiment;
            double theta_eq = 0.0;
            core::benchmark_experiment::policy_run nominal_baseline;
            if (!complete) {
                experiment = cache_->get_or_create(workload, stage, spec.config,
                                                   pool_, &traffic);
                theta_eq = experiment->equal_weight_theta();
                if (!spec.theta_multipliers.empty()) {
                    nominal_baseline =
                        experiment->run_policy(core::policy_kind::nominal, theta_eq);
                }
            }

            for (std::size_t q = 0; q < policy_count; ++q) {
                const std::size_t index = p * policy_count + q;
                sweep_cell& cell = result.cells[index];
                if (restored[q].has_value()) {
                    cell = *std::move(restored[q]);
                    cells_loaded.fetch_add(1, std::memory_order_relaxed);
                    obs_cells_loaded.add(1);
                    continue;
                }
                cell.workload = workload;
                cell.stage = stage;
                cell.policy = spec.policies[q];
                cell.task_seed = util::hash_mix(spec.config.seed, index);
                cell.theta_eq = theta_eq;
                obs_cells_computed.add(1);
                if (store != nullptr) {
                    // Computed while a checkpoint store was present == no
                    // usable checkpoint covered the cell (the registry twin
                    // of sweep_result::cells_missed()).
                    obs_cells_missed.add(1);
                }
                {
                    const obs::trace_span cell_span(
                        obs::trace_recorder::global(), [&] {
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
                // Persist as soon as the cell settles, so a kill between
                // here and the sweep's end loses only in-flight cells.
                if (store != nullptr &&
                    store->store(storage::cell_bucket,
                                 sweep_cell_digest(spec_digest, index),
                                 storage::encode(cell))) {
                    cells_stored.fetch_add(1, std::memory_order_relaxed);
                    obs_cells_stored.add(1);
                }
            }
        }));
    }

    std::exception_ptr first_error;
    for (std::future<void>& done : tasks) {
        // Help while waiting (same discipline as parallel_for): run() may
        // itself be called from inside a pool task, and on a small pool the
        // cells would otherwise sit behind the blocked caller forever.
        while (done.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
            if (!pool_->run_one_task()) {
                (void)done.wait_for(std::chrono::milliseconds(1));
            }
        }
        try {
            done.get();
        } catch (...) {
            // First error in cell order, rethrown after EVERY task settled.
            if (!first_error) {
                first_error = std::current_exception();
            }
        }
    }
    if (first_error) {
        std::rethrow_exception(first_error);
    }

    const auto t1 = std::chrono::steady_clock::now();
    result.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
    result.cache_hits = traffic.stage.hits.load(std::memory_order_relaxed);
    result.cache_misses = traffic.stage.misses.load(std::memory_order_relaxed);
    result.program_cache_hits = traffic.program.hits.load(std::memory_order_relaxed);
    result.program_cache_misses = traffic.program.misses.load(std::memory_order_relaxed);
    result.program_computes = traffic.program_computes.load(std::memory_order_relaxed);
    result.checkpointing = store != nullptr;
    result.cells_loaded = cells_loaded.load(std::memory_order_relaxed);
    result.cells_stored = cells_stored.load(std::memory_order_relaxed);
    return result;
}

} // namespace synts::runtime
