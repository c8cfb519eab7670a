#include "runtime/experiment_cache.h"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "obs/trace.h"

namespace synts::runtime {

namespace {

util::parallel_for_fn pool_executor(thread_pool* pool, thread_pool::join_point* join)
{
    return pool != nullptr ? make_parallel_for(*pool, join) : util::parallel_for_fn{};
}

} // namespace

experiment_cache::experiment_cache()
    : stage_tier_(&obs::metrics_registry::global().counter_at("cache.tier1.hits"),
                  &obs::metrics_registry::global().counter_at("cache.tier1.misses"),
                  &obs::metrics_registry::global().counter_at("cache.tier1.join_blocks")),
      program_tier_(&obs::metrics_registry::global().counter_at("cache.tier2.hits"),
                    &obs::metrics_registry::global().counter_at("cache.tier2.misses"),
                    &obs::metrics_registry::global().counter_at("cache.tier2.join_blocks")),
      obs_computes_(&obs::metrics_registry::global().counter_at("cache.tier2.computes")),
      obs_stage_build_ns_(
          &obs::metrics_registry::global().counter_at("cache.tier1.build_ns")),
      obs_compute_ns_(&obs::metrics_registry::global().counter_at("cache.tier2.compute_ns"))
{
}

experiment_cache::experiment_ptr
experiment_cache::get_or_create(const workload::workload_key& workload,
                                circuit::pipe_stage stage,
                                const core::experiment_config& config, thread_pool* pool,
                                cache_traffic* traffic)
{
    const experiment_key key{workload, stage, config.digest()};
    bool built = false;
    experiment_ptr experiment = stage_tier_.get_or_create(
        key,
        [&](thread_pool::join_point* join) -> experiment_ptr {
            built = true;
            const program_ptr program =
                get_or_create_program(workload, config, pool, traffic);
            const obs::trace_span span(
                obs::trace_recorder::global(),
                [&] { return "cache.stage_build:" + workload.name; });
            const obs::scoped_timer timer(*obs_stage_build_ns_);
            return std::make_shared<const core::benchmark_experiment>(
                program, stage, config, pool_executor(pool, join));
        },
        traffic != nullptr ? &traffic->stage : nullptr, workload.name);
    if (built) {
        // The last of the three stages to settle lets the trace go (see the
        // file comment): no stage of this config will read it again.
        bool all_settled = true;
        for (std::size_t s = 0; s < circuit::pipe_stage_count && all_settled; ++s) {
            all_settled = stage_tier_.settled(
                {workload, static_cast<circuit::pipe_stage>(s), key.config_digest});
        }
        if (all_settled) {
            program_tier_.erase({workload, config.workload_digest()});
            // Hand the freed trace pages back to the OS (see the file
            // comment).
#if defined(__GLIBC__)
            malloc_trim(0);
#endif
        }
    }
    return experiment;
}

experiment_cache::program_ptr
experiment_cache::get_or_create_program(const workload::workload_key& workload,
                                        const core::experiment_config& config,
                                        thread_pool* pool, cache_traffic* traffic)
{
    const program_key key{workload, config.workload_digest()};
    // The factory runs on the thread that OWNS the miss, so the compute is
    // charged to that caller's sink; concurrent callers of the same key
    // record only a hit and run the compute's published blocks (trace
    // generation and profiling, one per program thread) while they wait.
    // Those blocks never touch the cache, so a helper cannot end up
    // waiting on an entry it is itself constructing.
    return program_tier_.get_or_create(
        key,
        [&](thread_pool::join_point* join) -> program_ptr {
            if (traffic != nullptr) {
                traffic->program_computes.fetch_add(1, std::memory_order_relaxed);
            }
            obs_computes_->add(1);
            const obs::trace_span span(obs::trace_recorder::global(),
                                       [&] { return "cache.compute:" + workload.name; });
            const obs::scoped_timer timer(*obs_compute_ns_);
            return core::make_program_artifacts(workload, config, pool_executor(pool, join));
        },
        traffic != nullptr ? &traffic->program : nullptr, workload.name);
}

void experiment_cache::clear()
{
    stage_tier_.clear();
    program_tier_.clear();
}

experiment_cache& experiment_cache::process_cache()
{
    static experiment_cache cache;
    return cache;
}

} // namespace synts::runtime
