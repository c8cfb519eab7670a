#include "runtime/experiment_cache.h"

#include <exception>

#include "obs/trace.h"
#include "storage/artifact_store.h"
#include "storage/serialize.h"

namespace synts::runtime {

namespace {

util::parallel_for_fn pool_executor(thread_pool* pool)
{
    return pool != nullptr ? make_parallel_for(*pool) : util::parallel_for_fn{};
}

/// Disk-tier probe: decodes and provenance-checks a store frame. Returns
/// nullptr -- a disk miss -- on ANY failure (unreadable, truncated,
/// bit-flipped, wrong format version, wrong payload kind, or a stamped
/// workload digest that disagrees with the request). The caller rebuilds;
/// stale or foreign data is never served.
experiment_cache::program_ptr try_load_program(const storage::artifact_store& store,
                                               std::uint64_t key_digest,
                                               const workload::workload_key& workload,
                                               const core::experiment_config& config)
{
    const std::optional<std::string> frame =
        store.load(storage::program_bucket, key_digest);
    if (!frame) {
        return nullptr;
    }
    try {
        auto loaded = std::make_shared<core::program_artifacts>(
            storage::decode_program_artifacts(*frame));
        if (!loaded->provenance_matches(workload, config.thread_count,
                                        config.workload_digest())) {
            return nullptr;
        }
        loaded->validate();
        return loaded;
    } catch (const std::exception&) {
        return nullptr; // corrupt or inconsistent frame == miss
    }
}

} // namespace

experiment_cache::experiment_cache(std::size_t shard_count)
    : stage_tier_(shard_count,
                  &obs::metrics_registry::global().counter_at("cache.tier1.hits"),
                  &obs::metrics_registry::global().counter_at("cache.tier1.misses")),
      program_tier_(shard_count,
                    &obs::metrics_registry::global().counter_at("cache.tier2.hits"),
                    &obs::metrics_registry::global().counter_at("cache.tier2.misses")),
      obs_disk_hits_(&obs::metrics_registry::global().counter_at("cache.tier3.hits")),
      obs_disk_misses_(&obs::metrics_registry::global().counter_at("cache.tier3.misses")),
      obs_computes_(&obs::metrics_registry::global().counter_at("cache.tier2.computes")),
      obs_stage_build_ns_(
          &obs::metrics_registry::global().histogram_at("cache.tier1.build_ns")),
      obs_compute_ns_(
          &obs::metrics_registry::global().histogram_at("cache.tier2.compute_ns")),
      obs_disk_load_ns_(
          &obs::metrics_registry::global().histogram_at("cache.tier3.load_ns"))
{
}

experiment_cache::experiment_ptr
experiment_cache::get_or_create(const workload::workload_key& workload,
                                circuit::pipe_stage stage,
                                const core::experiment_config& config, thread_pool* pool,
                                cache_traffic* traffic)
{
    const experiment_key key{workload, stage, config.digest()};
    return stage_tier_.get_or_create(
        key,
        [&]() -> experiment_ptr {
            const program_ptr program =
                get_or_create_program(workload, config, pool, traffic);
            const obs::trace_span span(
                obs::trace_recorder::global(),
                [&] { return "cache.stage_build:" + workload.name; });
            const obs::scoped_timer timer(*obs_stage_build_ns_);
            return std::make_shared<const core::benchmark_experiment>(
                program, stage, config, pool_executor(pool));
        },
        traffic != nullptr ? &traffic->stage : nullptr);
}

experiment_cache::program_ptr
experiment_cache::get_or_create_program(const workload::workload_key& workload,
                                        const core::experiment_config& config,
                                        thread_pool* pool, cache_traffic* traffic)
{
    const program_key key{workload, config.workload_digest()};
    // Attribution note: the factory below runs on the thread that OWNS the
    // miss, so its disk probes and computes are charged to that caller's
    // sink; concurrent callers of the same key block on the shared future
    // and record only a hit.
    const auto count = [traffic](std::atomic<std::uint64_t>& global,
                                 std::atomic<std::uint64_t> cache_traffic::* local) {
        global.fetch_add(1, std::memory_order_relaxed);
        if (traffic != nullptr) {
            (traffic->*local).fetch_add(1, std::memory_order_relaxed);
        }
    };
    const auto compute = [&]() -> program_ptr {
        count(program_computes_, &cache_traffic::program_computes);
        obs_computes_->add(1);
        const obs::trace_span span(obs::trace_recorder::global(),
                                   [&] { return "cache.compute:" + workload.name; });
        const obs::scoped_timer timer(*obs_compute_ns_);
        return core::make_program_artifacts(workload, config, pool_executor(pool));
    };
    const auto probe_disk = [&]() -> program_ptr {
        const obs::scoped_timer timer(*obs_disk_load_ns_);
        return try_load_program(*store_, key.digest(), workload, config);
    };
    return program_tier_.get_or_create(
        key,
        [&]() -> program_ptr {
            if (store_ != nullptr) {
                if (program_ptr loaded = probe_disk()) {
                    count(disk_hits_, &cache_traffic::disk_hits);
                    obs_disk_hits_->add(1);
                    return loaded;
                }
                count(disk_misses_, &cache_traffic::disk_misses);
                obs_disk_misses_->add(1);
                program_ptr built = compute();
                // Best-effort write-back: a failed publish (read-only store,
                // disk full) degrades persistence, never the result. The
                // atomic temp+rename inside keeps concurrent readers safe
                // from torn frames.
                (void)store_->store(storage::program_bucket, key.digest(),
                                    storage::encode(*built));
                return built;
            }
            return compute();
        },
        traffic != nullptr ? &traffic->program : nullptr);
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
