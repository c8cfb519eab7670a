// experiment_cache.h -- two-tier, process-wide memoization of the staged
// characterization pipeline.
//
// benchmark_experiment construction is the heavyweight step of every figure
// bench. The seed tree re-ran it from scratch for every (figure, policy)
// block; PR 1 memoized whole experiments on (benchmark, stage, digest). This
// version splits the cache along the pipeline's phase boundary:
//
//   program tier  (benchmark, workload_digest) -> program_artifacts
//       the generated SPLASH-2 trace + per-thread architectural profiles --
//       everything stage-INDEPENDENT. All three pipe stages of a benchmark
//       (and any configs differing only in sampling/histogram/energy/
//       voltage knobs) share one entry, so the trace is generated and the
//       architectural profiler run exactly once per workload.
//   stage tier    (benchmark, stage, digest)   -> benchmark_experiment
//       the per-stage characterization + config space + error models,
//       constructed FROM the program tier's artifacts.
//
// A program entry lives only while its stages characterize. The trace is
// an intermediate (Fig. 5.8): it feeds the architectural profile and the
// per-stage timing simulation, and policy evaluation never reads it. So
// after a stage build, once all three stages of (workload, config digest)
// are *settled* in the stage tier, the cache erases that workload's
// program entry. "Settled", not "present": a stage whose factory has not
// yet reached the program tier would otherwise regenerate the trace. A
// caller holding the program_ptr keeps it alive; a later stage build of a
// config with the same workload digest regenerates it (one more compute).
// The canonical sweep therefore still generates each trace once (7
// program misses, 14 hits) but ends with no trace resident. On glibc the
// erase is followed by malloc_trim(0): the per-thread arenas would keep
// the freed trace pages, so the most traces ever live at once -- which
// depends on how fast the stages characterize -- would stay resident.
//
// What one stage entry retains, per (thread, interval) at the default
// config (7 corners x 512 bins), with the canonical sweep's totals over its
// 21 experiments x 12 (thread, interval) cells (seed 42):
//   * delay histograms: 7 x 512 x 4 B (32-bit bins) = 14 KB (3.6 MB in
//     all);
//   * error-model suffix counts: 7 x 513 x 4 B (32-bit) = 14 KB (3.6 MB);
//   * the sampling trace: 8 B per driving vector (float delay + uint32
//     index), sized exactly by the characterizer (17.1 MB);
//   * the architectural profiles: 40 B, copied (10 KB).
// That is ~1.2 MB per experiment, 24 MB for the sweep; the 48 MB of
// micro-ops it generated (1.5 M x 32 B) are not among it.
//
// Both tiers live in memory only; nothing survives the process. The
// program tier is the smaller phase (trace generation + profiling is about
// a quarter of a serial canonical pass: 18% + 5% of it, with the delay
// walk at 49%), and the largest sweep the runner offers recomputes every
// cell in under half a second on a 4-vCPU VM.
//
// Both tiers use the same discipline:
//
//   * one mutex guards one key->entry map: a tier holds at most a few
//     dozen keys, each looked up a handful of times per sweep, and the
//     lock is held only for the map operation;
//   * each entry is a shared_future: the first caller constructs *outside*
//     the tier lock while later callers wait, so a popular key is
//     constructed exactly once and never holds up unrelated keys.
//     Construction happens on the calling thread (never deferred to a pool
//     task), so waiting cannot deadlock a fully-busy pool. Pool-parallel
//     construction preserves this: parallel_for is self-claiming (the
//     constructing thread completes the fan-out alone if no worker is
//     free, and never executes a foreign task that could block on the very
//     entry it is mid-constructing);
//   * an entry in flight also carries a thread_pool::join_point. The
//     owner publishes there each loop its construction starts (program
//     tier: trace generation and profiling, one block per program thread;
//     stage tier: the characterization's pre-pass and chunks) and
//     withdraws it when the loop returns; a caller that finds the key in
//     flight runs the published loop's unclaimed blocks instead of
//     sleeping, and sleeps only while nothing is published, until the
//     entry settles (span cache.join:<workload>, counters
//     cache.tier<N>.join_blocks). Those blocks never touch the cache, so a
//     helper cannot end up waiting on an entry it is constructing. In a
//     sweep only the program tier has waiters: stage keys are unique per
//     sweep pair;
//   * a constructor exception is rethrown to every waiter and the entry is
//     dropped so a later call can retry. A workload-level failure therefore
//     leaves BOTH tiers empty (the stage factory invokes the program tier,
//     and each tier erases its own failed entry).
//
// Passing a thread_pool to get_or_create fans the *inside* of a miss's
// construction (trace generation, profiling, per-(thread, interval) timing
// simulation) out across the pool; results are bit-identical to serial
// construction, so the pool choice never affects what a key maps to.
//
// The cached experiment is shared as shared_ptr<const ...>: every consumer
// path (run_policy, pareto_sweep, make_solver_input) is const and free of
// hidden mutable state, so one instance may serve all workers.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>

#include "core/experiment.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/thread_pool.h"
#include "util/hashing.h"

namespace synts::runtime {

/// Stage-tier key: what uniquely determines a characterized experiment.
/// The workload axis is the registry key (workload/registry.h), not an enum
/// ordinal, so any registered workload -- built-in SPLASH-2 profile or an
/// instance of the lock_ladder family -- gets its own entries.
struct experiment_key {
    workload::workload_key workload;
    circuit::pipe_stage stage = circuit::pipe_stage::decode;
    std::uint64_t config_digest = 0;

    friend bool operator==(const experiment_key&, const experiment_key&) = default;

    [[nodiscard]] std::uint64_t digest() const noexcept
    {
        util::digest_builder h;
        h.u64(workload.id);
        h.text(workload.name);
        h.value(stage);
        h.value(config_digest);
        return h.digest();
    }
};

/// Program-tier key: what uniquely determines the stage-independent
/// artifacts (see experiment_config::workload_digest()).
struct program_key {
    workload::workload_key workload;
    std::uint64_t workload_digest = 0;

    friend bool operator==(const program_key&, const program_key&) = default;

    [[nodiscard]] std::uint64_t digest() const noexcept
    {
        util::digest_builder h;
        h.u64(workload.id);
        h.text(workload.name);
        h.value(workload_digest);
        return h.digest();
    }
};

/// Hit/miss counters of one memo tier, attributable to one caller.
struct tier_traffic {
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
};

/// Per-caller cache-traffic attribution sink. The cache's own counters are
/// process-global: two sweeps sharing one cache (or a sweep running while
/// another thread warms the cache) cannot untangle their traffic by
/// differencing globals -- the windows overlap and every count lands in
/// both. A caller that needs attribution-correct numbers passes its own
/// sink through get_or_create; every lookup then increments BOTH the
/// global counters and the caller's sink, and the sink sees exactly the
/// traffic of the calls made with it. Waiting on another caller's
/// in-flight construction counts as a hit here (this caller was served
/// without doing the work); the constructing caller owns the miss and the
/// compute it triggers.
struct cache_traffic {
    tier_traffic stage;
    tier_traffic program;
    /// Times the expensive pipeline (trace generation + architectural
    /// profiling) ran on behalf of this caller. Counted directly at the
    /// compute site -- never derived by subtracting counters, so it cannot
    /// wrap however the windows overlap.
    std::atomic<std::uint64_t> program_computes{0};
};

/// One mutex-guarded shared-future memo level. Key must provide digest()
/// and operator==; Ptr is the shared_ptr the factory produces.
template <typename Key, typename Ptr>
class memo_tier {
public:
    /// `registry_hits`/`registry_misses`, when given, are the process-wide
    /// registry counters every lookup is counted in (read back through
    /// --metrics); a caller's own sink is the per-call view.
    /// `registry_join_blocks`, when given, counts the loop blocks that
    /// waiters run at in-flight entries' join points.
    explicit memo_tier(obs::counter* registry_hits = nullptr,
                       obs::counter* registry_misses = nullptr,
                       obs::counter* registry_join_blocks = nullptr)
        : registry_hits_(registry_hits), registry_misses_(registry_misses),
          registry_join_blocks_(registry_join_blocks)
    {
    }

    /// Returns the entry of `key`, invoking `factory(join)` on this thread
    /// if absent; `join` is the in-flight entry's join point, where the
    /// factory publishes the loops it starts. A caller that finds the key
    /// mid-construction helps at that join point -- it runs the published
    /// loops' unclaimed blocks and sleeps while none is published -- until
    /// the entry settles. A factory exception is rethrown to every waiter
    /// and the entry dropped so a later call can retry. Every call records
    /// exactly one hit or one miss; `sink`, when given, receives it in
    /// addition to the registry counters (see cache_traffic). A helping
    /// caller's trace span is named "cache.join:<label>".
    template <typename Factory>
    [[nodiscard]] Ptr get_or_create(const Key& key, Factory&& factory,
                                    tier_traffic* sink = nullptr,
                                    std::string_view label = {})
    {
        std::promise<Ptr> construction;
        entry found;
        bool owner = false;
        {
            const util::mutex_lock lock(mutex_);
            auto it = entries_.find(key);
            if (it != entries_.end()) {
                found = it->second;
            } else {
                found.value = construction.get_future().share();
                found.join = std::make_shared<thread_pool::join_point>();
                entries_.emplace(key, found);
                owner = true;
            }
        }

        if (!owner) {
            count(registry_hits_, sink != nullptr ? &sink->hits : nullptr);
            if (found.join) {
                // In flight when found: run its loops until it settles.
                const obs::trace_span span(obs::trace_recorder::global(), [&] {
                    return "cache.join:" + std::string(label);
                });
                const std::size_t blocks = found.join->help();
                if (registry_join_blocks_ != nullptr) {
                    registry_join_blocks_->add(blocks);
                }
            }
            return found.value.get(); // ready: help() returns on settle
        }

        count(registry_misses_, sink != nullptr ? &sink->misses : nullptr);
        // Helpers leave help() once the entry settles, however it settles.
        const settle_on_exit settle{*found.join};
        Ptr value;
        try {
            value = factory(found.join.get());
        } catch (...) {
            construction.set_exception(std::current_exception());
            {
                const util::mutex_lock lock(mutex_);
                entries_.erase(key);
            }
            throw;
        }
        {
            // Settled under the tier lock, so settled() -- which reads
            // under the same lock -- orders against it: of two owners that
            // each settle and then check the other, at least one sees both.
            // A later caller finds no join point, so a hit on a settled
            // entry never takes the join point's lock.
            const util::mutex_lock lock(mutex_);
            construction.set_value(value);
            const auto it = entries_.find(key);
            if (it != entries_.end() && it->second.join == found.join) {
                it->second.join.reset();
            }
        }
        return value;
    }

    /// True when `key`'s entry is resident and its construction finished
    /// with a value.
    [[nodiscard]] bool settled(const Key& key)
    {
        const util::mutex_lock lock(mutex_);
        const auto it = entries_.find(key);
        return it != entries_.end() &&
               it->second.value.wait_for(std::chrono::seconds(0)) ==
                   std::future_status::ready;
    }

    /// Drops `key`'s entry, if any. Holders of its value keep it; waiters
    /// on an in-flight construction are served normally.
    void erase(const Key& key)
    {
        const util::mutex_lock lock(mutex_);
        entries_.erase(key);
    }

    [[nodiscard]] std::size_t size() const
    {
        const util::mutex_lock lock(mutex_);
        return entries_.size();
    }

    void clear()
    {
        const util::mutex_lock lock(mutex_);
        entries_.clear();
    }

private:
    /// A key's value and, while it is constructed, its join point.
    struct entry {
        std::shared_future<Ptr> value;
        std::shared_ptr<thread_pool::join_point> join;
    };

    struct settle_on_exit {
        thread_pool::join_point& join;
        ~settle_on_exit() { join.settle(); }
    };

    struct key_hash {
        std::size_t operator()(const Key& key) const noexcept
        {
            return static_cast<std::size_t>(key.digest());
        }
    };

    static void count(obs::counter* registry, std::atomic<std::uint64_t>* sink) noexcept
    {
        if (registry != nullptr) {
            registry->add(1);
        }
        if (sink != nullptr) {
            sink->fetch_add(1, std::memory_order_relaxed);
        }
    }

    /// Held only for map operations -- factories run outside, waiters
    /// help at the entry's join point, never on the tier. A leaf: enqueue
    /// never runs under a tier lock.
    mutable util::annotated_mutex mutex_;
    std::unordered_map<Key, entry, key_hash> entries_ SYNTS_GUARDED_BY(mutex_);
    obs::counter* registry_hits_;
    obs::counter* registry_misses_;
    obs::counter* registry_join_blocks_;
};

/// The two-tier experiment memo (see file comment).
class experiment_cache {
public:
    using experiment_ptr = std::shared_ptr<const core::benchmark_experiment>;
    using program_ptr = std::shared_ptr<const core::program_artifacts>;

    experiment_cache();

    experiment_cache(const experiment_cache&) = delete;
    experiment_cache& operator=(const experiment_cache&) = delete;

    /// Returns the cached experiment for (workload, stage, config),
    /// constructing it on this thread if absent -- sourcing the
    /// stage-independent artifacts from the program tier, so a stage miss
    /// only pays for the per-stage work when the workload is already
    /// resident. benchmark_id call sites convert implicitly. `pool`, when
    /// given, parallelizes a miss's construction (bit-identical results
    /// either way) and must outlive the call. `traffic`, when given,
    /// receives this call's traffic on every tier it touches, so callers
    /// sharing the cache can attribute hits/misses/computes to themselves
    /// (see cache_traffic).
    [[nodiscard]] experiment_ptr get_or_create(const workload::workload_key& workload,
                                               circuit::pipe_stage stage,
                                               const core::experiment_config& config = {},
                                               thread_pool* pool = nullptr,
                                               cache_traffic* traffic = nullptr);

    /// Returns the cached stage-independent artifacts for
    /// (workload, config.workload_digest()), constructing them on this
    /// thread if absent. `traffic` as above.
    [[nodiscard]] program_ptr
    get_or_create_program(const workload::workload_key& workload,
                          const core::experiment_config& config = {},
                          thread_pool* pool = nullptr,
                          cache_traffic* traffic = nullptr);

    /// Stage-tier entries currently resident (settled or under
    /// construction).
    [[nodiscard]] std::size_t size() const { return stage_tier_.size(); }
    /// Program-tier entries currently resident: 0 once every workload's
    /// three stages have settled (see file comment).
    [[nodiscard]] std::size_t program_size() const { return program_tier_.size(); }

    /// Drops every entry of both tiers (in-flight constructions settle
    /// their waiters normally; the results are just no longer retained).
    void clear();

    /// The process-wide cache shared by the benches and the runner CLI.
    [[nodiscard]] static experiment_cache& process_cache();

private:
    memo_tier<experiment_key, experiment_ptr> stage_tier_;
    memo_tier<program_key, program_ptr> program_tier_;

    // Registry instruments (cache.tier<N>.* taxonomy: tier1 = stage memo,
    // tier2 = program memo). Hits and misses are counted by memo_tier's
    // registry hooks; these cover the compute count and the gated
    // nanosecond totals.
    obs::counter* obs_computes_;
    obs::counter* obs_stage_build_ns_;
    obs::counter* obs_compute_ns_;
};

} // namespace synts::runtime
