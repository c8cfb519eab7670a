#include "util/lock_rank.h"

#include <cstdio>
#include <cstdlib>

#if SYNTS_LOCK_RANK_CHECKS
#include <mutex>
#include <unordered_map>
#endif

namespace synts::util {

const char* lock_rank_name(lock_rank rank) noexcept
{
    switch (rank) {
    case lock_rank::pool_sleep: return "pool_sleep";
    case lock_rank::pool_queue: return "pool_queue";
    case lock_rank::cache_shard: return "cache_shard";
    case lock_rank::workload_registry: return "workload_registry";
    case lock_rank::metrics_registry: return "metrics_registry";
    case lock_rank::trace_buffers: return "trace_buffers";
    }
    return nullptr;
}

#if SYNTS_LOCK_RANK_CHECKS

namespace lock_rank_detail {

namespace {

// Deep enough for any real chain (the longest legal chain today is two:
// pool_sleep -> pool_queue); overflow is reported as its own
// violation rather than silently dropping entries.
constexpr std::size_t max_held = 32;

struct held_entry {
    lock_rank rank;
    const char* name;
};

thread_local held_entry tls_held[max_held]; // NOLINT(*-avoid-c-arrays)
thread_local std::size_t tls_depth = 0;

[[noreturn]] void fail(const char* what,
                       lock_rank acquiring,
                       const char* acquiring_name,
                       lock_rank held,
                       const char* held_name) noexcept
{
    std::fprintf(stderr,
                 "synts lock_rank: %s: acquiring \"%s\" (rank %u) while "
                 "holding \"%s\" (rank %u); locks must be taken in strictly "
                 "ascending rank order (table: src/util/lock_rank.h)\n",
                 what,
                 acquiring_name != nullptr ? acquiring_name : "?",
                 static_cast<unsigned>(acquiring),
                 held_name != nullptr ? held_name : "?",
                 static_cast<unsigned>(held));
    std::abort();
}

// The detector's own bookkeeping lock guards the live-mutex map below. It
// is a raw std::mutex on purpose: an annotated_mutex here would recurse
// into the detector registering itself, and the map is touched only from
// annotated_mutex constructors/destructors, never while an annotated lock
// is being acquired -- it cannot participate in an ordering cycle with
// ranked locks.  // synts-lint: allow(raw-mutex)
struct live_registry {
    std::mutex mutex; // synts-lint: allow(raw-mutex)
    std::unordered_map<const void*, live_mutex> mutexes;
};

live_registry& registry()
{
    // Leaked deliberately: annotated mutexes inside function-local statics
    // can be destroyed during static teardown in any order relative to a
    // registry with static lifetime.  // synts-lint: allow(naked-new)
    static live_registry* instance = new live_registry(); // synts-lint: allow(naked-new)
    return *instance;
}

} // namespace

void note_acquired(lock_rank rank, const char* name) noexcept
{
    if (tls_depth >= max_held) {
        std::fprintf(stderr,
                     "synts lock_rank: held-lock stack overflow (depth %zu) "
                     "acquiring \"%s\" (rank %u)\n",
                     tls_depth,
                     name != nullptr ? name : "?",
                     static_cast<unsigned>(rank));
        std::abort();
    }
    if (tls_depth > 0) {
        const held_entry& top = tls_held[tls_depth - 1];
        if (static_cast<std::uint16_t>(rank) <= static_cast<std::uint16_t>(top.rank)) {
            fail("lock rank order violation", rank, name, top.rank, top.name);
        }
    }
    tls_held[tls_depth] = held_entry{rank, name};
    ++tls_depth;
}

void note_released(lock_rank rank, const char* name) noexcept
{
    // Topmost matching entry: releases are almost always LIFO (scoped
    // guards), but condition-variable waits release out from under nested
    // scopes only in code that holds a single lock, so a linear scan from
    // the top is both correct and nearly always one comparison.
    for (std::size_t i = tls_depth; i > 0; --i) {
        held_entry& entry = tls_held[i - 1];
        if (entry.rank == rank && entry.name == name) {
            for (std::size_t j = i; j < tls_depth; ++j) {
                tls_held[j - 1] = tls_held[j];
            }
            --tls_depth;
            return;
        }
    }
    std::fprintf(stderr,
                 "synts lock_rank: release of \"%s\" (rank %u) which this "
                 "thread does not hold\n",
                 name != nullptr ? name : "?",
                 static_cast<unsigned>(rank));
    std::abort();
}

std::size_t held_count() noexcept
{
    return tls_depth;
}

void note_created(const void* mutex, lock_rank rank, const char* name)
{
    live_registry& reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    reg.mutexes[mutex] = live_mutex{rank, name};
}

void note_destroyed(const void* mutex) noexcept
{
    live_registry& reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    reg.mutexes.erase(mutex);
}

std::vector<live_mutex> live_mutexes()
{
    live_registry& reg = registry();
    std::vector<live_mutex> out;
    const std::lock_guard<std::mutex> lock(reg.mutex);
    out.reserve(reg.mutexes.size());
    for (const auto& [unused, info] : reg.mutexes) {
        out.push_back(info);
    }
    return out;
}

} // namespace lock_rank_detail

#endif // SYNTS_LOCK_RANK_CHECKS

} // namespace synts::util
