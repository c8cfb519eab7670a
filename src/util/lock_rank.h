// lock_rank.h -- the canonical lock-order table plus a debug-only
// lock-rank deadlock detector.
//
// TSan finds lock-order cycles only on interleavings that actually execute;
// the rank detector finds deadlock POTENTIAL on any single execution. Every
// annotated_mutex (util/thread_safety.h) declares a rank from the table
// below, and a thread may only acquire a mutex whose rank is STRICTLY
// GREATER than the highest rank it already holds. Any violation -- on any
// thread, in any test, under any schedule -- aborts immediately with both
// mutex names and ranks, so a lock-order comment can never silently drift
// from reality.
//
// The rank table (lower rank = acquired first; the partial order is the
// transitive closure of the real nesting sites cited):
//
//   rank | name              | mutex                            | held while taking
//   -----+-------------------+----------------------------------+------------------
//     20 | pool_sleep        | thread_pool::sleep_mutex_        | pool_queue (enqueue's
//        |                   |                                  | gate+push sequence)
//     30 | pool_queue        | thread_pool::worker_queue::mutex | (leaf; never two at once)
//     40 | cache_shard       | memo_tier::mutex_                | (leaf; factories run
//        |                   |                                  | outside the tier lock)
//     60 | workload_registry | workload_registry::mutex_        | (leaf; factories invoked
//        |                   |                                  | outside the lock)
//     80 | metrics_registry  | metrics_registry::mutex_         | (leaf; guards interning
//        |                   |                                  | only, not instrument IO)
//    110 | trace_buffers     | trace_recorder::buffers_mutex_   | (leaf; once per
//        |                   |                                  | (thread, recorder))
//
// Gating: the detector compiles to NOTHING in release builds --
// annotated_mutex is then layout-identical to std::mutex and every note_*
// call disappears (bench_locks pins the overhead at <= 2% over a raw
// std::mutex). It is on when NDEBUG is not defined (the default Debug
// build), and can be forced on in optimized builds (the TSan CI job) with
// -DSYNTS_LOCK_RANK=ON, which defines SYNTS_FORCE_LOCK_RANK_CHECKS
// globally. Define it for the WHOLE build, never per-TU: annotated_mutex's
// layout depends on it.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#if defined(SYNTS_FORCE_LOCK_RANK_CHECKS)
#define SYNTS_LOCK_RANK_CHECKS 1
#elif defined(NDEBUG)
#define SYNTS_LOCK_RANK_CHECKS 0
#else
#define SYNTS_LOCK_RANK_CHECKS 1
#endif

namespace synts::util {

/// The lock-order table (see the file comment for the per-row rationale).
/// Gaps between values are deliberate: a future mutex slots between two
/// existing ranks without renumbering the table.
enum class lock_rank : std::uint16_t {
    pool_sleep = 20,
    pool_queue = 30,
    cache_shard = 40,
    workload_registry = 60,
    metrics_registry = 80,
    trace_buffers = 110,
};

/// Human-readable name of a table rank, or nullptr for a value outside the
/// table (the coverage test asserts every live mutex maps to a named rank).
[[nodiscard]] const char* lock_rank_name(lock_rank rank) noexcept;

namespace lock_rank_detail {

#if SYNTS_LOCK_RANK_CHECKS

/// Checks `rank` against the calling thread's held-rank stack and pushes
/// it. Called BEFORE blocking on the underlying mutex, so an ordering
/// violation aborts (with both mutex names and ranks on stderr) instead of
/// deadlocking. Strictly ascending: acquiring at a rank <= the top of the
/// stack is a violation, including equal ranks -- no same-rank nesting
/// exists in the codebase (the pool never holds two queue locks).
void note_acquired(lock_rank rank, const char* name) noexcept;

/// Pops `rank` from the calling thread's held stack (topmost matching
/// entry). Aborts on a release of a lock the thread does not hold.
void note_released(lock_rank rank, const char* name) noexcept;

/// Locks currently held by the calling thread (test hook).
[[nodiscard]] std::size_t held_count() noexcept;

/// Registers a live annotated mutex (called by its constructor).
void note_created(const void* mutex, lock_rank rank, const char* name);

/// Unregisters a live annotated mutex (called by its destructor).
void note_destroyed(const void* mutex) noexcept;

struct live_mutex {
    lock_rank rank;
    const char* name;
};

/// Snapshot of every live annotated mutex in the process -- the coverage
/// test walks it to assert the rank table names every rank in use.
[[nodiscard]] std::vector<live_mutex> live_mutexes();

#endif // SYNTS_LOCK_RANK_CHECKS

} // namespace lock_rank_detail

} // namespace synts::util
