// thread_pool.h -- work-stealing thread pool for the experiment runtime.
//
// The pool has one entry point, `parallel_for`: a sweep's (benchmark,
// stage) pairs and the characterization pipeline's inner loops both fan
// out through it. A loop's blocks are claimed from a shared counter in
// index order (0, 1, 2, ...) by the calling thread and by any workers it
// recruits; the caller claims and runs its OWN blocks while it waits,
// never unrelated work, so nested parallelism cannot deadlock even on a
// single-worker pool, and a caller mid-construction of a cache entry
// never lifts work that would block on that same entry.
//
// Recruiting a worker queues a handle to the loop's shared control block:
// one deque per worker, owner pops LIFO from the front, idle workers steal
// FIFO from the back of a victim chosen round-robin. A worker that pops a
// handle joins that loop's drain; a handle popped after its loop finished
// claims nothing. The shape follows the worker loop of adevs' SpecThread
// (see SNIPPETS.md): park on a condition variable, wake, drain, repark.
//
// A join_point lets threads that wait for one computation's result run
// that computation's blocks. The computing thread passes it to each
// parallel_for it starts; the loop is published there while it runs and
// withdrawn when it returns. A waiter calls help(), which drains whatever
// is published and sleeps only while nothing unclaimed is, until the
// computing thread calls settle(). The waiter thus runs only blocks of
// the computation it waits on, never unrelated work; the experiment
// cache's in-flight entries are its one user (runtime/experiment_cache.h).

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "util/parallel.h"
#include "util/thread_safety.h"

namespace synts::obs {
class counter;
} // namespace synts::obs

namespace synts::runtime {

/// Work-stealing pool of `worker_count` threads.
class thread_pool {
public:
    /// `worker_count` 0 picks std::thread::hardware_concurrency() (min 1).
    /// Exception-safe: if spawning the i-th worker thread fails, the
    /// already-started workers are stopped and joined before the exception
    /// propagates (no std::terminate from unjoined std::threads).
    explicit thread_pool(std::size_t worker_count = 0);

    /// Stops and joins the workers; loop handles still queued are dropped.
    /// That loses no work: every parallel_for caller drains its own
    /// unclaimed blocks, so no loop depends on a queued handle running.
    ~thread_pool();

    thread_pool(const thread_pool&) = delete;
    thread_pool& operator=(const thread_pool&) = delete;

    class join_point;

    /// Number of worker threads.
    [[nodiscard]] std::size_t worker_count() const noexcept { return queues_.size(); }

    /// Runs `body(i)` for every i in [begin, end), in parallel, in blocks of
    /// `grain` indices (0 = auto: count / (4 * workers), at least 1).
    /// Blocks are claimed in index order. Blocks until every index
    /// completed; the calling thread claims and executes this loop's blocks
    /// while it waits, so completion never depends on a free worker.
    /// Rethrows the first failing block's exception (by index order) after
    /// all blocks settle. `join`, when given, publishes the loop there
    /// while it runs, so the threads helping at that join point claim its
    /// blocks too (see the file comment).
    void parallel_for(std::size_t begin, std::size_t end,
                      const std::function<void(std::size_t)>& body,
                      std::size_t grain = 0, join_point* join = nullptr);

    /// Loop handles stolen from another worker's queue since construction
    /// (read by perfbench's runtime.pool.steals and the runner's summary
    /// line; not part of any contract).
    [[nodiscard]] std::uint64_t steal_count() const noexcept
    {
        return steals_.load(std::memory_order_relaxed);
    }

    /// Loop handles workers took off a queue to run since construction.
    /// A handle may still be queued after its loop returned, so the count
    /// can grow after parallel_for returns.
    [[nodiscard]] std::uint64_t executed_count() const noexcept
    {
        return executed_.load(std::memory_order_relaxed);
    }

private:
    /// One parallel_for's shared control block (defined in the .cpp).
    struct loop_state;
    using loop_handle = std::shared_ptr<loop_state>;

    struct worker_queue {
        util::annotated_mutex mutex;
        std::deque<loop_handle> loops SYNTS_GUARDED_BY(mutex);
    };

    /// Queues `loop` for a worker: on the calling worker's own queue, or
    /// round-robin from outside the pool.
    void enqueue(loop_handle loop);
    /// Pops loop handles and joins each loop's drain (counted in
    /// executed_count(), timed into pool.task_ns under telemetry) until the
    /// pool stops.
    void worker_loop(std::size_t index);
    /// Pops from own queue front, else steals from a victim's back.
    bool acquire(std::size_t index, loop_handle& out);
    /// Sets the stop flag, wakes every worker and joins them.
    void stop_and_join();

    std::vector<std::unique_ptr<worker_queue>> queues_;
    std::vector<std::thread> workers_;

    /// The sleep gate. Guards no non-atomic data of its own (the flags it
    /// orders are atomics); it exists so a worker's recheck-then-park and
    /// enqueue's publish-then-notify are mutually exclusive.
    util::annotated_mutex sleep_mutex_;
    std::condition_variable_any wake_;
    std::atomic<std::size_t> pending_{0};
    std::atomic<std::size_t> next_queue_{0};
    std::atomic<bool> stopping_{false};
    std::atomic<std::uint64_t> steals_{0};
    std::atomic<std::uint64_t> executed_{0};

    // Registry instruments (pool.* taxonomy), resolved once at
    // construction. The per-instance atomics above stay authoritative for
    // steal_count()/executed_count(); the registry aggregates across every
    // pool in the process for --metrics.
    obs::counter* obs_executed_;
    obs::counter* obs_steals_;
    obs::counter* obs_task_ns_;
};

/// Where the loops of one computation meet the threads waiting for its
/// result (see the file comment). One loop is published at a time: the
/// computing thread starts its loops one after another.
class thread_pool::join_point {
public:
    /// Runs the unclaimed blocks of whatever loop is published, sleeping
    /// while there is none, until settle(). Returns the number of blocks
    /// this call ran.
    std::size_t help();

    /// Ends every help() call, now and later: the result is ready (or its
    /// computation failed).
    void settle();

private:
    friend class thread_pool;

    void publish(loop_handle loop);
    void withdraw();

    util::annotated_mutex mutex_;
    std::condition_variable_any wake_;
    loop_handle published_ SYNTS_GUARDED_BY(mutex_);
    bool settled_ SYNTS_GUARDED_BY(mutex_) = false;
};

/// Adapts `pool` to the layer-neutral util::parallel_for_fn hook the
/// characterization pipeline (workload generation, profiling, per-interval
/// timing simulation) consumes. The returned function captures `pool` by
/// reference and must not outlive it; because parallel_for is self-claiming
/// (the caller completes the fan-out alone if no worker is free, and never
/// executes unrelated work while blocked), the hook is safe to invoke from
/// inside another loop's body -- including mid-construction of a cache
/// entry. Every loop it starts is published at `join`, when given.
[[nodiscard]] util::parallel_for_fn make_parallel_for(thread_pool& pool,
                                                      thread_pool::join_point* join = nullptr);

} // namespace synts::runtime
