#include "runtime/thread_pool.h"

#include "obs/metrics.h"

#include <algorithm>
#include <exception>

namespace synts::runtime {

namespace {

/// Index of the pool worker running on this thread, or npos outside a pool.
/// Used so loops started inside a worker queue their handles on that
/// worker's own queue (LIFO locality) instead of round-robin.
constexpr std::size_t npos = static_cast<std::size_t>(-1);
thread_local std::size_t tls_worker_index = npos;
thread_local const thread_pool* tls_worker_pool = nullptr;

} // namespace

struct thread_pool::loop_state {
    const std::function<void(std::size_t)>* body = nullptr;
    std::size_t begin = 0;
    std::size_t end = 0;
    std::size_t grain = 1;
    std::size_t block_count = 0;
    std::atomic<std::size_t> next_block{0};
    std::atomic<std::size_t> remaining{0};
    std::vector<std::exception_ptr> errors; ///< [block]

    /// Claims blocks in index order until none is left and returns how
    /// many it ran. Once every block is claimed this touches only the
    /// counter, so a handle run after its loop returned (the shared_ptr
    /// keeps the state alive) is harmless.
    std::size_t drain()
    {
        for (std::size_t ran = 0;; ++ran) {
            const std::size_t block = next_block.fetch_add(1, std::memory_order_relaxed);
            if (block >= block_count) {
                return ran;
            }
            const std::size_t block_begin = begin + block * grain;
            const std::size_t block_end = std::min(end, block_begin + grain);
            try {
                for (std::size_t i = block_begin; i < block_end; ++i) {
                    (*body)(i);
                }
            } catch (...) {
                errors[block] = std::current_exception();
            }
            if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
                remaining.notify_all();
            }
        }
    }
};

thread_pool::thread_pool(std::size_t worker_count)
    : obs_executed_(&obs::metrics_registry::global().counter_at("pool.tasks_executed")),
      obs_steals_(&obs::metrics_registry::global().counter_at("pool.steals")),
      obs_task_ns_(&obs::metrics_registry::global().counter_at("pool.task_ns"))
{
    if (worker_count == 0) {
        worker_count = std::max<std::size_t>(1, std::thread::hardware_concurrency());
    }
    queues_.reserve(worker_count);
    for (std::size_t i = 0; i < worker_count; ++i) {
        queues_.push_back(std::make_unique<worker_queue>());
    }
    workers_.reserve(worker_count);
    try {
        for (std::size_t i = 0; i < worker_count; ++i) {
            workers_.emplace_back([this, i] { worker_loop(i); });
        }
    } catch (...) {
        // Thread creation can fail (resource exhaustion). Already-started
        // workers MUST be stopped and joined before the exception leaves,
        // or their std::thread destructors call std::terminate.
        stop_and_join();
        throw;
    }
}

thread_pool::~thread_pool()
{
    stop_and_join();
}

void thread_pool::stop_and_join()
{
    {
        const util::mutex_lock lock(sleep_mutex_);
        stopping_.store(true, std::memory_order_release);
    }
    wake_.notify_all();
    for (std::thread& worker : workers_) {
        worker.join();
    }
}

void thread_pool::enqueue(loop_handle loop)
{
    std::size_t target = tls_worker_pool == this ? tls_worker_index : npos;
    if (target == npos) {
        target = next_queue_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
    }
    {
        // sleep_mutex_ is held across the push and the increment so the
        // increment is ordered against the workers' predicate check under
        // sleep_mutex_; otherwise a notify can land in the window between
        // a worker seeing pending_ == 0 and blocking, and the handle waits
        // for the next wakeup.
        //
        // This is the only place in src/ that holds two mutexes at once:
        // enqueue takes sleep_mutex_ and then a queue mutex, and no code
        // takes them the other way (workers lock each one on its own).
        // ThreadSanitizer's deadlock detector reports any run that takes
        // the pair in both orders.
        const util::mutex_lock lock(sleep_mutex_);
        {
            worker_queue& queue = *queues_[target];
            const util::mutex_lock queue_lock(queue.mutex);
            queue.loops.push_front(std::move(loop));
        }
        pending_.fetch_add(1, std::memory_order_release);
    }
    wake_.notify_one();
}

bool thread_pool::acquire(std::size_t index, loop_handle& out)
{
    {
        worker_queue& own = *queues_[index];
        const util::mutex_lock lock(own.mutex);
        if (!own.loops.empty()) {
            out = std::move(own.loops.front());
            own.loops.pop_front();
            return true;
        }
    }
    for (std::size_t hop = 1; hop < queues_.size(); ++hop) {
        worker_queue& victim = *queues_[(index + hop) % queues_.size()];
        const util::mutex_lock lock(victim.mutex);
        if (!victim.loops.empty()) {
            out = std::move(victim.loops.back());
            victim.loops.pop_back();
            steals_.fetch_add(1, std::memory_order_relaxed);
            obs_steals_->add(1);
            return true;
        }
    }
    return false;
}

void thread_pool::worker_loop(std::size_t index)
{
    tls_worker_index = index;
    tls_worker_pool = this;
    while (!stopping_.load(std::memory_order_acquire)) {
        loop_handle loop;
        if (acquire(index, loop)) {
            pending_.fetch_sub(1, std::memory_order_acq_rel);
            executed_.fetch_add(1, std::memory_order_relaxed);
            obs_executed_->add(1);
            const obs::scoped_timer timer(*obs_task_ns_);
            loop->drain();
            continue;
        }
        util::cv_mutex_lock lock(sleep_mutex_);
        // The predicate reads only atomics (no guarded data), so the
        // predicate overload stays analysis-clean here.
        wake_.wait(lock, [this] {
            return pending_.load(std::memory_order_acquire) > 0 ||
                   stopping_.load(std::memory_order_acquire);
        });
    }
}

std::size_t thread_pool::join_point::help()
{
    for (std::size_t ran = 0;;) {
        loop_handle loop;
        {
            util::cv_mutex_lock lock(mutex_);
            while (!settled_ &&
                   (!published_ || published_->next_block.load(std::memory_order_relaxed) >=
                                       published_->block_count)) {
                wake_.wait(lock);
            }
            if (settled_) {
                return ran;
            }
            loop = published_;
        }
        ran += loop->drain();
    }
}

void thread_pool::join_point::settle()
{
    {
        const util::mutex_lock lock(mutex_);
        settled_ = true;
    }
    wake_.notify_all();
}

void thread_pool::join_point::publish(loop_handle loop)
{
    {
        const util::mutex_lock lock(mutex_);
        published_ = std::move(loop);
    }
    wake_.notify_all();
}

void thread_pool::join_point::withdraw()
{
    const util::mutex_lock lock(mutex_);
    published_.reset();
}

void thread_pool::parallel_for(std::size_t begin, std::size_t end,
                               const std::function<void(std::size_t)>& body,
                               std::size_t grain, join_point* join)
{
    if (begin >= end) {
        return;
    }
    const std::size_t count = end - begin;
    if (grain == 0) {
        // Aim for a few blocks per worker so claiming can rebalance.
        grain = std::max<std::size_t>(1, count / (4 * worker_count()));
    }

    // Self-claiming execution: the caller and any recruited workers pull
    // block indices from a shared counter and run ONLY this loop's blocks.
    // Two properties follow:
    //
    //   * progress never depends on the pool: a fully-busy (or one-worker)
    //     pool just degrades to the caller running every block itself, so
    //     nested parallelism cannot deadlock;
    //   * the caller executes no foreign work while blocked. Waiting by
    //     running any queued work could lift work that blocks on a
    //     shared-future the caller itself is mid-constructing (the
    //     experiment cache's in-flight entries) -- a self-wait cycle.
    const auto loop = std::make_shared<loop_state>();
    loop->body = &body;
    loop->begin = begin;
    loop->end = end;
    loop->grain = grain;
    loop->block_count = (count + grain - 1) / grain;
    loop->remaining.store(loop->block_count, std::memory_order_relaxed);
    loop->errors.resize(loop->block_count);

    // Recruit at most one worker per block beyond the caller. No block
    // depends on a recruit: once the pool stops, queued handles are never
    // run, and the caller drains every unclaimed block itself.
    const std::size_t participants = std::min(worker_count(), loop->block_count - 1);
    for (std::size_t p = 0; p < participants; ++p) {
        enqueue(loop);
    }
    if (join != nullptr) {
        join->publish(loop);
    }

    loop->drain();
    for (std::size_t r = loop->remaining.load(std::memory_order_acquire); r != 0;
         r = loop->remaining.load(std::memory_order_acquire)) {
        loop->remaining.wait(r, std::memory_order_acquire);
    }
    if (join != nullptr) {
        join->withdraw();
    }

    // First failing block by index order.
    for (const std::exception_ptr& error : loop->errors) {
        if (error) {
            std::rethrow_exception(error);
        }
    }
}

util::parallel_for_fn make_parallel_for(thread_pool& pool, thread_pool::join_point* join)
{
    return [&pool, join](std::size_t count, const std::function<void(std::size_t)>& body) {
        pool.parallel_for(0, count, body, 0, join);
    };
}

} // namespace synts::runtime
