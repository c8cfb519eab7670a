// Tests for runtime/thread_pool: parallel_for is the pool's only entry
// point. Covered: every index runs once under contention, results match a
// serial run, body exceptions propagate (first failing block by index) and
// leave the pool usable, nested loops neither deadlock on a single worker
// nor go unhelped on a wide pool, and destroying a pool while straggler
// loop handles may still be queued is clean (this suite runs under TSan in
// CI and under ASan in the sanitizer build). A join point lets a thread
// that waits for a computation run that computation's loop blocks: the
// owner's loop cannot finish without one, and help() returns only once the
// owner settles.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "runtime/thread_pool.h"

namespace {

using synts::runtime::thread_pool;

TEST(runtime_pool, worker_count_defaults_to_at_least_one)
{
    thread_pool pool;
    EXPECT_GE(pool.worker_count(), 1u);
    thread_pool fixed(3);
    EXPECT_EQ(fixed.worker_count(), 3u);
}

TEST(runtime_pool, many_tasks_all_execute_exactly_once)
{
    // Grain 1: 2000 one-index blocks claimed by the caller and 4 workers.
    thread_pool pool(4);
    constexpr std::size_t n = 2000;
    std::vector<std::atomic<int>> visits(n);
    pool.parallel_for(0, n, [&visits](std::size_t i) {
        visits[i].fetch_add(1, std::memory_order_relaxed);
    }, 1);
    for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(visits[i].load(), 1) << "index " << i;
    }
}

TEST(runtime_pool, results_deterministic_vs_serial_run)
{
    // Each index computes a pure function of itself into a pre-assigned
    // slot; the aggregate must equal the serial evaluation regardless of
    // scheduling order.
    constexpr std::size_t n = 500;
    std::vector<double> serial(n);
    for (std::size_t i = 0; i < n; ++i) {
        serial[i] = std::sin(static_cast<double>(i)) * std::sqrt(i + 1.0);
    }

    thread_pool pool(4);
    std::vector<double> parallel(n);
    pool.parallel_for(0, n, [&parallel](std::size_t i) {
        parallel[i] = std::sin(static_cast<double>(i)) * std::sqrt(i + 1.0);
    }, 1);
    for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(parallel[i], serial[i]) << "slot " << i;
    }
}

TEST(runtime_pool, exceptions_propagate_and_pool_survives)
{
    // A loop whose body throws is followed by a loop that completes on the
    // same pool: the workers that ran the throwing blocks still serve.
    thread_pool pool(2);
    EXPECT_THROW(pool.parallel_for(0, 64, [](std::size_t) {
        throw std::runtime_error("boom");
    }, 1), std::runtime_error);
    std::vector<std::atomic<int>> visits(64);
    pool.parallel_for(0, 64, [&visits](std::size_t i) {
        visits[i].fetch_add(1, std::memory_order_relaxed);
    }, 1);
    for (std::size_t i = 0; i < visits.size(); ++i) {
        ASSERT_EQ(visits[i].load(), 1) << "index " << i;
    }
}

TEST(runtime_pool, parallel_for_covers_every_index_once)
{
    thread_pool pool(4);
    constexpr std::size_t n = 1000;
    std::vector<std::atomic<int>> visits(n);
    pool.parallel_for(0, n, [&visits](std::size_t i) {
        visits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(visits[i].load(), 1) << "index " << i;
    }
}

TEST(runtime_pool, parallel_for_empty_and_single_ranges)
{
    thread_pool pool(2);
    int calls = 0;
    pool.parallel_for(5, 5, [&calls](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    std::atomic<int> one{0};
    pool.parallel_for(9, 10, [&one](std::size_t i) {
        EXPECT_EQ(i, 9u);
        one.fetch_add(1);
    });
    EXPECT_EQ(one.load(), 1);
}

TEST(runtime_pool, parallel_for_propagates_body_exception)
{
    thread_pool pool(2);
    EXPECT_THROW(pool.parallel_for(0, 100,
                                   [](std::size_t i) {
                                       if (i == 37) {
                                           throw std::logic_error("index 37");
                                       }
                                   },
                                   8),
                 std::logic_error);
}

TEST(runtime_pool, nested_parallel_for_does_not_deadlock_single_worker)
{
    // Both outer blocks may land on the pool's only worker and the caller;
    // each then runs an inner loop whose blocks no free worker will help
    // with, so every inner loop must be drained by its own caller.
    thread_pool pool(1);
    std::atomic<int> inner_total{0};
    pool.parallel_for(0, 2, [&pool, &inner_total](std::size_t) {
        pool.parallel_for(0, 16, [&inner_total](std::size_t) {
            inner_total.fetch_add(1, std::memory_order_relaxed);
        });
    }, 1);
    EXPECT_EQ(inner_total.load(), 32);
}

TEST(runtime_pool, nested_parallel_for_is_helped_by_idle_workers)
{
    // The outer loop's second block runs on a worker while the caller
    // holds the first block until the inner loop is done. The inner loop's
    // handles land on that worker's own queue, so the three idle workers
    // can only help by stealing them.
    thread_pool pool(4);
    const std::thread::id caller = std::this_thread::get_id();
    constexpr std::size_t inner = 128;
    std::vector<std::atomic<int>> visits(inner);
    std::atomic<bool> inner_done{false};
    std::atomic<std::uint64_t> steals_before{0};
    pool.parallel_for(0, 2, [&](std::size_t) {
        if (std::this_thread::get_id() == caller) {
            const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
            while (!inner_done.load(std::memory_order_acquire) &&
                   std::chrono::steady_clock::now() < deadline) {
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
            return;
        }
        steals_before.store(pool.steal_count(), std::memory_order_relaxed);
        pool.parallel_for(0, inner, [&visits](std::size_t i) {
            visits[i].fetch_add(1, std::memory_order_relaxed);
            std::this_thread::sleep_for(std::chrono::microseconds(100));
        }, 1);
        inner_done.store(true, std::memory_order_release);
    }, 1);
    ASSERT_TRUE(inner_done.load());
    for (std::size_t i = 0; i < inner; ++i) {
        ASSERT_EQ(visits[i].load(), 1) << "index " << i;
    }
    EXPECT_GT(pool.steal_count(), steals_before.load());
}

TEST(runtime_pool, destruction_right_after_parallel_for_is_clean)
{
    // parallel_for returns once every block ran, possibly before every
    // recruited handle was popped: the destructor then drops the
    // stragglers. Repeated on fresh pools so some destructions race
    // workers that are still waking for, or running, a finished loop.
    for (int round = 0; round < 50; ++round) {
        std::atomic<int> done{0};
        {
            thread_pool pool(3);
            pool.parallel_for(0, 8, [&done](std::size_t) {
                done.fetch_add(1, std::memory_order_relaxed);
            }, 1);
        }
        ASSERT_EQ(done.load(), 8) << "round " << round;
    }
}

TEST(runtime_pool, destruction_with_mixed_pending_and_running_work_loses_nothing)
{
    // Several external threads run loops on one pool at once, so worker
    // queues hold a mix of live and finished loops' handles; the pool is
    // destroyed right after the last loop returns. Every index of every
    // loop still ran exactly once.
    constexpr int callers = 3;
    constexpr int loops_per_caller = 20;
    constexpr std::size_t n = 16;
    std::atomic<int> done{0};
    {
        thread_pool pool(3);
        std::vector<std::thread> threads;
        threads.reserve(callers);
        for (int c = 0; c < callers; ++c) {
            threads.emplace_back([&pool, &done] {
                for (int l = 0; l < loops_per_caller; ++l) {
                    pool.parallel_for(0, n, [&done](std::size_t) {
                        done.fetch_add(1, std::memory_order_relaxed);
                    }, 1);
                }
            });
        }
        for (std::thread& thread : threads) {
            thread.join();
        }
    }
    EXPECT_EQ(done.load(), callers * loops_per_caller * static_cast<int>(n));
}

/// Set on the thread that helps at a join point, so a loop body can tell
/// the helper's blocks from the owner's and the workers'.
thread_local bool on_helper = false;

TEST(runtime_pool, join_point_helper_runs_blocks_of_the_published_loop)
{
    // Every block that does not run on the helper waits until the helper
    // has run one. The owner and the pool's one worker can claim at most
    // one block each before they wait, so the loop completes only if the
    // helper, which was parked on the join point before the loop started,
    // drains some of its blocks.
    thread_pool pool(1);
    thread_pool::join_point join;
    constexpr std::size_t n = 8;
    std::vector<std::atomic<int>> visits(n);
    std::atomic<int> helper_blocks{0};
    std::size_t helped = 0;
    std::thread helper([&] {
        on_helper = true;
        helped = join.help();
    });
    pool.parallel_for(0, n, [&](std::size_t i) {
        if (on_helper) {
            helper_blocks.fetch_add(1, std::memory_order_release);
            helper_blocks.notify_all();
        } else {
            for (int seen = helper_blocks.load(std::memory_order_acquire); seen == 0;
                 seen = helper_blocks.load(std::memory_order_acquire)) {
                helper_blocks.wait(seen, std::memory_order_acquire);
            }
        }
        visits[i].fetch_add(1, std::memory_order_relaxed);
    }, 1, &join);
    for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(visits[i].load(), 1) << "index " << i;
    }
    // help() keeps waiting for the next loop until the owner settles.
    join.settle();
    helper.join();
    EXPECT_GE(helped, 1u);
    EXPECT_EQ(helped, static_cast<std::size_t>(helper_blocks.load()));
    // A settled join point sends a late helper straight back.
    EXPECT_EQ(join.help(), 0u);
}

TEST(runtime_pool, join_point_helper_sees_failures_only_through_the_loop)
{
    // A block that throws on the helper still reaches the owner's
    // parallel_for, first failing block by index, as on any thread.
    thread_pool pool(1);
    thread_pool::join_point join;
    std::atomic<bool> helper_ran{false};
    std::thread helper([&] {
        on_helper = true;
        (void)join.help();
    });
    EXPECT_THROW(pool.parallel_for(0, 4, [&](std::size_t) {
        if (on_helper) {
            helper_ran.store(true, std::memory_order_release);
            helper_ran.notify_all();
            throw std::runtime_error("helper block failed");
        }
        helper_ran.wait(false, std::memory_order_acquire);
    }, 1, &join), std::runtime_error);
    join.settle();
    helper.join();
}

} // namespace
