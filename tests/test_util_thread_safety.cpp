// Tests for util/thread_safety.h: the annotated mutex and its scoped
// guards. Lock order is not checked by the wrapper; the TSan CI job runs
// this suite (the nesting test below is its target) and
// scripts/tsan_fixtures/ proves TSan reports an inversion.

#include <gtest/gtest.h>

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "util/thread_safety.h"

namespace {

using synts::util::annotated_mutex;
using synts::util::cv_mutex_lock;
using synts::util::mutex_lock;

TEST(util_thread_safety, try_lock_and_unlock)
{
    annotated_mutex m;
    ASSERT_TRUE(m.try_lock());
    bool other_thread_got_it = true;
    std::thread other([&] {
        other_thread_got_it = m.try_lock();
        if (other_thread_got_it) {
            m.unlock();
        }
    });
    other.join();
    EXPECT_FALSE(other_thread_got_it);
    m.unlock();
    ASSERT_TRUE(m.try_lock());
    m.unlock();
}

TEST(util_thread_safety, condition_variable_wait_through_cv_mutex_lock)
{
    annotated_mutex gate;
    std::condition_variable_any cv;
    bool ready = false;
    std::thread signaller([&] {
        const mutex_lock lock(gate);
        ready = true;
        cv.notify_one();
    });
    {
        cv_mutex_lock lock(gate);
        while (!ready) {
            cv.wait(lock);
        }
        EXPECT_TRUE(ready);
    }
    signaller.join();
    // The guard released the gate on scope exit.
    ASSERT_TRUE(gate.try_lock());
    gate.unlock();
}

TEST(util_thread_safety, concurrent_lockers_in_rank_order_are_clean)
{
    // TSan target: many threads nesting the same two mutexes in one fixed
    // order must neither race nor report a lock-order inversion.
    annotated_mutex outer;
    annotated_mutex inner;
    std::uint64_t guarded = 0;
    std::vector<std::thread> threads;
    constexpr int thread_count = 8;
    constexpr int iterations = 500;
    threads.reserve(thread_count);
    for (int t = 0; t < thread_count; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < iterations; ++i) {
                const mutex_lock a(outer);
                const mutex_lock b(inner);
                ++guarded;
            }
        });
    }
    for (std::thread& t : threads) {
        t.join();
    }
    EXPECT_EQ(guarded, static_cast<std::uint64_t>(thread_count) * iterations);
}

TEST(util_thread_safety, release_build_wrapper_adds_no_state)
{
    // Every build type has one layout: the wrapper is exactly a std::mutex.
    static_assert(sizeof(annotated_mutex) == sizeof(std::mutex));
}

} // namespace
