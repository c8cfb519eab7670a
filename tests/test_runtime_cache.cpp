// Tests for runtime/experiment_cache: hit/miss accounting (read from the
// caller's cache_traffic / tier_traffic sink), identity of the
// served instance, bit-identical results from cached vs freshly built
// experiments, config-digest keying, single construction under concurrent
// access, the constructor-failure retry path (through the cache and
// directly on a memo_tier with waiters parked on the failing key), and a
// waiter running the blocks of the construction it waits on.

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/experiment.h"
#include "obs/metrics.h"
#include "runtime/experiment_cache.h"
#include "runtime/thread_pool.h"

namespace {

using namespace synts;
using runtime::experiment_cache;

constexpr auto kBenchmark = workload::benchmark_id::radix;
constexpr auto kStage = circuit::pipe_stage::simple_alu;

TEST(runtime_cache, miss_then_hits_serve_the_same_instance)
{
    experiment_cache cache;
    runtime::cache_traffic traffic;
    const auto first = cache.get_or_create(kBenchmark, kStage, {}, nullptr, &traffic);
    const auto second = cache.get_or_create(kBenchmark, kStage, {}, nullptr, &traffic);
    EXPECT_EQ(first.get(), second.get());
    EXPECT_EQ(traffic.stage.misses.load(), 1u);
    EXPECT_EQ(traffic.stage.hits.load(), 1u);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(runtime_cache, distinct_keys_get_distinct_entries)
{
    experiment_cache cache;
    runtime::cache_traffic traffic;
    const auto a = cache.get_or_create(kBenchmark, kStage, {}, nullptr, &traffic);
    const auto b =
        cache.get_or_create(kBenchmark, circuit::pipe_stage::decode, {}, nullptr, &traffic);
    core::experiment_config reseeded;
    reseeded.seed = 43;
    const auto c = cache.get_or_create(kBenchmark, kStage, reseeded, nullptr, &traffic);
    EXPECT_NE(a.get(), b.get());
    EXPECT_NE(a.get(), c.get());
    EXPECT_EQ(traffic.stage.misses.load(), 3u);
    EXPECT_EQ(traffic.stage.hits.load(), 0u);
    EXPECT_EQ(cache.size(), 3u);
}

TEST(runtime_cache, config_digest_tracks_every_field)
{
    const core::experiment_config base;
    EXPECT_EQ(base.digest(), core::experiment_config{}.digest());

    core::experiment_config changed = base;
    changed.seed = 7;
    EXPECT_NE(changed.digest(), base.digest());

    changed = base;
    changed.thread_count = 8;
    EXPECT_NE(changed.digest(), base.digest());

    changed = base;
    changed.sampling.sample_fraction = 0.2;
    EXPECT_NE(changed.digest(), base.digest());

    changed = base;
    changed.characterization.histogram_bins = 256;
    EXPECT_NE(changed.digest(), base.digest());

    changed = base;
    changed.characterization.core.dcache.miss_penalty_cycles = 30;
    EXPECT_NE(changed.digest(), base.digest());

    changed = base;
    changed.params.leakage_power = 1e-6;
    EXPECT_NE(changed.digest(), base.digest());

    changed = base;
    changed.voltage_class_spread = 0.0;
    EXPECT_NE(changed.digest(), base.digest());
}

TEST(runtime_cache, cached_experiment_matches_fresh_construction_bit_for_bit)
{
    experiment_cache cache;
    const auto cached = cache.get_or_create(kBenchmark, kStage);
    const core::benchmark_experiment fresh(kBenchmark, kStage, {});

    const double theta = fresh.equal_weight_theta();
    EXPECT_EQ(cached->equal_weight_theta(), theta);

    for (const core::policy_kind kind :
         {core::policy_kind::synts_offline, core::policy_kind::synts_online}) {
        const auto from_cache = cached->run_policy(kind, theta);
        const auto from_fresh = fresh.run_policy(kind, theta);
        ASSERT_EQ(from_cache.intervals.size(), from_fresh.intervals.size());
        EXPECT_EQ(from_cache.sum.energy, from_fresh.sum.energy);
        EXPECT_EQ(from_cache.sum.time_ps, from_fresh.sum.time_ps);
        for (std::size_t k = 0; k < from_cache.intervals.size(); ++k) {
            EXPECT_EQ(from_cache.intervals[k].energy, from_fresh.intervals[k].energy);
            EXPECT_EQ(from_cache.intervals[k].time_ps, from_fresh.intervals[k].time_ps);
        }
    }
}

TEST(runtime_cache, concurrent_get_or_create_constructs_once)
{
    experiment_cache cache;
    runtime::cache_traffic traffic;
    runtime::thread_pool pool(4);
    constexpr std::size_t callers = 8;
    std::vector<experiment_cache::experiment_ptr> served(callers);
    pool.parallel_for(0, callers, [&](std::size_t i) {
        served[i] = cache.get_or_create(kBenchmark, kStage, {}, nullptr, &traffic);
    }, 1);
    for (const auto& ptr : served) {
        EXPECT_EQ(ptr.get(), served.front().get());
    }
    EXPECT_EQ(traffic.stage.misses.load(), 1u);
    EXPECT_EQ(traffic.stage.hits.load(), callers - 1);
}

TEST(runtime_cache, constructor_failure_is_rethrown_and_retryable)
{
    experiment_cache cache;
    runtime::cache_traffic traffic;
    core::experiment_config broken;
    broken.thread_count = 0; // make_profile rejects this
    EXPECT_THROW((void)cache.get_or_create(kBenchmark, kStage, broken, nullptr, &traffic),
                 std::invalid_argument);
    EXPECT_EQ(cache.size(), 0u); // failed entry dropped
    EXPECT_THROW((void)cache.get_or_create(kBenchmark, kStage, broken, nullptr, &traffic),
                 std::invalid_argument);
    EXPECT_EQ(traffic.stage.misses.load(), 2u); // both calls attempted construction
}

struct tiny_key {
    std::uint64_t id = 0;
    [[nodiscard]] std::uint64_t digest() const noexcept { return id * 0x9e3779b97f4a7c15ull; }
    bool operator==(const tiny_key&) const = default;
};

TEST(runtime_cache, memo_tier_factory_exception_reaches_every_waiter_then_retries)
{
    runtime::memo_tier<tiny_key, std::shared_ptr<int>> tier;
    runtime::tier_traffic sink;
    std::promise<void> owner_inside;
    std::promise<void> owner_release;
    std::shared_future<void> release = owner_release.get_future().share();
    std::atomic<int> factory_runs{0};
    std::atomic<int> failures_seen{0};

    const auto failing_call = [&] {
        try {
            (void)tier.get_or_create(
                tiny_key{7},
                [&](runtime::thread_pool::join_point*) -> std::shared_ptr<int> {
                    factory_runs.fetch_add(1);
                    owner_inside.set_value();
                    release.get();
                    throw std::runtime_error("factory failed");
                },
                &sink);
        } catch (const std::runtime_error& error) {
            EXPECT_STREQ(error.what(), "factory failed");
            failures_seen.fetch_add(1);
        }
    };

    std::thread owner(failing_call);
    owner_inside.get_future().get(); // owner is mid-construction

    constexpr int waiter_count = 4;
    std::vector<std::thread> waiters;
    for (int i = 0; i < waiter_count; ++i) {
        waiters.emplace_back(failing_call);
    }
    // A waiter records its hit before blocking on the entry, so once every
    // hit is in, every waiter is parked on the owner's construction.
    while (sink.hits.load() < static_cast<std::uint64_t>(waiter_count)) {
        std::this_thread::yield();
    }
    owner_release.set_value();
    owner.join();
    for (std::thread& waiter : waiters) {
        waiter.join();
    }

    EXPECT_EQ(failures_seen.load(), waiter_count + 1); // owner + every waiter
    EXPECT_EQ(factory_runs.load(), 1);
    EXPECT_EQ(tier.size(), 0u); // failed entry dropped

    const auto value = tier.get_or_create(
        tiny_key{7},
        [&](runtime::thread_pool::join_point*) -> std::shared_ptr<int> {
            factory_runs.fetch_add(1);
            return std::make_shared<int>(2);
        },
        &sink);
    EXPECT_EQ(*value, 2);
    EXPECT_EQ(factory_runs.load(), 2); // the retry ran the factory again
    EXPECT_EQ(tier.size(), 1u);

    // Exactly one hit or one miss per call: the failing owner and the retry
    // missed, every waiter hit.
    EXPECT_EQ(sink.hits.load(), static_cast<std::uint64_t>(waiter_count));
    EXPECT_EQ(sink.misses.load(), 2u);
}

/// Set on the thread that waits on the in-flight key.
thread_local bool on_waiter = false;

TEST(runtime_cache, waiter_runs_the_constructions_published_blocks)
{
    // The owner's factory runs one loop at the entry's join point whose
    // blocks, except the waiter's, wait until the waiter has run one: the
    // construction finishes only because the caller that found the key in
    // flight helps. The waiter then gets the owner's value and a hit.
    obs::counter& join_blocks =
        obs::metrics_registry::global().counter_at("test.memo_tier.join_blocks");
    runtime::memo_tier<tiny_key, std::shared_ptr<int>> tier(nullptr, nullptr, &join_blocks);
    runtime::thread_pool pool(1);
    runtime::tier_traffic sink;
    std::promise<void> owner_inside;
    std::atomic<int> waiter_blocks{0};
    constexpr std::size_t n = 8;
    std::vector<std::atomic<int>> visits(n);
    const auto factory = [&](runtime::thread_pool::join_point* join) {
        EXPECT_NE(join, nullptr);
        owner_inside.set_value();
        pool.parallel_for(0, n, [&](std::size_t i) {
            if (on_waiter) {
                waiter_blocks.fetch_add(1, std::memory_order_release);
                waiter_blocks.notify_all();
            } else {
                for (int seen = waiter_blocks.load(std::memory_order_acquire); seen == 0;
                     seen = waiter_blocks.load(std::memory_order_acquire)) {
                    waiter_blocks.wait(seen, std::memory_order_acquire);
                }
            }
            visits[i].fetch_add(1, std::memory_order_relaxed);
        }, 1, join);
        return std::make_shared<int>(42);
    };
    const std::uint64_t blocks_before = join_blocks.value();
    std::shared_ptr<int> owned;
    std::thread owner([&] { owned = tier.get_or_create(tiny_key{3}, factory, &sink); });
    owner_inside.get_future().get(); // the key is in flight
    std::shared_ptr<int> waited;
    std::thread waiter([&] {
        on_waiter = true;
        waited = tier.get_or_create(tiny_key{3}, factory, &sink);
    });
    owner.join();
    waiter.join();
    ASSERT_TRUE(owned);
    EXPECT_EQ(waited.get(), owned.get());
    for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(visits[i].load(), 1) << "index " << i;
    }
    EXPECT_EQ(sink.misses.load(), 1u);
    EXPECT_EQ(sink.hits.load(), 1u);
    EXPECT_GE(waiter_blocks.load(), 1);
    EXPECT_EQ(join_blocks.value() - blocks_before,
              static_cast<std::uint64_t>(waiter_blocks.load()));
}

TEST(runtime_cache, clear_forgets_entries)
{
    experiment_cache cache;
    runtime::cache_traffic traffic;
    (void)cache.get_or_create(kBenchmark, kStage, {}, nullptr, &traffic);
    EXPECT_EQ(cache.size(), 1u);
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    (void)cache.get_or_create(kBenchmark, kStage, {}, nullptr, &traffic);
    EXPECT_EQ(traffic.stage.misses.load(), 2u);
}

TEST(runtime_cache, process_cache_is_a_singleton)
{
    EXPECT_EQ(&experiment_cache::process_cache(), &experiment_cache::process_cache());
}

} // namespace
