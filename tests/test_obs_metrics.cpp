// Tests for obs/metrics: histogram bucket math and percentile extraction on
// exactly-known distributions, concurrent counter/histogram updates (exact
// totals once writers join -- the TSan CI job runs this suite), registry
// interning and snapshot determinism, and the three render formats.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "arch/trace.h"
#include "core/characterization.h"
#include "core/program_artifacts.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace {

using namespace synts;
using obs::latency_histogram;

// -- bucket math -------------------------------------------------------------

TEST(obs_metrics, bucket_index_is_exact_below_sub_bucket_count)
{
    for (std::uint64_t v = 0; v < latency_histogram::sub_bucket_count; ++v) {
        EXPECT_EQ(latency_histogram::bucket_index(v), v);
        EXPECT_EQ(latency_histogram::bucket_lower_bound(v), v);
    }
}

TEST(obs_metrics, bucket_lower_bound_inverts_bucket_index)
{
    // Every bucket's lower bound must map back to that bucket, and the
    // value just below it to an earlier bucket (spot-checked across the
    // whole range, including the top octave).
    const std::uint64_t probes[] = {
        32, 33, 63, 64, 65, 100, 127, 128, 1000, 4096, 65535, 1ull << 20,
        (1ull << 40) + 12345, 1ull << 63, ~0ull};
    for (const std::uint64_t v : probes) {
        const std::size_t index = latency_histogram::bucket_index(v);
        ASSERT_LT(index, latency_histogram::bucket_count) << v;
        const std::uint64_t lower = latency_histogram::bucket_lower_bound(index);
        EXPECT_LE(lower, v) << v;
        EXPECT_EQ(latency_histogram::bucket_index(lower), index) << v;
        if (lower > 0) {
            EXPECT_LT(latency_histogram::bucket_index(lower - 1), index) << v;
        }
    }
}

TEST(obs_metrics, bucket_index_preserves_order)
{
    std::uint64_t previous = 0;
    for (std::uint64_t v = 1; v < (1ull << 20); v = v * 3 / 2 + 1) {
        const std::size_t index = latency_histogram::bucket_index(v);
        EXPECT_GE(index, previous) << v;
        previous = index;
    }
}

// -- percentiles -------------------------------------------------------------

TEST(obs_metrics, percentiles_are_exact_on_small_known_distribution)
{
    // {1..10} lives entirely in the exact region, so nearest-rank
    // percentiles are the textbook order statistics.
    latency_histogram hist;
    for (std::uint64_t v = 1; v <= 10; ++v) {
        hist.record(v);
    }
    EXPECT_EQ(hist.total(), 10u);
    EXPECT_EQ(hist.percentile(0.50), 5u);  // ceil(0.5 * 10) = 5th smallest
    EXPECT_EQ(hist.percentile(0.95), 10u); // ceil(9.5) = 10th
    EXPECT_EQ(hist.percentile(0.99), 10u);
    EXPECT_EQ(hist.percentile(0.10), 1u);
    EXPECT_EQ(hist.percentile(0.0), 1u); // clamped to the 1st sample
    EXPECT_EQ(hist.max_value(), 10u);
}

TEST(obs_metrics, percentile_returns_bucket_lower_bound_above_exact_region)
{
    latency_histogram hist;
    hist.record(1000);
    // 1000 = 0b1111101000: octave 9, shift 4, lower bound 62 << 4 = 992.
    const std::uint64_t lower =
        latency_histogram::bucket_lower_bound(latency_histogram::bucket_index(1000));
    EXPECT_EQ(lower, 992u);
    EXPECT_EQ(hist.percentile(0.5), lower);
    EXPECT_EQ(hist.max_value(), lower);
}

TEST(obs_metrics, percentile_of_empty_histogram_is_zero)
{
    const latency_histogram hist;
    EXPECT_EQ(hist.total(), 0u);
    EXPECT_EQ(hist.percentile(0.5), 0u);
    EXPECT_EQ(hist.percentile(1.0), 0u);
    EXPECT_EQ(hist.max_value(), 0u);
}

TEST(obs_metrics, percentile_skewed_distribution)
{
    // 99 fast samples at 1, one slow at 16: p50/p95 must not see the
    // outlier, p99 (rank ceil(0.99*100) = 99) still lands on 1, p100 = 16.
    latency_histogram hist;
    for (int i = 0; i < 99; ++i) {
        hist.record(1);
    }
    hist.record(16);
    EXPECT_EQ(hist.percentile(0.50), 1u);
    EXPECT_EQ(hist.percentile(0.95), 1u);
    EXPECT_EQ(hist.percentile(0.99), 1u);
    EXPECT_EQ(hist.percentile(1.0), 16u);
}

TEST(obs_metrics, histogram_reset_clears_counts)
{
    latency_histogram hist;
    hist.record(7);
    hist.record(7);
    ASSERT_EQ(hist.total(), 2u);
    hist.reset();
    EXPECT_EQ(hist.total(), 0u);
    EXPECT_EQ(hist.count_at(7), 0u);
    EXPECT_EQ(hist.percentile(0.5), 0u);
}

// -- concurrency -------------------------------------------------------------

TEST(obs_metrics, concurrent_counter_adds_are_exact)
{
    obs::counter counter;
    constexpr int thread_count = 8;
    constexpr std::uint64_t adds_per_thread = 20'000;
    std::vector<std::thread> threads;
    threads.reserve(thread_count);
    for (int t = 0; t < thread_count; ++t) {
        threads.emplace_back([&counter] {
            for (std::uint64_t i = 0; i < adds_per_thread; ++i) {
                counter.add(1);
            }
        });
    }
    for (std::thread& t : threads) {
        t.join();
    }
    EXPECT_EQ(counter.value(), thread_count * adds_per_thread);
}

TEST(obs_metrics, concurrent_histogram_records_are_exact)
{
    latency_histogram hist;
    constexpr int thread_count = 8;
    constexpr std::uint64_t records_per_thread = 5'000;
    std::vector<std::thread> threads;
    threads.reserve(thread_count);
    for (int t = 0; t < thread_count; ++t) {
        threads.emplace_back([&hist, t] {
            // Every thread records the same multiset {1..16}, so per-bucket
            // counts are exactly predictable too.
            for (std::uint64_t i = 0; i < records_per_thread; ++i) {
                hist.record(1 + ((i + static_cast<std::uint64_t>(t)) % 16));
            }
        });
    }
    for (std::thread& t : threads) {
        t.join();
    }
    EXPECT_EQ(hist.total(), thread_count * records_per_thread);
    std::uint64_t bucket_sum = 0;
    for (std::uint64_t v = 1; v <= 16; ++v) {
        bucket_sum += hist.count_at(latency_histogram::bucket_index(v));
    }
    EXPECT_EQ(bucket_sum, thread_count * records_per_thread);
}

TEST(obs_metrics, concurrent_registry_interning_returns_one_instrument)
{
    obs::metrics_registry registry;
    constexpr int thread_count = 8;
    std::vector<std::thread> threads;
    threads.reserve(thread_count);
    for (int t = 0; t < thread_count; ++t) {
        threads.emplace_back([&registry] {
            for (int i = 0; i < 1'000; ++i) {
                registry.counter_at("race.counter").add(1);
            }
        });
    }
    for (std::thread& t : threads) {
        t.join();
    }
    EXPECT_EQ(registry.counter_at("race.counter").value(), thread_count * 1'000u);
    EXPECT_EQ(registry.snapshot().size(), 1u);
}

// -- registry + rendering ----------------------------------------------------

TEST(obs_metrics, registry_interns_by_name_and_snapshots_sorted)
{
    obs::metrics_registry registry;
    obs::counter& a = registry.counter_at("z.last");
    EXPECT_EQ(&a, &registry.counter_at("z.last"));
    registry.counter_at("a.first").add(3);
    registry.gauge_at("m.gauge").set(-7);
    registry.histogram_at("m.hist").record(5);
    a.add(1);

    const std::vector<obs::metric_sample> samples = registry.snapshot();
    ASSERT_EQ(samples.size(), 4u);
    EXPECT_EQ(samples[0].name, "a.first");
    EXPECT_EQ(samples[0].count, 3u);
    EXPECT_EQ(samples[1].name, "m.gauge");
    EXPECT_EQ(samples[1].level, -7);
    EXPECT_EQ(samples[2].name, "m.hist");
    EXPECT_EQ(samples[2].count, 1u);
    EXPECT_EQ(samples[2].p50, 5u);
    EXPECT_EQ(samples[3].name, "z.last");
    EXPECT_EQ(samples[3].count, 1u);

    registry.reset();
    EXPECT_EQ(registry.counter_at("a.first").value(), 0u);
    EXPECT_EQ(registry.gauge_at("m.gauge").value(), 0);
    EXPECT_EQ(registry.histogram_at("m.hist").total(), 0u);
    // Handles survive reset.
    EXPECT_EQ(&a, &registry.counter_at("z.last"));
}

TEST(obs_metrics, render_formats_cover_all_instrument_kinds)
{
    obs::metrics_registry registry;
    registry.counter_at("c").add(2);
    registry.gauge_at("g").set(4);
    for (std::uint64_t v = 1; v <= 10; ++v) {
        registry.histogram_at("h").record(v);
    }
    const std::vector<obs::metric_sample> samples = registry.snapshot();

    const std::string csv = obs::render_metrics(samples, obs::metrics_format::csv);
    EXPECT_NE(csv.find("name,type,value,count,p50_ns,p95_ns,p99_ns,max_ns"),
              std::string::npos);
    EXPECT_NE(csv.find("c,counter,2"), std::string::npos);
    EXPECT_NE(csv.find("g,gauge,4"), std::string::npos);
    EXPECT_NE(csv.find("h,histogram,"), std::string::npos);

    const std::string json = obs::render_metrics(samples, obs::metrics_format::json);
    EXPECT_NE(json.find("\"c\": {\"type\": \"counter\", \"value\": 2}"),
              std::string::npos);
    EXPECT_NE(json.find("\"g\": {\"type\": \"gauge\", \"value\": 4}"),
              std::string::npos);
    EXPECT_NE(json.find("\"h\": {\"type\": \"histogram\", \"count\": 10, "
                        "\"p50_ns\": 5"),
              std::string::npos);

    const std::string table = obs::render_metrics(samples, obs::metrics_format::table);
    EXPECT_NE(table.find('c'), std::string::npos);
    EXPECT_NE(table.find("histogram"), std::string::npos);
}

TEST(obs_metrics, scoped_timer_records_nothing_when_disabled)
{
    const bool was_enabled = obs::enabled();
    obs::set_enabled(false);
    latency_histogram hist;
    {
        const obs::scoped_timer timer(hist);
    }
    EXPECT_EQ(hist.total(), 0u);

    obs::set_enabled(true);
    {
        const obs::scoped_timer timer(hist);
    }
    EXPECT_EQ(hist.total(), 1u);
    obs::set_enabled(was_enabled);
}

// -- characterization instrumentation ----------------------------------------
// The characterizer registers characterize.cells / characterize.vectors
// counters and a characterize.cell_ns latency histogram in the global
// registry, and wraps each stage pass in a characterize.stage:<name> span.
// These tests run a tiny hand-built trace through the pipeline and assert
// the instrument deltas exactly.

namespace charz {

/// One thread, two intervals: interval 0 has 2 SimpleALU ops + 1 nop,
/// interval 1 has 1 SimpleALU op + 1 multiply (ComplexALU). Against the
/// SimpleALU stage that is 2 cells and 3 driving vectors.
arch::program_trace tiny_trace()
{
    arch::thread_trace t;
    t.ops.push_back({arch::op_class::int_add, 0x11, 3, 4, 0, false});
    t.ops.push_back({arch::op_class::nop, 0, 0, 0, 0, false});
    t.ops.push_back({arch::op_class::int_sub, 0x22, 9, 5, 0, false});
    t.ops.push_back({arch::op_class::int_logic, 0x33, 6, 7, 0, false});
    t.ops.push_back({arch::op_class::int_mul, 0x44, 2, 8, 0, false});
    t.barrier_points = {3, 5};
    arch::program_trace trace;
    trace.threads.push_back(std::move(t));
    return trace;
}

} // namespace charz

TEST(obs_metrics, characterization_bumps_cell_and_vector_counters)
{
    obs::metrics_registry& registry = obs::metrics_registry::global();
    obs::counter& cells = registry.counter_at("characterize.cells");
    obs::counter& vectors = registry.counter_at("characterize.vectors");
    const std::uint64_t cells_before = cells.value();
    const std::uint64_t vectors_before = vectors.value();

    const auto artifacts =
        core::program_characterizer{}.characterize_trace(charz::tiny_trace());
    const auto lib = circuit::cell_library::standard_22nm();
    const circuit::voltage_model vm(0.04);
    const core::characterizer chars(lib, vm, {});
    const auto result =
        chars.characterize(artifacts, circuit::pipe_stage::simple_alu);

    // 1 thread x 2 intervals = 2 cells; int_add + int_sub + int_logic = 3
    // driving vectors (the nop and the multiply never reach the SimpleALU).
    EXPECT_EQ(cells.value() - cells_before, 2u);
    EXPECT_EQ(vectors.value() - vectors_before, 3u);
    ASSERT_EQ(result.threads.size(), 1u);
    ASSERT_EQ(result.threads[0].size(), 2u);
    EXPECT_EQ(result.threads[0][0].vector_count, 2u);
    EXPECT_EQ(result.threads[0][1].vector_count, 1u);

    // The scalar reference path must report the same counts.
    core::characterization_config scalar_cfg;
    scalar_cfg.batched = false;
    const std::uint64_t cells_mid = cells.value();
    const std::uint64_t vectors_mid = vectors.value();
    (void)core::characterizer(lib, vm, scalar_cfg)
        .characterize(artifacts, circuit::pipe_stage::simple_alu);
    EXPECT_EQ(cells.value() - cells_mid, 2u);
    EXPECT_EQ(vectors.value() - vectors_mid, 3u);
}

TEST(obs_metrics, characterization_counts_chunks_and_warmup_steps)
{
    obs::metrics_registry& registry = obs::metrics_registry::global();
    obs::counter& chunks = registry.counter_at("characterize.chunks");
    obs::counter& warmups = registry.counter_at("characterize.warmup_steps");
    const auto artifacts =
        core::program_characterizer{}.characterize_trace(charz::tiny_trace());
    const auto lib = circuit::cell_library::standard_22nm();
    const circuit::voltage_model vm(0.04);
    const core::characterizer chars(lib, vm, {});

    // The worker hint alone sizes the partition; the chunks run serially.
    // One worker: one chunk per thread starting at interval 0, so no chunk
    // has history to replay.
    std::uint64_t chunks_before = chunks.value();
    std::uint64_t warmups_before = warmups.value();
    (void)chars.characterize(artifacts, circuit::pipe_stage::simple_alu, {}, 1);
    EXPECT_EQ(chunks.value() - chunks_before, 1u);
    EXPECT_EQ(warmups.value() - warmups_before, 0u);

    // Four workers: the 2-interval thread splits in two, and the second
    // chunk replays int_sub (the last driving op before interval 1).
    chunks_before = chunks.value();
    warmups_before = warmups.value();
    (void)chars.characterize(artifacts, circuit::pipe_stage::simple_alu, {}, 4);
    EXPECT_EQ(chunks.value() - chunks_before, 2u);
    EXPECT_EQ(warmups.value() - warmups_before, 1u);
}

TEST(obs_metrics, characterization_cell_latency_histogram_gated_on_enabled)
{
    obs::metrics_registry& registry = obs::metrics_registry::global();
    obs::latency_histogram& cell_ns = registry.histogram_at("characterize.cell_ns");

    const auto artifacts =
        core::program_characterizer{}.characterize_trace(charz::tiny_trace());
    const auto lib = circuit::cell_library::standard_22nm();
    const circuit::voltage_model vm(0.04);
    const core::characterizer chars(lib, vm, {});

    const bool was_enabled = obs::enabled();
    obs::set_enabled(false);
    const std::uint64_t disabled_before = cell_ns.total();
    (void)chars.characterize(artifacts, circuit::pipe_stage::simple_alu);
    EXPECT_EQ(cell_ns.total(), disabled_before) << "disabled telemetry recorded";

    obs::set_enabled(true);
    const std::uint64_t enabled_before = cell_ns.total();
    (void)chars.characterize(artifacts, circuit::pipe_stage::simple_alu);
    // One scoped_timer per (thread, interval) cell.
    EXPECT_EQ(cell_ns.total() - enabled_before, 2u);
    obs::set_enabled(was_enabled);
}

TEST(obs_metrics, characterization_emits_stage_span)
{
    obs::trace_recorder& recorder = obs::trace_recorder::global();
    const bool was_enabled = recorder.enabled();
    recorder.set_enabled(true);
    const std::size_t events_before = recorder.event_count();

    const auto artifacts =
        core::program_characterizer{}.characterize_trace(charz::tiny_trace());
    const auto lib = circuit::cell_library::standard_22nm();
    const circuit::voltage_model vm(0.04);
    (void)core::characterizer(lib, vm, {})
        .characterize(artifacts, circuit::pipe_stage::complex_alu);
    recorder.set_enabled(was_enabled);

    bool found = false;
    for (const auto& event : recorder.events()) {
        found = found || event.name == "characterize.stage:ComplexALU";
    }
    EXPECT_TRUE(found) << "no characterize.stage span recorded (events before: "
                       << events_before << ")";
}

} // namespace
