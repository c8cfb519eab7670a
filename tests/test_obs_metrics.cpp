// Tests for obs/metrics: concurrent counter updates (exact totals once
// writers join -- the TSan CI job runs this suite), registry interning and
// snapshot determinism, the three render formats, and the gated `*_ns`
// timers.

#include <gtest/gtest.h>

#include <chrono>
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

#include "helpers.h"

namespace {

using namespace synts;

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
    a.add(1);

    const std::vector<obs::metric_sample> samples = registry.snapshot();
    ASSERT_EQ(samples.size(), 3u);
    EXPECT_EQ(samples[0].name, "a.first");
    EXPECT_EQ(samples[0].type, obs::metric_sample::kind::counter);
    EXPECT_EQ(samples[0].count, 3u);
    EXPECT_EQ(samples[1].name, "m.gauge");
    EXPECT_EQ(samples[1].type, obs::metric_sample::kind::gauge);
    EXPECT_EQ(samples[1].level, -7);
    EXPECT_EQ(samples[2].name, "z.last");
    EXPECT_EQ(samples[2].count, 1u);

    registry.reset();
    EXPECT_EQ(registry.counter_at("a.first").value(), 0u);
    EXPECT_EQ(registry.gauge_at("m.gauge").value(), 0);
    // Handles survive reset.
    EXPECT_EQ(&a, &registry.counter_at("z.last"));
}

TEST(obs_metrics, render_formats_cover_all_instrument_kinds)
{
    obs::metrics_registry registry;
    registry.counter_at("c").add(2);
    registry.gauge_at("g").set(-4);
    const std::vector<obs::metric_sample> samples = registry.snapshot();

    EXPECT_EQ(obs::render_metrics(samples, obs::metrics_format::csv),
              "name,type,value\n"
              "c,counter,2\n"
              "g,gauge,-4\n");

    EXPECT_EQ(obs::render_metrics(samples, obs::metrics_format::json),
              "{\n"
              "  \"c\": {\"type\": \"counter\", \"value\": 2},\n"
              "  \"g\": {\"type\": \"gauge\", \"value\": -4}\n"
              "}\n");

    EXPECT_EQ(obs::render_metrics(samples, obs::metrics_format::table),
              "name        type         value\n"
              "c        counter             2\n"
              "g          gauge            -4\n");
}

TEST(obs_metrics, scoped_timer_records_nothing_when_disabled)
{
    const bool was_enabled = obs::enabled();
    obs::set_enabled(false);
    obs::counter total_ns;
    {
        const obs::scoped_timer timer(total_ns);
        std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    EXPECT_EQ(total_ns.value(), 0u);

    obs::set_enabled(true);
    {
        const obs::scoped_timer timer(total_ns);
        std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    EXPECT_GT(total_ns.value(), 0u);
    obs::set_enabled(was_enabled);
}

// -- characterization instrumentation ----------------------------------------
// The characterizer registers characterize.cells / characterize.vectors
// counters and a gated characterize.cell_ns nanosecond total in the global
// registry, and wraps each stage pass in a characterize.stage:<name> span
// and each chunk task in a characterize.chunk:<name> span.
// These tests run a tiny hand-built trace through the pipeline and assert
// the instrument deltas exactly.

namespace charz {

/// One thread, two intervals: interval 0 has 2 SimpleALU ops + 1 nop,
/// interval 1 has 1 SimpleALU op + 1 multiply (ComplexALU). Against the
/// SimpleALU stage that is 2 cells and 3 driving vectors.
arch::program_trace tiny_trace()
{
    arch::thread_trace t;
    t.ops.push_back({.operand_a = 3, .operand_b = 4, .encoding = 0x11,
                     .cls = arch::op_class::int_add});
    t.ops.push_back({.cls = arch::op_class::nop});
    t.ops.push_back({.operand_a = 9, .operand_b = 5, .encoding = 0x22,
                     .cls = arch::op_class::int_sub});
    t.ops.push_back({.operand_a = 6, .operand_b = 7, .encoding = 0x33,
                     .cls = arch::op_class::int_logic});
    t.ops.push_back({.operand_a = 2, .operand_b = 8, .encoding = 0x44,
                     .cls = arch::op_class::int_mul});
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

    const auto artifacts = test::characterize_trace(charz::tiny_trace());
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
}

TEST(obs_metrics, characterization_counts_toggled_and_live_pairs)
{
    // step_batch adds its toggled (gate, lane) pairs and the live subset
    // its delay kernel visits.
    obs::metrics_registry& registry = obs::metrics_registry::global();
    obs::counter& toggled = registry.counter_at("circuit.toggled_pairs");
    obs::counter& live = registry.counter_at("circuit.live_pairs");
    const auto artifacts = test::characterize_trace(charz::tiny_trace());
    const auto lib = circuit::cell_library::standard_22nm();
    const circuit::voltage_model vm(0.04);

    const std::uint64_t toggled_before = toggled.value();
    const std::uint64_t live_before = live.value();
    (void)core::characterizer(lib, vm, {})
        .characterize(artifacts, circuit::pipe_stage::simple_alu);
    const std::uint64_t toggled_delta = toggled.value() - toggled_before;
    const std::uint64_t live_delta = live.value() - live_before;
    EXPECT_GT(live_delta, 0u);
    EXPECT_LE(live_delta, toggled_delta);
}

TEST(obs_metrics, characterization_counts_chunks_and_warmup_steps)
{
    obs::metrics_registry& registry = obs::metrics_registry::global();
    obs::counter& chunks = registry.counter_at("characterize.chunks");
    obs::counter& warmups = registry.counter_at("characterize.warmup_steps");
    const auto artifacts = test::characterize_trace(charz::tiny_trace());
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

TEST(obs_metrics, characterization_cell_ns_gated_on_enabled)
{
    obs::metrics_registry& registry = obs::metrics_registry::global();
    obs::counter& cell_ns = registry.counter_at("characterize.cell_ns");

    const auto artifacts = test::characterize_trace(charz::tiny_trace());
    const auto lib = circuit::cell_library::standard_22nm();
    const circuit::voltage_model vm(0.04);
    const core::characterizer chars(lib, vm, {});

    const bool was_enabled = obs::enabled();
    obs::set_enabled(false);
    const std::uint64_t disabled_before = cell_ns.value();
    (void)chars.characterize(artifacts, circuit::pipe_stage::simple_alu);
    EXPECT_EQ(cell_ns.value(), disabled_before) << "disabled telemetry recorded";

    obs::set_enabled(true);
    const std::uint64_t enabled_before = cell_ns.value();
    (void)chars.characterize(artifacts, circuit::pipe_stage::simple_alu);
    // The two (thread, interval) cells each add their elapsed nanoseconds.
    EXPECT_GT(cell_ns.value() - enabled_before, 0u);
    obs::set_enabled(was_enabled);
}

TEST(obs_metrics, characterization_emits_stage_span)
{
    obs::trace_recorder& recorder = obs::trace_recorder::global();
    const bool was_enabled = recorder.enabled();
    recorder.set_enabled(true);
    const std::size_t events_before = recorder.event_count();
    const obs::counter& chunks =
        obs::metrics_registry::global().counter_at("characterize.chunks");
    std::size_t chunk_spans_before = 0;
    for (const auto& event : recorder.events()) {
        chunk_spans_before += event.name == "characterize.chunk:ComplexALU" ? 1 : 0;
    }
    const std::uint64_t chunks_before = chunks.value();

    const auto artifacts = test::characterize_trace(charz::tiny_trace());
    const auto lib = circuit::cell_library::standard_22nm();
    const circuit::voltage_model vm(0.04);
    (void)core::characterizer(lib, vm, {})
        .characterize(artifacts, circuit::pipe_stage::complex_alu);
    recorder.set_enabled(was_enabled);

    bool found = false;
    std::size_t chunk_spans = 0;
    for (const auto& event : recorder.events()) {
        found = found || event.name == "characterize.stage:ComplexALU";
        chunk_spans += event.name == "characterize.chunk:ComplexALU" ? 1 : 0;
    }
    EXPECT_TRUE(found) << "no characterize.stage span recorded (events before: "
                       << events_before << ")";
    // One characterize.chunk span per chunk task.
    EXPECT_GT(chunks.value(), chunks_before);
    EXPECT_EQ(chunk_spans - chunk_spans_before, chunks.value() - chunks_before);
}

} // namespace
