// bench_obs -- the telemetry overhead gate.
//
// The obs contract is "zero overhead when disabled": an instrumented hot
// path (always-on counter bump + enabled-gated scoped_timer adding to a
// `*_ns` counter + enabled-gated trace_span with a lazily formatted name)
// must cost the same as the bare body when telemetry is off. This bench
// measures a representative task body three ways -- bare,
// instrumented-disabled, instrumented-enabled -- interleaved round-robin
// (so thermal / frequency drift hits every variant equally), with the
// bare/disabled order alternating each round (so neither always runs
// second). It GATES disabled-over-bare at <= 2%: the median over rounds of
// each round's disabled/bare ratio, whose two runs are adjacent in time.
// A regression exits non-zero and fails CI instead of landing silently.
// Enabled numbers are reported for information only; recording is allowed
// to cost something. The *_ns_per_iter fields are each variant's best
// round.
//
// Output: one JSON document on stdout (scripts/run_benches.sh captures it
// as BENCH_obs.json). Human-readable progress goes to stderr.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace {

using namespace synts;

constexpr double disabled_overhead_gate = 1.02; // <= 2% over bare
// Rounds of ~1 ms per variant. On a shared VM one round can lose its time
// slice, so the gate reads a median over many rounds (a best-of-7 ratio
// read anywhere from -4% to +5% on unchanged code).
constexpr int rounds = 101;
// Large enough that one round is a millisecond on a steady clock. Each
// enabled round records into its own recorder, dropped after the round,
// so the recorded spans stay a few MB.
constexpr std::uint64_t iterations = 50'000;

/// The simulated work inside one "task": a short xorshift chain, roughly
/// the cost of a cheap instrumented operation (a cache lookup or a small
/// pool task), so the measured overhead ratio is a realistic worst case --
/// real instrumented sites (cell computes, characterizations) are far heavier.
inline std::uint64_t body(std::uint64_t x) noexcept
{
    for (int i = 0; i < 24; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    return x;
}

double bare_ns_per_iter(std::uint64_t& sink)
{
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (std::uint64_t i = 0; i < iterations; ++i) {
        x = body(x);
    }
    sink ^= x;
    return std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() -
                                                    t0)
               .count() /
           static_cast<double>(iterations);
}

double instrumented_ns_per_iter(std::uint64_t& sink, obs::counter& events,
                                obs::counter& latency_ns,
                                obs::trace_recorder& recorder)
{
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (std::uint64_t i = 0; i < iterations; ++i) {
        const obs::trace_span span(recorder,
                                   [&] { return "obs.bench:" + std::to_string(i & 7); });
        const obs::scoped_timer timer(latency_ns);
        x = body(x);
        events.add(1);
    }
    sink ^= x;
    return std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() -
                                                    t0)
               .count() /
           static_cast<double>(iterations);
}

/// The middle element (rounds is odd).
double median(std::vector<double>& values)
{
    const auto mid = values.begin() + static_cast<std::ptrdiff_t>(values.size() / 2);
    std::nth_element(values.begin(), mid, values.end());
    return *mid;
}

} // namespace

int main()
{
    obs::counter events;
    obs::counter latency_ns;
    obs::trace_recorder off; // never enabled
    std::uint64_t sink = 0;

    double bare = 1e300;
    double disabled = 1e300;
    double enabled = 1e300;

    // Warmup round (not recorded), then the interleaved rounds.
    (void)bare_ns_per_iter(sink);
    (void)instrumented_ns_per_iter(sink, events, latency_ns, off);
    std::vector<double> disabled_ratios;
    std::vector<double> enabled_ratios;
    for (int round = 0; round < rounds; ++round) {
        obs::set_enabled(false);
        double round_bare = 0.0;
        double round_disabled = 0.0;
        // Bare first in even rounds, disabled first in odd ones.
        for (int slot = round; slot < round + 2; ++slot) {
            if (slot % 2 == 0) {
                round_bare = bare_ns_per_iter(sink);
            } else {
                round_disabled = instrumented_ns_per_iter(sink, events, latency_ns, off);
            }
        }
        obs::set_enabled(true);
        obs::trace_recorder recorder;
        recorder.set_enabled(true);
        const double round_enabled =
            instrumented_ns_per_iter(sink, events, latency_ns, recorder);
        bare = std::min(bare, round_bare);
        disabled = std::min(disabled, round_disabled);
        enabled = std::min(enabled, round_enabled);
        disabled_ratios.push_back(round_disabled / round_bare);
        enabled_ratios.push_back(round_enabled / round_bare);
        std::fprintf(stderr, "round %d/%d: bare %.2f ns, disabled %.2f ns, "
                             "enabled %.2f ns\n",
                     round + 1, rounds, round_bare, round_disabled, round_enabled);
    }
    obs::set_enabled(false);

    const double disabled_over_bare = median(disabled_ratios);
    const double enabled_over_bare = median(enabled_ratios);
    const bool pass = disabled_over_bare <= disabled_overhead_gate;

    std::printf("{\n");
    std::printf("  \"bench\": \"obs_overhead\",\n");
    std::printf("  \"iterations\": %llu,\n",
                static_cast<unsigned long long>(iterations));
    std::printf("  \"rounds\": %d,\n", rounds);
    std::printf("  \"bare_ns_per_iter\": %.4f,\n", bare);
    std::printf("  \"disabled_ns_per_iter\": %.4f,\n", disabled);
    std::printf("  \"enabled_ns_per_iter\": %.4f,\n", enabled);
    std::printf("  \"disabled_over_bare\": %.4f,\n", disabled_over_bare);
    std::printf("  \"enabled_over_bare\": %.4f,\n", enabled_over_bare);
    std::printf("  \"gate\": %.2f,\n", disabled_overhead_gate);
    std::printf("  \"pass\": %s,\n", pass ? "true" : "false");
    // The sink defeats dead-code elimination; recorded so it is "used".
    std::printf("  \"checksum\": %llu\n", static_cast<unsigned long long>(sink));
    std::printf("}\n");

    if (!pass) {
        std::fprintf(stderr,
                     "FAIL: disabled telemetry costs %.1f%% over bare (gate %.0f%%)\n",
                     (disabled_over_bare - 1.0) * 100.0,
                     (disabled_overhead_gate - 1.0) * 100.0);
        return 1;
    }
    std::fprintf(stderr, "PASS: disabled telemetry %.2f%% over bare\n",
                 (disabled_over_bare - 1.0) * 100.0);
    return 0;
}
