// metrics.h -- process-wide metrics registry: named counters and gauges.
//
// PR 5's `cache_traffic` sink proved that bespoke counter plumbing does not
// scale past two call sites: every new observable meant a new struct field,
// a new accessor, and a new column in every renderer. This registry is the
// one place an instrument is declared (a dotted name: `pool.steals`,
// `cache.tier2.compute_ns`, `sweep.cells_computed`) and the one place a
// consumer reads it back (`snapshot()` -> deterministic name order ->
// JSON/CSV/table emitters in render_metrics).
//
// Hot-path contract:
//
//   * counter::add / gauge::set are a relaxed atomic add (or store), a
//     counter's on the caller's stripe -- no locks, no allocation,
//     safe from any thread, TSan-clean. Handles returned by the registry
//     are stable for the registry's lifetime, so instrumented code resolves
//     the name ONCE (at construction) and pays only the atomic op per event;
//   * counters and gauges are always on: one relaxed add per cache lookup
//     or pool steal costs nothing worth gating, and an ungated count is
//     the same whether or not --metrics was asked for;
//   * anything that needs a CLOCK READ (timers, spans) is gated behind the
//     process-wide `enabled()` flag: a single relaxed atomic bool load on a
//     branch-predictable fast path. A timer is a plain counter named
//     `*_ns` that scoped_timer adds elapsed nanoseconds to; it reads no
//     clock and adds nothing when telemetry is off -- bench_obs gates the
//     disabled overhead at <= 2%. The total's sample count is the event
//     counter beside it (`pool.task_ns` / `pool.tasks_executed`), so a
//     mean is one division and a layer's share of the run one more.

#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/thread_safety.h"

namespace synts::obs {

/// True when timed telemetry (`*_ns` timers, trace spans) is recording.
/// A relaxed load: readers only branch on it, they never synchronize.
[[nodiscard]] bool enabled() noexcept;

/// Turns timed telemetry on or off (the runner's --metrics/--trace flags
/// enable it before the sweep starts). Counters and gauges ignore this.
void set_enabled(bool on) noexcept;

/// Monotonic nanosecond clock (std::chrono::steady_clock, arbitrary epoch).
[[nodiscard]] std::uint64_t now_ns() noexcept;

/// Slots a hot counter is striped across; a power of two. Each stripe is
/// cache-line-aligned so concurrent writers on different stripes do not
/// false-share.
inline constexpr std::size_t counter_stripe_count = 8;

/// Stripe index of the calling thread (stable per thread, decorrelated
/// across threads).
[[nodiscard]] std::size_t thread_stripe() noexcept;

/// Monotonically increasing event count. add() is a relaxed fetch_add on
/// the caller's stripe; value() sums the stripes (and may therefore lag
/// in-flight adds -- exact once writers quiesce, like every counter here).
class counter {
public:
    void add(std::uint64_t delta = 1) noexcept
    {
        stripes_[thread_stripe()].value.fetch_add(delta, std::memory_order_relaxed);
    }

    [[nodiscard]] std::uint64_t value() const noexcept
    {
        std::uint64_t total = 0;
        for (const stripe& s : stripes_) {
            total += s.value.load(std::memory_order_relaxed);
        }
        return total;
    }

    /// Zeroes every stripe (metrics_registry::reset; not for hot paths).
    void reset() noexcept
    {
        for (stripe& s : stripes_) {
            s.value.store(0, std::memory_order_relaxed);
        }
    }

private:
    struct alignas(64) stripe {
        std::atomic<std::uint64_t> value{0};
    };
    std::array<stripe, counter_stripe_count> stripes_{};
};

/// Last-written signed value (queue depth, in-flight requests). set() is a
/// relaxed store; add() a relaxed fetch_add for up/down accounting.
class gauge {
public:
    void set(std::int64_t v) noexcept { value_.store(v, std::memory_order_relaxed); }
    void add(std::int64_t delta) noexcept
    {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }
    [[nodiscard]] std::int64_t value() const noexcept
    {
        return value_.load(std::memory_order_relaxed);
    }
    void reset() noexcept { set(0); }

private:
    std::atomic<std::int64_t> value_{0};
};

/// RAII latency probe: reads the clock only when telemetry is enabled at
/// construction, adds the elapsed nanoseconds to the counter at
/// destruction. Disabled cost: one relaxed bool load and a branch.
class scoped_timer {
public:
    explicit scoped_timer(counter& sink) noexcept
        : sink_(enabled() ? &sink : nullptr), start_ns_(sink_ != nullptr ? now_ns() : 0)
    {
    }
    ~scoped_timer()
    {
        if (sink_ != nullptr) {
            sink_->add(now_ns() - start_ns_);
        }
    }
    scoped_timer(const scoped_timer&) = delete;
    scoped_timer& operator=(const scoped_timer&) = delete;

private:
    counter* sink_;
    std::uint64_t start_ns_;
};

/// One metric in a snapshot.
struct metric_sample {
    enum class kind : std::uint8_t { counter, gauge };

    std::string name;
    kind type = kind::counter;
    std::uint64_t count = 0;  ///< counter value
    std::int64_t level = 0;   ///< gauge value
};

/// Output shape for render_metrics (the runner's --metrics flag).
enum class metrics_format { table, csv, json };

/// Process-wide instrument registry. Instruments are interned by name:
/// the first *_at(name) call creates the instrument, every later call
/// returns the same handle, and handles stay valid for the registry's
/// lifetime (lookup takes a mutex -- resolve once, not per event).
class metrics_registry {
public:
    metrics_registry() = default;
    metrics_registry(const metrics_registry&) = delete;
    metrics_registry& operator=(const metrics_registry&) = delete;

    [[nodiscard]] counter& counter_at(std::string_view name);
    [[nodiscard]] gauge& gauge_at(std::string_view name);

    /// Every registered instrument, sorted by name (deterministic across
    /// runs: the registry map is ordered, so equal instrument sets always
    /// snapshot identically).
    [[nodiscard]] std::vector<metric_sample> snapshot() const;

    /// Zeroes every instrument's accumulated values; handles stay valid.
    /// For tests that assert exact process-global counts.
    void reset();

    /// The process-wide registry every instrumented subsystem resolves
    /// its instruments from.
    [[nodiscard]] static metrics_registry& global();

private:
    /// Guards interning only -- instrument IO is striped atomics on stable
    /// handles, never under this lock.
    mutable util::annotated_mutex mutex_;
    std::map<std::string, std::unique_ptr<counter>, std::less<>> counters_
        SYNTS_GUARDED_BY(mutex_);
    std::map<std::string, std::unique_ptr<gauge>, std::less<>> gauges_
        SYNTS_GUARDED_BY(mutex_);
};

/// Renders a snapshot as a console table, CSV rows (name, type, value), or
/// a JSON object keyed by metric name.
[[nodiscard]] std::string render_metrics(const std::vector<metric_sample>& samples,
                                         metrics_format format);

} // namespace synts::obs
