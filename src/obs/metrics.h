// metrics.h -- process-wide metrics registry: named counters, gauges, and
// log-bucketed latency histograms.
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
//   * counter::add / gauge::set / latency_histogram::record are a relaxed
//     atomic add (or store) on a striped slot -- no locks, no allocation,
//     safe from any thread, TSan-clean. Handles returned by the registry
//     are stable for the registry's lifetime, so instrumented code resolves
//     the name ONCE (at construction) and pays only the atomic op per event;
//   * counters and gauges are always on: they mirror bookkeeping the
//     runtime already paid for (the cache's hit/miss atomics, the pool's
//     steal count), so gating them would buy nothing and would desync the
//     registry from the legacy accessors that tests pin;
//   * anything that needs a CLOCK READ (latency histograms, spans) is gated
//     behind the process-wide `enabled()` flag: a single relaxed atomic
//     bool load on a branch-predictable fast path. scoped_timer reads no
//     clock and records nothing when telemetry is off --
//     bench_obs gates the disabled overhead at <= 2%.
//
// Histogram shape: HDR-style log buckets with 5 sub-bucket bits. Values
// below 32 map to exact unit buckets; above, each power-of-two octave is
// split into 32 linear sub-buckets, so any recorded value lands in a bucket
// whose width is <= 1/32 (~3.1%) of its magnitude. percentile() is
// nearest-rank and returns the containing bucket's lower bound --
// deterministic, exactly testable on small known distributions, and within
// one bucket width of the true order statistic everywhere else.

#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/thread_safety.h"

namespace synts::obs {

/// True when timed telemetry (histogram timers, trace spans) is recording.
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

/// Log-bucketed distribution of non-negative 64-bit samples (nanosecond
/// latencies, byte sizes). See the file comment for the bucket shape.
class latency_histogram {
public:
    /// Sub-bucket resolution: each octave is split into 2^5 = 32 linear
    /// sub-buckets; values below 32 are exact.
    static constexpr unsigned sub_bucket_bits = 5;
    static constexpr std::uint64_t sub_bucket_count = 1ull << sub_bucket_bits;
    /// Indices run [0, 32) for the exact region and [(s+1)*32, (s+2)*32)
    /// for octave shift s in [0, 64 - 5 - 1], so the largest index (for
    /// values near 2^64) is (64 - 5 + 1) * 32 - 1.
    static constexpr std::size_t bucket_count =
        (64 - sub_bucket_bits + 1) * static_cast<std::size_t>(sub_bucket_count);

    /// Bucket index of `value` (total order preserved: v1 <= v2 implies
    /// bucket_index(v1) <= bucket_index(v2)).
    [[nodiscard]] static constexpr std::size_t bucket_index(std::uint64_t value) noexcept
    {
        if (value < sub_bucket_count) {
            return static_cast<std::size_t>(value);
        }
        const unsigned octave = std::bit_width(value) - 1; // >= sub_bucket_bits
        const unsigned shift = octave - sub_bucket_bits;
        return static_cast<std::size_t>(
            (static_cast<std::uint64_t>(shift) << sub_bucket_bits) + (value >> shift));
    }

    /// Smallest value mapping to bucket `index` (the bucket's
    /// representative value for percentile extraction).
    [[nodiscard]] static constexpr std::uint64_t
    bucket_lower_bound(std::size_t index) noexcept
    {
        if (index < sub_bucket_count) {
            return static_cast<std::uint64_t>(index);
        }
        const std::uint64_t shift = index >> sub_bucket_bits;
        const std::uint64_t rem =
            static_cast<std::uint64_t>(index) - ((shift - 1) << sub_bucket_bits);
        return rem << (shift - 1);
    }

    /// Records one sample: a relaxed atomic add on the caller's stripe of
    /// the containing bucket. Callers gate the CLOCK READ that usually
    /// precedes this behind obs::enabled() (see scoped_timer); record()
    /// itself never blocks.
    void record(std::uint64_t value) noexcept
    {
        stripes_[thread_stripe() & (hist_stripe_count - 1)]
            .buckets[bucket_index(value)]
            .fetch_add(1, std::memory_order_relaxed);
        totals_[thread_stripe()].value.fetch_add(1, std::memory_order_relaxed);
    }

    /// Samples recorded so far.
    [[nodiscard]] std::uint64_t total() const noexcept
    {
        std::uint64_t total = 0;
        for (const padded_total& t : totals_) {
            total += t.value.load(std::memory_order_relaxed);
        }
        return total;
    }

    /// Count landed in bucket `index`, summed over stripes.
    [[nodiscard]] std::uint64_t count_at(std::size_t index) const noexcept
    {
        std::uint64_t count = 0;
        for (const stripe& s : stripes_) {
            count += s.buckets[index].load(std::memory_order_relaxed);
        }
        return count;
    }

    /// Nearest-rank q-quantile (q clamped to [0, 1]): the lower bound of
    /// the bucket holding the ceil(q * total)-th smallest sample. Exact for
    /// samples in the exact region (< 32); elsewhere within one sub-bucket
    /// width (<= ~3.1% of the value). 0 when empty.
    [[nodiscard]] std::uint64_t percentile(double q) const noexcept;

    /// Lower bound of the highest non-empty bucket (== percentile(1.0)).
    [[nodiscard]] std::uint64_t max_value() const noexcept { return percentile(1.0); }

    void reset() noexcept;

private:
    /// Histograms stripe 4 ways (not 8): each stripe is a full bucket
    /// array, so stripes trade memory for contention and recording is
    /// rarer than counter bumps (per task / per I/O, not per lookup).
    static constexpr std::size_t hist_stripe_count = 4;
    static_assert((hist_stripe_count & (hist_stripe_count - 1)) == 0);

    struct stripe {
        std::array<std::atomic<std::uint64_t>, bucket_count> buckets{};
    };
    struct alignas(64) padded_total {
        std::atomic<std::uint64_t> value{0};
    };
    std::array<stripe, hist_stripe_count> stripes_{};
    std::array<padded_total, counter_stripe_count> totals_{};
};

/// RAII latency probe: reads the clock only when telemetry is enabled at
/// construction, records the elapsed nanoseconds into the histogram at
/// destruction. Disabled cost: one relaxed bool load and a branch.
class scoped_timer {
public:
    explicit scoped_timer(latency_histogram& sink) noexcept
        : sink_(enabled() ? &sink : nullptr), start_ns_(sink_ != nullptr ? now_ns() : 0)
    {
    }
    ~scoped_timer()
    {
        if (sink_ != nullptr) {
            sink_->record(now_ns() - start_ns_);
        }
    }
    scoped_timer(const scoped_timer&) = delete;
    scoped_timer& operator=(const scoped_timer&) = delete;

private:
    latency_histogram* sink_;
    std::uint64_t start_ns_;
};

/// One metric in a snapshot. Histograms carry nearest-rank percentiles of
/// their recorded distribution (nanoseconds for *_ns metrics).
struct metric_sample {
    enum class kind : std::uint8_t { counter, gauge, histogram };

    std::string name;
    kind type = kind::counter;
    std::uint64_t count = 0;  ///< counter value / histogram sample count
    std::int64_t level = 0;   ///< gauge value
    std::uint64_t p50 = 0;
    std::uint64_t p95 = 0;
    std::uint64_t p99 = 0;
    std::uint64_t max = 0;
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
    [[nodiscard]] latency_histogram& histogram_at(std::string_view name);

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
    mutable util::annotated_mutex mutex_{util::lock_rank::metrics_registry,
                                         "metrics_registry"};
    std::map<std::string, std::unique_ptr<counter>, std::less<>> counters_
        SYNTS_GUARDED_BY(mutex_);
    std::map<std::string, std::unique_ptr<gauge>, std::less<>> gauges_
        SYNTS_GUARDED_BY(mutex_);
    std::map<std::string, std::unique_ptr<latency_histogram>, std::less<>> histograms_
        SYNTS_GUARDED_BY(mutex_);
};

/// Renders a snapshot as a console table, CSV rows (name, type, value,
/// count, p50_ns, p95_ns, p99_ns, max_ns), or a JSON object keyed by
/// metric name.
[[nodiscard]] std::string render_metrics(const std::vector<metric_sample>& samples,
                                         metrics_format format);

} // namespace synts::obs
