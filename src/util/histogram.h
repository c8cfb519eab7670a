// histogram.h -- binned distributions.
//
// Two flavors are provided:
//   * histogram       -- fixed-width real-valued bins, used for sensitized
//                        path-delay distributions (the per-thread delay
//                        traces of Fig. 3.5 / 6.17 reduce to these), and
//   * integer_histogram -- dense counts over small non-negative integers,
//                        used for the Hamming-distance bar graphs of
//                        Fig. 5.10.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace synts::util {

/// Fixed-width binned histogram over [lo, hi). Out-of-range samples clamp to
/// the first/last bin so no mass is silently dropped.
class histogram {
public:
    /// Creates a histogram with `bin_count` equal-width bins spanning
    /// [lo, hi). Requires bin_count >= 1 and hi > lo (throws
    /// std::invalid_argument otherwise).
    histogram(double lo, double hi, std::size_t bin_count);

    /// Adds one sample.
    void add(double value) noexcept;

    /// Adds every sample of a span in order. Equivalent to values.size()
    /// scalar add() calls (pinned by tests/test_util_histogram); the bulk
    /// entry point exists so hot paths hand over whole lane runs (e.g. one
    /// corner's 64 batched delays) in a single call that updates `total_`
    /// once and keeps the bin-index loop tight.
    void add(std::span<const double> values) noexcept;

    /// Bulk add over single-precision samples (the sampling traces store
    /// float delays). Each value is widened to double and binned exactly as
    /// add(double(value)) would.
    void add(std::span<const float> values) noexcept;

    /// Adds every sample of a span (alias of the bulk add overload, kept
    /// for existing call sites).
    void add_all(std::span<const double> values) noexcept;

    /// Number of bins.
    [[nodiscard]] std::size_t bin_count() const noexcept { return counts_.size(); }
    /// Count in bin `i`.
    [[nodiscard]] std::uint64_t count_at(std::size_t i) const noexcept { return counts_[i]; }
    /// Total number of samples.
    [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
    /// Lower edge of bin `i`.
    [[nodiscard]] double bin_lower(std::size_t i) const noexcept;
    /// Center of bin `i`.
    [[nodiscard]] double bin_center(std::size_t i) const noexcept;
    /// Width of every bin.
    [[nodiscard]] double bin_width() const noexcept { return width_; }
    /// Lower edge of the range (bin 0's lower edge).
    [[nodiscard]] double lo() const noexcept { return lo_; }
    /// Upper edge of the range.
    [[nodiscard]] double hi() const noexcept { return hi_; }

    /// Empirical q-quantile (linear interpolation inside bins).
    [[nodiscard]] double quantile(double q) const noexcept;

    /// Bin masses normalized to sum to 1 (empty histogram -> all zeros).
    [[nodiscard]] std::vector<double> normalized() const;

    /// Multi-line ASCII bar rendering (for bench/report output).
    [[nodiscard]] std::string ascii_render(std::size_t max_bar_width = 50) const;

private:
    double lo_;
    double hi_;
    double width_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
};

/// Dense counts over {0, 1, ..., max_value}. Values above max_value clamp
/// into the last bucket.
class integer_histogram {
public:
    /// Creates counts over [0, max_value].
    explicit integer_histogram(std::size_t max_value);

    /// Adds one observation.
    void add(std::size_t value) noexcept;

    /// Count of observations equal to `value` (clamped).
    [[nodiscard]] std::uint64_t count_at(std::size_t value) const noexcept;
    /// Number of buckets (max_value + 1).
    [[nodiscard]] std::size_t bucket_count() const noexcept { return counts_.size(); }
    /// Total observations.
    [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
    /// Mean of the observed values.
    [[nodiscard]] double mean() const noexcept;

    /// Bucket masses normalized to sum to 1.
    [[nodiscard]] std::vector<double> normalized() const;

    /// Multi-line ASCII bar rendering.
    [[nodiscard]] std::string ascii_render(std::size_t max_bar_width = 50) const;

private:
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
};

} // namespace synts::util
