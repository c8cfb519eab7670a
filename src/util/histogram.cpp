#include "util/histogram.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace synts::util {

histogram::histogram(double lo, double hi, std::size_t bin_count)
    : lo_(lo), hi_(hi)
{
    if (bin_count == 0) {
        throw std::invalid_argument("histogram: bin_count must be >= 1");
    }
    if (!(hi > lo)) {
        throw std::invalid_argument("histogram: hi must exceed lo");
    }
    width_ = (hi - lo) / static_cast<double>(bin_count);
    counts_.assign(bin_count, 0);
}

void histogram::check_room(std::size_t more)
{
    if (more > std::numeric_limits<std::uint32_t>::max() - total_) {
        throw std::length_error("histogram: more than 2^32 - 1 samples");
    }
}

void histogram::add(double value)
{
    check_room(1);
    std::size_t index;
    if (value < lo_) {
        index = 0;
    } else {
        const auto raw = static_cast<std::size_t>((value - lo_) / width_);
        index = std::min(raw, counts_.size() - 1);
    }
    ++counts_[index];
    ++total_;
}

void histogram::add(std::span<const double> values)
{
    // One total_ check and update for the whole run; the bin loop touches
    // only the counts array. bin-index math matches add(double) exactly: a
    // value <= lo lands in bin 0 either way, so those are only counted
    // (the delay floor records most lanes as +0.0) and added to bin 0 once.
    check_room(values.size());
    std::uint32_t at_floor = 0;
    for (const double v : values) {
        if (v <= lo_) {
            ++at_floor;
            continue;
        }
        const auto raw = static_cast<std::size_t>((v - lo_) / width_);
        ++counts_[std::min(raw, counts_.size() - 1)];
    }
    counts_[0] += at_floor;
    total_ += static_cast<std::uint32_t>(values.size());
}

void histogram::add(std::span<const float> values)
{
    check_room(values.size());
    for (const float v : values) {
        std::size_t index;
        const auto value = static_cast<double>(v);
        if (value < lo_) {
            index = 0;
        } else {
            const auto raw = static_cast<std::size_t>((value - lo_) / width_);
            index = std::min(raw, counts_.size() - 1);
        }
        ++counts_[index];
    }
    total_ += static_cast<std::uint32_t>(values.size());
}

double histogram::bin_lower(std::size_t i) const noexcept
{
    return lo_ + width_ * static_cast<double>(i);
}

double histogram::bin_center(std::size_t i) const noexcept
{
    return bin_lower(i) + 0.5 * width_;
}

double histogram::quantile(double q) const noexcept
{
    if (total_ == 0) {
        return lo_;
    }
    q = std::clamp(q, 0.0, 1.0);
    const double target = q * static_cast<double>(total_);
    double cumulative = 0.0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        const auto c = static_cast<double>(counts_[i]);
        if (cumulative + c >= target) {
            const double fraction = c > 0.0 ? (target - cumulative) / c : 0.0;
            return bin_lower(i) + fraction * width_;
        }
        cumulative += c;
    }
    return hi_;
}

std::vector<double> histogram::normalized() const
{
    std::vector<double> mass(counts_.size(), 0.0);
    if (total_ == 0) {
        return mass;
    }
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        mass[i] = static_cast<double>(counts_[i]) / static_cast<double>(total_);
    }
    return mass;
}

integer_histogram::integer_histogram(std::size_t max_value)
    : counts_(max_value + 1, 0)
{
}

void integer_histogram::add(std::size_t value) noexcept
{
    const std::size_t index = std::min(value, counts_.size() - 1);
    ++counts_[index];
    ++total_;
}

std::uint64_t integer_histogram::count_at(std::size_t value) const noexcept
{
    return counts_[std::min(value, counts_.size() - 1)];
}

double integer_histogram::mean() const noexcept
{
    if (total_ == 0) {
        return 0.0;
    }
    double weighted = 0.0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        weighted += static_cast<double>(i) * static_cast<double>(counts_[i]);
    }
    return weighted / static_cast<double>(total_);
}

std::vector<double> integer_histogram::normalized() const
{
    std::vector<double> mass(counts_.size(), 0.0);
    if (total_ == 0) {
        return mass;
    }
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        mass[i] = static_cast<double>(counts_[i]) / static_cast<double>(total_);
    }
    return mass;
}

} // namespace synts::util
