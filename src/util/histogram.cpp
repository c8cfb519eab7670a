#include "util/histogram.h"

#include <algorithm>
#include <cmath>
#include <sstream>
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

void histogram::add(double value) noexcept
{
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

void histogram::add(std::span<const double> values) noexcept
{
    // One total_ update for the whole run; the bin loop touches only the
    // counts array. bin-index math matches add(double) exactly.
    for (const double v : values) {
        std::size_t index;
        if (v < lo_) {
            index = 0;
        } else {
            const auto raw = static_cast<std::size_t>((v - lo_) / width_);
            index = std::min(raw, counts_.size() - 1);
        }
        ++counts_[index];
    }
    total_ += values.size();
}

void histogram::add(std::span<const float> values) noexcept
{
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
    total_ += values.size();
}

void histogram::add_all(std::span<const double> values) noexcept
{
    add(values);
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

std::string histogram::ascii_render(std::size_t max_bar_width) const
{
    std::ostringstream out;
    std::uint64_t peak = 1;
    for (const std::uint64_t c : counts_) {
        peak = std::max(peak, c);
    }
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        const auto bar = static_cast<std::size_t>(
            static_cast<double>(counts_[i]) / static_cast<double>(peak) *
            static_cast<double>(max_bar_width));
        out << "[";
        out.precision(4);
        out << bin_lower(i) << ", " << bin_lower(i) + width_ << ") ";
        out << std::string(bar, '#') << " " << counts_[i] << "\n";
    }
    return out.str();
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

std::string integer_histogram::ascii_render(std::size_t max_bar_width) const
{
    std::ostringstream out;
    std::uint64_t peak = 1;
    for (const std::uint64_t c : counts_) {
        peak = std::max(peak, c);
    }
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        const auto bar = static_cast<std::size_t>(
            static_cast<double>(counts_[i]) / static_cast<double>(peak) *
            static_cast<double>(max_bar_width));
        out << i << ": " << std::string(bar, '#') << " " << counts_[i] << "\n";
    }
    return out.str();
}

} // namespace synts::util
