#include "core/error_model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace synts::core {

empirical_error_model::empirical_error_model(
    const std::vector<util::histogram>& per_corner_delays, std::vector<double> tnom_ps,
    double drive_fraction)
    : tnom_ps_(std::move(tnom_ps)), drive_fraction_(drive_fraction)
{
    if (per_corner_delays.empty() || per_corner_delays.size() != tnom_ps_.size()) {
        throw std::invalid_argument("empirical_error_model: corner arrays mismatch");
    }
    if (drive_fraction_ < 0.0 || drive_fraction_ > 1.0) {
        throw std::invalid_argument("empirical_error_model: drive_fraction out of range");
    }
    corners_.reserve(per_corner_delays.size());
    for (const util::histogram& h : per_corner_delays) {
        corner_table& table = corners_.emplace_back();
        table.lo = h.lo();
        table.hi = h.hi();
        table.width = h.bin_width();
        table.at_or_above.assign(h.bin_count() + 1, 0);
        for (std::size_t b = h.bin_count(); b-- > 0;) {
            table.at_or_above[b] = table.at_or_above[b + 1] + h.count_at(b);
        }
    }
}

double empirical_error_model::vector_error_probability(std::size_t voltage_index,
                                                       double tsr) const
{
    if (voltage_index >= corners_.size()) {
        throw std::out_of_range("empirical_error_model: voltage index");
    }
    const corner_table& table = corners_[voltage_index];
    const double x = tsr * tnom_ps_[voltage_index];
    const std::uint64_t total = table.at_or_above.front();
    if (total == 0) {
        return 0.0;
    }
    if (x < table.lo) {
        return 1.0;
    }
    if (x >= table.hi) {
        return 0.0;
    }
    const std::size_t bins = table.at_or_above.size() - 1;
    const auto bin = std::min(static_cast<std::size_t>((x - table.lo) / table.width), bins - 1);
    const std::uint64_t above = table.at_or_above[bin + 1];
    const std::uint64_t in_bin = table.at_or_above[bin] - above;
    // Linear interpolation of the containing bin's mass.
    const double bin_upper = table.lo + table.width * static_cast<double>(bin) + table.width;
    const double partial = static_cast<double>(in_bin) * ((bin_upper - x) / table.width);
    return (static_cast<double>(above) + partial) / static_cast<double>(total);
}

double empirical_error_model::error_probability(std::size_t voltage_index, double tsr) const
{
    return vector_error_probability(voltage_index, tsr) * drive_fraction_;
}

synthetic_error_curve::synthetic_error_curve(double onset, double floor_tsr, double scale,
                                             double power, double cap)
    : onset_(onset), floor_tsr_(floor_tsr), scale_(scale), power_(power), cap_(cap)
{
    if (!(floor_tsr < onset)) {
        throw std::invalid_argument("synthetic_error_curve: floor must precede onset");
    }
    if (scale < 0.0 || cap < 0.0 || power <= 0.0) {
        throw std::invalid_argument("synthetic_error_curve: bad shape parameters");
    }
}

double synthetic_error_curve::error_probability(std::size_t /*voltage_index*/,
                                                double tsr) const
{
    if (tsr >= onset_) {
        return 0.0;
    }
    const double normalized = (onset_ - tsr) / (onset_ - floor_tsr_);
    const double err = scale_ * std::pow(normalized, power_);
    return std::min(err, cap_);
}

} // namespace synts::core
