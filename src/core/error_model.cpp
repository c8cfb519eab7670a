#include "core/error_model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace synts::core {

namespace {

/// The bin histogram::add puts `x` in.
std::size_t bin_of(double x, double lo, double width, std::size_t bins)
{
    return x < lo ? 0 : std::min(static_cast<std::size_t>((x - lo) / width), bins - 1);
}

} // namespace

empirical_error_model::empirical_error_model(
    const std::vector<util::histogram>& per_corner_delays, std::vector<double> tnom_ps,
    double drive_fraction, double delay_floor)
    : tnom_ps_(std::move(tnom_ps)), drive_fraction_(drive_fraction)
{
    if (per_corner_delays.empty() || per_corner_delays.size() != tnom_ps_.size()) {
        throw std::invalid_argument("empirical_error_model: corner arrays mismatch");
    }
    if (drive_fraction_ < 0.0 || drive_fraction_ > 1.0) {
        throw std::invalid_argument("empirical_error_model: drive_fraction out of range");
    }
    if (!(delay_floor >= 0.0 && delay_floor < 1.0)) {
        throw std::invalid_argument("empirical_error_model: delay floor outside [0, 1)");
    }
    corners_.reserve(per_corner_delays.size());
    for (std::size_t c = 0; c < per_corner_delays.size(); ++c) {
        const util::histogram& h = per_corner_delays[c];
        corner_table& table = corners_.emplace_back();
        table.lo = h.lo();
        table.hi = h.hi();
        table.width = h.bin_width();
        // A delay recorded as 0.0 was below delay_floor * tnom, the product
        // step_batch clamps against, so it belongs at or below that
        // product's bin.
        if (delay_floor > 0.0) {
            table.first_exact_bin =
                bin_of(delay_floor * tnom_ps_[c], table.lo, table.width, h.bin_count()) + 1;
        }
        // The histogram's total fits 32 bits, so every suffix does.
        table.at_or_above.assign(h.bin_count() + 1, 0);
        for (std::size_t b = h.bin_count(); b-- > 0;) {
            table.at_or_above[b] =
                table.at_or_above[b + 1] + static_cast<std::uint32_t>(h.count_at(b));
        }
    }
}

bool empirical_error_model::answers(std::size_t voltage_index, double tsr) const
{
    if (voltage_index >= corners_.size()) {
        throw std::out_of_range("empirical_error_model: voltage index");
    }
    const corner_table& table = corners_[voltage_index];
    const double x = tsr * tnom_ps_[voltage_index];
    return x >= table.hi ||
           bin_of(x, table.lo, table.width, table.at_or_above.size() - 1) >=
               table.first_exact_bin;
}

double empirical_error_model::vector_error_probability(std::size_t voltage_index,
                                                       double tsr) const
{
    if (voltage_index >= corners_.size()) {
        throw std::out_of_range("empirical_error_model: voltage index");
    }
    const corner_table& table = corners_[voltage_index];
    const double x = tsr * tnom_ps_[voltage_index];
    if (x >= table.hi) {
        return 0.0;
    }
    const std::size_t bins = table.at_or_above.size() - 1;
    const std::size_t bin = bin_of(x, table.lo, table.width, bins);
    // The rule answers() states, on the bin already computed.
    if (bin < table.first_exact_bin) {
        throw std::invalid_argument(
            "empirical_error_model: tsr at or below the characterization's delay floor");
    }
    const std::uint32_t total = table.at_or_above.front();
    if (total == 0) {
        return 0.0;
    }
    if (x < table.lo) {
        return 1.0;
    }
    const std::uint32_t above = table.at_or_above[bin + 1];
    const std::uint32_t in_bin = table.at_or_above[bin] - above;
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
