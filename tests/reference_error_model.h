// reference_error_model.h -- the empirical error model's per-vector
// exceedance as it was computed before the suffix-count tables: a bin-by-bin
// sum over a util::histogram on every lookup. Differential tests hold
// core::empirical_error_model to it bit for bit.

#pragma once

#include <algorithm>
#include <cstdint>

#include "util/histogram.h"

namespace synts::test {

/// Empirical P(X > x) of `h`: exact with respect to bin boundaries; within
/// the containing bin, mass is interpolated linearly.
inline double reference_exceedance(const util::histogram& h, double x)
{
    if (h.total() == 0) {
        return 0.0;
    }
    if (x < h.lo()) {
        return 1.0;
    }
    if (x >= h.hi()) {
        return 0.0;
    }
    const double width = h.bin_width();
    const auto bin =
        std::min(static_cast<std::size_t>((x - h.lo()) / width), h.bin_count() - 1);
    std::uint64_t above = 0;
    for (std::size_t i = bin + 1; i < h.bin_count(); ++i) {
        above += h.count_at(i);
    }
    // Linear interpolation of the containing bin's mass.
    const double in_bin_fraction = (h.bin_lower(bin) + width - x) / width;
    const double partial = static_cast<double>(h.count_at(bin)) * in_bin_fraction;
    return (static_cast<double>(above) + partial) / static_cast<double>(h.total());
}

} // namespace synts::test
