// error_model.h -- per-thread timing-error probability functions err_i(r).
//
// Section 4.1: "for a given r_i, the error probability is p_err = err_i(r_i);
// err_i is a decreasing function of r_i ... the error probability function
// can vary from one thread to another". Here err is represented per
// *instruction* (vectors that do not exercise the analyzed stage cannot
// error in it), as a function of both the voltage level and the TSR --
// under perfectly uniform voltage scaling the voltage dependence vanishes,
// which is exactly the approximation the online estimator relies on.

#pragma once

#include <cstdint>
#include <vector>

#include "util/histogram.h"

namespace synts::core {

/// Abstract per-thread error-probability function.
class error_curve {
public:
    virtual ~error_curve() = default;

    /// Per-instruction timing-error probability when running at voltage
    /// level `voltage_index` with timing-speculation ratio `tsr`.
    [[nodiscard]] virtual double error_probability(std::size_t voltage_index,
                                                   double tsr) const = 0;
};

/// Empirical error model built from the cross-layer characterization: one
/// sensitized-delay histogram per voltage corner plus the fraction of
/// instructions that drive the stage.
///
/// Each corner keeps only suffix counts (at_or_above[b] = samples in bins
/// b.., so at_or_above[0] is the total), so a lookup is O(1): the mass above
/// the containing bin and the bin's own count are differences of two
/// entries. The integer math is exact, so the result equals a bin-by-bin
/// sum bit for bit (tests/test_core_error_model.cpp holds it to that loop).
class empirical_error_model final : public error_curve {
public:
    /// `per_corner_delays[j]` holds the delay distribution at voltage level
    /// j; `tnom_ps[j]` is the stage's nominal period there. `drive_fraction`
    /// in [0, 1]. Throws std::invalid_argument on size mismatch.
    empirical_error_model(const std::vector<util::histogram>& per_corner_delays,
                          std::vector<double> tnom_ps, double drive_fraction);

    [[nodiscard]] double error_probability(std::size_t voltage_index,
                                           double tsr) const override;

    /// Per-vector exceedance P(delay > tsr * tnom) at a corner (without the
    /// drive-fraction factor); within the containing bin, mass is
    /// interpolated linearly.
    [[nodiscard]] double vector_error_probability(std::size_t voltage_index,
                                                  double tsr) const;

    /// Fraction of instructions exercising the stage.
    [[nodiscard]] double drive_fraction() const noexcept { return drive_fraction_; }

    /// Number of voltage corners.
    [[nodiscard]] std::size_t corner_count() const noexcept { return corners_.size(); }

private:
    /// One corner's delay distribution as suffix counts.
    struct corner_table {
        double lo = 0.0;
        double hi = 0.0;
        double width = 0.0;
        std::vector<std::uint64_t> at_or_above; ///< size bins + 1, last entry 0
    };

    std::vector<corner_table> corners_;
    std::vector<double> tnom_ps_;
    double drive_fraction_;
};

/// Parametric error curve for unit tests, solver property tests, and the
/// conceptual Fig. 1.2 bench:
///   err(r) = min(cap, scale * ((onset - r) / (onset - floor))^power)
/// for r < onset, else 0; independent of voltage (uniform scaling).
class synthetic_error_curve final : public error_curve {
public:
    /// `onset` is the largest TSR with nonzero error; `floor_tsr` anchors
    /// the normalization; `scale` is err at floor_tsr; `power` shapes the
    /// curve; `cap` bounds the probability.
    synthetic_error_curve(double onset, double floor_tsr, double scale, double power,
                          double cap = 1.0);

    [[nodiscard]] double error_probability(std::size_t voltage_index,
                                           double tsr) const override;

private:
    double onset_;
    double floor_tsr_;
    double scale_;
    double power_;
    double cap_;
};

} // namespace synts::core
