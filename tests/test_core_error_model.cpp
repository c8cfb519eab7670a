// Tests for core/error_model.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/error_model.h"
#include "reference_error_model.h"
#include "util/rng.h"

namespace {

using namespace synts::core;
using synts::util::histogram;

empirical_error_model make_two_corner_model()
{
    // Corner 0: delays uniform in [0, 100); corner 1 scaled by 1.5.
    histogram h0(0.0, 105.0, 128);
    histogram h1(0.0, 160.0, 128);
    synts::util::xoshiro256 rng(3);
    for (int i = 0; i < 50000; ++i) {
        const double d = rng.uniform(0.0, 100.0);
        h0.add(d);
        h1.add(d * 1.5);
    }
    return empirical_error_model({h0, h1}, {100.0, 150.0}, 0.5);
}

TEST(empirical_model, rejects_inconsistent_construction)
{
    histogram h(0.0, 1.0, 4);
    EXPECT_THROW(empirical_error_model({h}, {1.0, 2.0}, 0.5), std::invalid_argument);
    EXPECT_THROW(empirical_error_model({h}, {1.0}, 1.5), std::invalid_argument);
    EXPECT_THROW(empirical_error_model({}, {}, 0.5), std::invalid_argument);
}

TEST(empirical_model, error_zero_at_r_one)
{
    const auto model = make_two_corner_model();
    EXPECT_NEAR(model.error_probability(0, 1.0), 0.0, 1e-3);
    EXPECT_NEAR(model.error_probability(1, 1.0), 0.0, 1e-3);
}

TEST(empirical_model, uniform_delays_give_linear_exceedance)
{
    const auto model = make_two_corner_model();
    // P(delay > 0.6 * 100) = 0.4 per vector, x drive fraction 0.5 = 0.2.
    EXPECT_NEAR(model.error_probability(0, 0.6), 0.2, 0.01);
    EXPECT_NEAR(model.vector_error_probability(0, 0.6), 0.4, 0.01);
}

TEST(empirical_model, voltage_corners_consistent_under_uniform_scaling)
{
    const auto model = make_two_corner_model();
    // Both corners were built from the same normalized distribution, so
    // err(j, r) should agree across corners for equal r.
    for (const double r : {0.5, 0.7, 0.9}) {
        EXPECT_NEAR(model.error_probability(0, r), model.error_probability(1, r), 0.01);
    }
}

TEST(empirical_model, monotone_non_increasing_in_r)
{
    const auto model = make_two_corner_model();
    for (std::size_t j = 0; j < model.corner_count(); ++j) {
        double previous = 1.0;
        for (double r = 0.3; r <= 1.05; r += 0.05) {
            const double e = model.error_probability(j, r);
            ASSERT_LE(e, previous + 1e-12);
            previous = e;
        }
    }
}

TEST(empirical_model, out_of_range_voltage_throws)
{
    const auto model = make_two_corner_model();
    EXPECT_THROW((void)model.error_probability(5, 0.9), std::out_of_range);
}

bool same_bits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Lookups that stress the containing-bin math: outside the range, on its
/// edges and their neighbours, on every bin edge and centre, and at random.
std::vector<double> probe_points(const histogram& h, synts::util::xoshiro256& rng)
{
    constexpr double inf = std::numeric_limits<double>::infinity();
    std::vector<double> xs = {h.lo() - 1.0,
                              std::nextafter(h.lo(), -inf),
                              h.lo(),
                              std::nextafter(h.lo(), inf),
                              std::nextafter(h.hi(), -inf),
                              h.hi(),
                              std::nextafter(h.hi(), inf),
                              h.hi() + 1.0};
    for (std::size_t b = 0; b <= h.bin_count(); ++b) {
        xs.push_back(h.bin_lower(b));
        xs.push_back(h.bin_center(b));
    }
    for (int r = 0; r < 64; ++r) {
        xs.push_back(rng.uniform(h.lo(), h.hi()));
    }
    return xs;
}

TEST(empirical_model, suffix_counts_match_histogram_loop_bit_for_bit)
{
    // Random ranges, bin counts and fills (trial 0 has a single bin and
    // trial 1 is empty); samples spill past both edges so the clamped end
    // bins carry mass. With a nominal period of 1 the threshold is the
    // probe point itself.
    synts::util::xoshiro256 rng(41);
    for (int trial = 0; trial < 24; ++trial) {
        SCOPED_TRACE(testing::Message() << "trial " << trial);
        const std::size_t bins = trial == 0 ? 1 : 1 + rng.uniform_below(700);
        const double lo = rng.uniform(-50.0, 50.0);
        const double hi = lo + rng.uniform(0.5, 400.0);
        histogram h(lo, hi, bins);
        const std::uint64_t samples = trial == 1 ? 0 : rng.uniform_below(6000);
        const double spill = 0.1 * (hi - lo);
        for (std::uint64_t n = 0; n < samples; ++n) {
            h.add(rng.uniform(lo - spill, hi + spill));
        }
        const double drive = rng.uniform();
        const empirical_error_model model({h}, {1.0}, drive);
        for (const double x : probe_points(h, rng)) {
            const double want = synts::test::reference_exceedance(h, x);
            EXPECT_TRUE(same_bits(model.vector_error_probability(0, x), want)) << x;
            EXPECT_TRUE(same_bits(model.error_probability(0, x), want * drive)) << x;
        }
    }
}

TEST(empirical_model, suffix_counts_match_per_corner_thresholds)
{
    // Several corners with their own ranges and nominal periods: the lookup
    // at (j, tsr) prices tsr * tnom_ps[j] against corner j's histogram.
    synts::util::xoshiro256 rng(43);
    std::vector<histogram> corners;
    std::vector<double> tnom;
    for (std::size_t j = 0; j < 7; ++j) {
        tnom.push_back(100.0 * (1.0 + 0.2 * static_cast<double>(j)));
        corners.emplace_back(0.0, tnom.back() * 1.05, 512);
        for (int n = 0; n < 4000; ++n) {
            corners.back().add(rng.uniform(0.0, tnom.back()) * rng.uniform());
        }
    }
    const double drive = 0.37;
    const empirical_error_model model(corners, tnom, drive);
    for (std::size_t j = 0; j < corners.size(); ++j) {
        for (double tsr : {0.0, 0.5, 0.64, 0.712, 0.784, 0.856, 0.928, 1.0, 1.05, 2.0}) {
            const double want = synts::test::reference_exceedance(corners[j], tsr * tnom[j]);
            EXPECT_TRUE(same_bits(model.vector_error_probability(j, tsr), want))
                << j << " " << tsr;
            EXPECT_TRUE(same_bits(model.error_probability(j, tsr), want * drive))
                << j << " " << tsr;
        }
    }
}

TEST(empirical_model, empty_and_single_bin_histograms)
{
    const histogram empty(0.0, 10.0, 8);
    const empirical_error_model none({empty}, {10.0}, 1.0);
    for (const double tsr : {-1.0, 0.0, 0.5, 1.0, 2.0}) {
        EXPECT_EQ(none.error_probability(0, tsr), 0.0);
    }

    histogram single(2.0, 6.0, 1);
    single.add(3.0);
    single.add(5.0);
    single.add(100.0); // clamps into the one bin
    const empirical_error_model one({single}, {1.0}, 1.0);
    EXPECT_EQ(one.vector_error_probability(0, 1.0), 1.0);
    EXPECT_EQ(one.vector_error_probability(0, 2.0), 1.0);
    EXPECT_EQ(one.vector_error_probability(0, 4.0), 0.5);
    EXPECT_EQ(one.vector_error_probability(0, 6.0), 0.0);
    for (const double x : {2.0, 2.5, 3.0, 4.0, 5.999}) {
        EXPECT_TRUE(same_bits(one.vector_error_probability(0, x),
                              synts::test::reference_exceedance(single, x)))
            << x;
    }
}

TEST(empirical_model, delay_floor_refuses_low_queries_and_is_exact_above)
{
    // A floored characterization records every vector below floor * tnom at
    // 0.0. The model built from it with that floor throws for any query
    // that could see the moved mass (tsr at or below the floor, or in the
    // floor's bin) and answers every other query exactly as the model of
    // the unpruned delays does.
    constexpr double tnom = 100.0;
    constexpr double floor = 0.25;
    histogram full(0.0, 105.0, 128);
    histogram pruned(0.0, 105.0, 128);
    synts::util::xoshiro256 rng(5);
    for (int i = 0; i < 20000; ++i) {
        const double d = rng.uniform(0.0, 100.0);
        full.add(d);
        pruned.add(d < floor * tnom ? 0.0 : d);
    }
    const empirical_error_model exact({full}, {tnom}, 0.5);
    const empirical_error_model floored({pruned}, {tnom}, 0.5, floor);
    const double bin_tsr = full.bin_width() / tnom;
    std::size_t answered = 0;
    for (int step = -10; step <= 1100; ++step) {
        const double tsr = step / 1000.0;
        if (tsr <= floor) {
            EXPECT_THROW((void)floored.error_probability(0, tsr), std::invalid_argument)
                << tsr;
            continue;
        }
        if (tsr < floor + bin_tsr) {
            continue; // in the floor's bin or just past it: may throw
        }
        ASSERT_NO_THROW((void)floored.error_probability(0, tsr)) << tsr;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(floored.error_probability(0, tsr)),
                  std::bit_cast<std::uint64_t>(exact.error_probability(0, tsr)))
            << tsr;
        ++answered;
    }
    EXPECT_GT(answered, 700u);
    // The floor is a fraction of tnom in [0, 1).
    EXPECT_THROW(empirical_error_model({full}, {tnom}, 0.5, -0.1), std::invalid_argument);
    EXPECT_THROW(empirical_error_model({full}, {tnom}, 0.5, 1.0), std::invalid_argument);
}

TEST(empirical_model, answers_exactly_where_lookups_do_not_throw)
{
    // answers() is the rule vector_error_probability throws by, so a grid
    // check that asks it refuses exactly what a lookup would, bin for bin.
    constexpr double tnom = 100.0;
    for (const std::size_t bins : {std::size_t{32}, std::size_t{128}, std::size_t{512}}) {
        const histogram h(0.0, 105.0, bins);
        const empirical_error_model model({h}, {tnom}, 1.0, 0.63);
        std::size_t refused = 0;
        for (int step = -10; step <= 1200; ++step) {
            const double tsr = step / 1000.0;
            bool threw = false;
            try {
                (void)model.vector_error_probability(0, tsr);
            } catch (const std::invalid_argument&) {
                threw = true;
            }
            EXPECT_EQ(model.answers(0, tsr), !threw) << bins << " bins, tsr " << tsr;
            refused += threw ? 1 : 0;
        }
        EXPECT_GT(refused, 640u) << bins; // every tsr <= 0.63, and more
    }
    const empirical_error_model model({histogram(0.0, 105.0, 32)}, {tnom}, 1.0, 0.63);
    EXPECT_FALSE(model.answers(0, 0.64)); // 0.63 and 0.64 share bin 19 of 32
    EXPECT_THROW((void)model.answers(1, 0.9), std::out_of_range);
}

TEST(synthetic_curve, zero_above_onset)
{
    const synthetic_error_curve curve(0.9, 0.6, 0.1, 2.0);
    EXPECT_DOUBLE_EQ(curve.error_probability(0, 0.95), 0.0);
    EXPECT_DOUBLE_EQ(curve.error_probability(0, 0.9), 0.0);
    EXPECT_GT(curve.error_probability(0, 0.89), 0.0);
}

TEST(synthetic_curve, hits_scale_at_floor)
{
    const synthetic_error_curve curve(0.9, 0.6, 0.1, 2.0);
    EXPECT_NEAR(curve.error_probability(0, 0.6), 0.1, 1e-12);
}

TEST(synthetic_curve, capped)
{
    const synthetic_error_curve curve(0.9, 0.6, 10.0, 1.0, 0.5);
    EXPECT_DOUBLE_EQ(curve.error_probability(0, 0.0), 0.5);
}

TEST(synthetic_curve, monotone_non_increasing)
{
    const synthetic_error_curve curve(0.92, 0.64, 0.08, 1.7);
    double previous = 1.0;
    for (double r = 0.4; r <= 1.0; r += 0.01) {
        const double e = curve.error_probability(0, r);
        ASSERT_LE(e, previous + 1e-12);
        previous = e;
    }
}

TEST(synthetic_curve, rejects_bad_parameters)
{
    EXPECT_THROW(synthetic_error_curve(0.6, 0.9, 0.1, 2.0), std::invalid_argument);
    EXPECT_THROW(synthetic_error_curve(0.9, 0.6, -0.1, 2.0), std::invalid_argument);
    EXPECT_THROW(synthetic_error_curve(0.9, 0.6, 0.1, 0.0), std::invalid_argument);
}

} // namespace
