// Tests for util/histogram.

#include <gtest/gtest.h>

#include <sys/mman.h>

#include <cstddef>
#include <span>
#include <stdexcept>

#include "core/error_model.h"
#include "util/histogram.h"
#include "util/rng.h"

namespace {

using namespace synts::util;

/// P(X > x) of `h` as the error model prices it: one corner with a nominal
/// period of 1 (so the threshold is x itself) and every instruction driving.
double exceedance(const histogram& h, double x)
{
    return synts::core::empirical_error_model({h}, {1.0}, 1.0).vector_error_probability(0, x);
}

TEST(histogram, rejects_bad_construction)
{
    EXPECT_THROW(histogram(0.0, 1.0, 0), std::invalid_argument);
    EXPECT_THROW(histogram(1.0, 1.0, 4), std::invalid_argument);
    EXPECT_THROW(histogram(2.0, 1.0, 4), std::invalid_argument);
}

TEST(histogram, bins_values_correctly)
{
    histogram h(0.0, 10.0, 10);
    h.add(0.5);
    h.add(9.5);
    h.add(5.0);
    EXPECT_EQ(h.total(), 3u);
    EXPECT_EQ(h.count_at(0), 1u);
    EXPECT_EQ(h.count_at(9), 1u);
    EXPECT_EQ(h.count_at(5), 1u);
}

TEST(histogram, clamps_out_of_range)
{
    histogram h(0.0, 10.0, 10);
    h.add(-5.0);
    h.add(100.0);
    EXPECT_EQ(h.count_at(0), 1u);
    EXPECT_EQ(h.count_at(9), 1u);
    EXPECT_EQ(h.total(), 2u);
}

TEST(histogram, exceedance_boundaries)
{
    histogram h(0.0, 10.0, 10);
    for (int i = 0; i < 10; ++i) {
        h.add(static_cast<double>(i) + 0.5);
    }
    EXPECT_DOUBLE_EQ(exceedance(h, -1.0), 1.0);
    EXPECT_DOUBLE_EQ(exceedance(h, 10.0), 0.0);
    EXPECT_NEAR(exceedance(h, 5.0), 0.5, 0.05);
}

TEST(histogram, exceedance_monotone_non_increasing)
{
    xoshiro256 rng(3);
    histogram h(0.0, 1.0, 64);
    for (int i = 0; i < 5000; ++i) {
        h.add(rng.uniform());
    }
    double previous = 1.1;
    for (double x = -0.1; x <= 1.1; x += 0.01) {
        const double e = exceedance(h, x);
        ASSERT_LE(e, previous + 1e-12);
        previous = e;
    }
}

TEST(histogram, quantile_uniform_data)
{
    xoshiro256 rng(9);
    histogram h(0.0, 1.0, 100);
    for (int i = 0; i < 100000; ++i) {
        h.add(rng.uniform());
    }
    EXPECT_NEAR(h.quantile(0.5), 0.5, 0.02);
    EXPECT_NEAR(h.quantile(0.9), 0.9, 0.02);
    EXPECT_NEAR(h.quantile(0.1), 0.1, 0.02);
}

TEST(histogram, quantile_exceedance_roundtrip)
{
    xoshiro256 rng(11);
    histogram h(0.0, 2.0, 128);
    for (int i = 0; i < 20000; ++i) {
        h.add(rng.uniform(0.0, 2.0));
    }
    for (const double q : {0.1, 0.5, 0.9}) {
        const double x = h.quantile(q);
        EXPECT_NEAR(exceedance(h, x), 1.0 - q, 0.03);
    }
}

TEST(histogram, normalized_sums_to_one)
{
    histogram h(0.0, 1.0, 16);
    for (int i = 0; i < 100; ++i) {
        h.add(0.03 * i);
    }
    double total = 0.0;
    for (const double m : h.normalized()) {
        total += m;
    }
    EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(histogram, empty_histogram_behaviors)
{
    histogram h(0.0, 1.0, 4);
    EXPECT_DOUBLE_EQ(exceedance(h, 0.5), 0.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
    for (const double m : h.normalized()) {
        EXPECT_DOUBLE_EQ(m, 0.0);
    }
}

TEST(integer_histogram, counts_and_clamps)
{
    integer_histogram h(4);
    h.add(0);
    h.add(4);
    h.add(10); // clamps to 4
    EXPECT_EQ(h.total(), 3u);
    EXPECT_EQ(h.count_at(0), 1u);
    EXPECT_EQ(h.count_at(4), 2u);
    EXPECT_EQ(h.bucket_count(), 5u);
}

TEST(histogram, bulk_add_matches_scalar_adds)
{
    xoshiro256 rng(17);
    std::vector<double> samples;
    samples.reserve(2000);
    for (int i = 0; i < 2000; ++i) {
        // Span well past both edges so clamping paths are exercised.
        samples.push_back(rng.uniform() * 14.0 - 2.0);
    }

    histogram scalar(0.0, 10.0, 64);
    for (const double v : samples) {
        scalar.add(v);
    }
    histogram bulk(0.0, 10.0, 64);
    bulk.add(std::span<const double>(samples));

    EXPECT_EQ(bulk.total(), scalar.total());
    for (std::size_t i = 0; i < scalar.bin_count(); ++i) {
        EXPECT_EQ(bulk.count_at(i), scalar.count_at(i)) << "bin " << i;
    }
}

TEST(histogram, bulk_add_edge_bins)
{
    // Exact edge cases: below lo -> bin 0, at hi and above -> last bin,
    // exactly lo -> bin 0, last interior boundary -> last bin.
    const std::vector<double> edges = {-1e9, -0.001, 0.0, 9.999, 10.0, 1e9};
    histogram scalar(0.0, 10.0, 10);
    for (const double v : edges) {
        scalar.add(v);
    }
    histogram bulk(0.0, 10.0, 10);
    bulk.add(std::span<const double>(edges));
    for (std::size_t i = 0; i < scalar.bin_count(); ++i) {
        EXPECT_EQ(bulk.count_at(i), scalar.count_at(i)) << "bin " << i;
    }
    EXPECT_EQ(bulk.count_at(0), 3u);
    EXPECT_EQ(bulk.count_at(9), 3u);
}

TEST(histogram, bulk_add_counts_floor_zeros_like_scalar_adds)
{
    // Mostly +0.0 (and some -0.0) at lo, as the delay floor records them,
    // among values in every bin: the bulk add counts the values <= lo in
    // bin 0 without binning them, and must agree with scalar adds.
    xoshiro256 rng(23);
    std::vector<double> samples;
    for (int i = 0; i < 3000; ++i) {
        const double u = rng.uniform();
        samples.push_back(u < 0.85 ? 0.0 : u < 0.9 ? -0.0 : rng.uniform() * 12.0);
    }
    histogram scalar(0.0, 10.0, 32);
    for (const double v : samples) {
        scalar.add(v);
    }
    histogram bulk(0.0, 10.0, 32);
    bulk.add(std::span<const double>(samples));
    EXPECT_EQ(bulk.total(), scalar.total());
    for (std::size_t i = 0; i < scalar.bin_count(); ++i) {
        EXPECT_EQ(bulk.count_at(i), scalar.count_at(i)) << "bin " << i;
    }
}

TEST(histogram, bulk_add_empty_span_is_noop)
{
    histogram h(0.0, 1.0, 4);
    h.add(std::span<const double>());
    EXPECT_EQ(h.total(), 0u);
}

TEST(histogram, bulk_add_float_matches_widened_scalar_adds)
{
    xoshiro256 rng(29);
    std::vector<float> samples;
    samples.reserve(1500);
    for (int i = 0; i < 1500; ++i) {
        samples.push_back(static_cast<float>(rng.uniform() * 14.0 - 2.0));
    }

    // The float overload must bin exactly as add(double(v)) would -- the
    // sampling traces store float delays, and their histograms must agree
    // with the double-path histograms built from the same values.
    histogram scalar(0.0, 10.0, 64);
    for (const float v : samples) {
        scalar.add(static_cast<double>(v));
    }
    histogram bulk(0.0, 10.0, 64);
    bulk.add(std::span<const float>(samples));

    EXPECT_EQ(bulk.total(), scalar.total());
    for (std::size_t i = 0; i < scalar.bin_count(); ++i) {
        EXPECT_EQ(bulk.count_at(i), scalar.count_at(i)) << "bin " << i;
    }
}

TEST(histogram, add_past_32_bit_total_throws_and_counts_nothing)
{
    // Bins are 32-bit, so a histogram holds at most 2^32 - 1 samples. The
    // bulk adds check the total once, before binning: a span of 2^32
    // samples throws without reading one. The span views a read-only
    // mapping that reserves address space only (never touched).
    constexpr std::size_t too_many = std::size_t{1} << 32;
    const std::size_t bytes = too_many * sizeof(float);
    void* const mapping = ::mmap(nullptr, bytes, PROT_READ,
                                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (mapping == MAP_FAILED) {
        GTEST_SKIP() << "cannot reserve 16 GiB of address space";
    }
    histogram h(0.0, 1.0, 4);
    h.add(0.5);
    const std::span<const float> huge(static_cast<const float*>(mapping), too_many);
    EXPECT_THROW(h.add(huge), std::length_error);
    EXPECT_THROW(h.add(huge.first(too_many - 1)), std::length_error); // 1 + (2^32 - 1)
    EXPECT_EQ(h.total(), 1u);
    EXPECT_EQ(h.count_at(2), 1u);
    ::munmap(mapping, bytes);
}

TEST(integer_histogram, mean_of_known_data)
{
    integer_histogram h(8);
    h.add(2);
    h.add(4);
    h.add(6);
    EXPECT_DOUBLE_EQ(h.mean(), 4.0);
}

TEST(integer_histogram, normalized_masses)
{
    integer_histogram h(2);
    h.add(0);
    h.add(0);
    h.add(2);
    h.add(2);
    const auto mass = h.normalized();
    EXPECT_DOUBLE_EQ(mass[0], 0.5);
    EXPECT_DOUBLE_EQ(mass[1], 0.0);
    EXPECT_DOUBLE_EQ(mass[2], 0.5);
}

} // namespace
