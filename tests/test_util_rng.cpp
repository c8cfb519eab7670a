// Tests for util/rng: determinism, distribution sanity, stream splitting,
// and the precomputed-bound draws that must match uniform_below and
// discrete draw for draw.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "util/rng.h"
#include "util/statistics.h"

namespace {

using synts::util::bounded_draw;
using synts::util::discrete_total;
using synts::util::xoshiro256;

TEST(rng, deterministic_for_equal_seeds)
{
    xoshiro256 a(123);
    xoshiro256 b(123);
    for (int i = 0; i < 1000; ++i) {
        ASSERT_EQ(a(), b());
    }
}

TEST(rng, different_seeds_differ)
{
    xoshiro256 a(1);
    xoshiro256 b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i) {
        if (a() == b()) {
            ++equal;
        }
    }
    EXPECT_LT(equal, 3);
}

TEST(rng, uniform_is_in_unit_interval)
{
    xoshiro256 rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
    }
}

TEST(rng, uniform_mean_near_half)
{
    xoshiro256 rng(11);
    synts::util::running_stats stats;
    for (int i = 0; i < 100000; ++i) {
        stats.add(rng.uniform());
    }
    EXPECT_NEAR(stats.mean(), 0.5, 0.01);
    EXPECT_NEAR(stats.variance(), 1.0 / 12.0, 0.01);
}

TEST(rng, uniform_below_respects_bound)
{
    xoshiro256 rng(3);
    for (int i = 0; i < 10000; ++i) {
        ASSERT_LT(rng.uniform_below(17), 17u);
    }
}

TEST(rng, uniform_below_covers_support)
{
    xoshiro256 rng(5);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        seen.insert(rng.uniform_below(8));
    }
    EXPECT_EQ(seen.size(), 8u);
}

TEST(rng, uniform_int_inclusive_bounds)
{
    xoshiro256 rng(9);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 20000; ++i) {
        const auto v = rng.uniform_int(-3, 3);
        ASSERT_GE(v, -3);
        ASSERT_LE(v, 3);
        saw_lo = saw_lo || v == -3;
        saw_hi = saw_hi || v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(rng, bernoulli_edge_cases)
{
    xoshiro256 rng(1);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.bernoulli(0.0));
        EXPECT_TRUE(rng.bernoulli(1.0));
        EXPECT_FALSE(rng.bernoulli(-0.5));
        EXPECT_TRUE(rng.bernoulli(1.5));
    }
}

TEST(rng, bernoulli_frequency_matches_probability)
{
    xoshiro256 rng(13);
    const int n = 200000;
    int hits = 0;
    for (int i = 0; i < n; ++i) {
        hits += rng.bernoulli(0.3) ? 1 : 0;
    }
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(rng, normal_moments)
{
    xoshiro256 rng(17);
    synts::util::running_stats stats;
    for (int i = 0; i < 200000; ++i) {
        stats.add(rng.normal(2.0, 3.0));
    }
    EXPECT_NEAR(stats.mean(), 2.0, 0.05);
    EXPECT_NEAR(stats.stddev(), 3.0, 0.05);
}

TEST(rng, exponential_mean)
{
    xoshiro256 rng(19);
    synts::util::running_stats stats;
    for (int i = 0; i < 100000; ++i) {
        stats.add(rng.exponential(4.0));
    }
    EXPECT_NEAR(stats.mean(), 0.25, 0.01);
}

TEST(rng, geometric_mean)
{
    xoshiro256 rng(23);
    synts::util::running_stats stats;
    for (int i = 0; i < 100000; ++i) {
        stats.add(static_cast<double>(rng.geometric(0.25)));
    }
    // Mean failures before success: (1 - p) / p = 3.
    EXPECT_NEAR(stats.mean(), 3.0, 0.1);
}

TEST(rng, discrete_respects_weights)
{
    xoshiro256 rng(29);
    const std::array<double, 3> weights = {1.0, 0.0, 3.0};
    std::array<int, 3> counts{};
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        ++counts[rng.discrete(weights)];
    }
    EXPECT_EQ(counts[1], 0);
    EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.25, 0.01);
    EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.01);
}

TEST(rng, bounded_draw_equals_uniform_below)
{
    // Same threshold, same draws, same remainders: two generators on one
    // seed stay in lockstep, draw for draw, at every bound shape -- 1,
    // powers of two, small odd and even bounds, and bounds above 2^63,
    // where most draws are rejected.
    for (const std::uint64_t n :
         {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{3}, std::uint64_t{7},
          std::uint64_t{12}, std::uint64_t{16}, std::uint64_t{1} << 20,
          std::uint64_t{3} << 20, (std::uint64_t{1} << 63) + 1, ~std::uint64_t{0}}) {
        xoshiro256 a(n ^ 0x51ED);
        xoshiro256 b(n ^ 0x51ED);
        const bounded_draw draw(n);
        for (int i = 0; i < 100000; ++i) {
            ASSERT_EQ(draw(b), a.uniform_below(n)) << "n " << n << " draw " << i;
        }
        ASSERT_EQ(a(), b()) << "n " << n;
    }
}

TEST(rng, discrete_with_precomputed_total_draws_the_same_index)
{
    const std::vector<double> weights = {0.5, 0.0, -1.0, 2.25, 1e-3, 7.0};
    const double total = discrete_total(weights);
    xoshiro256 a(9);
    xoshiro256 b(9);
    for (int i = 0; i < 10000; ++i) {
        ASSERT_EQ(b.discrete(weights, total), a.discrete(weights));
    }
}

TEST(rng, split_streams_are_decorrelated)
{
    xoshiro256 root(31);
    xoshiro256 a = root.split(0);
    xoshiro256 b = root.split(1);
    std::vector<double> xs;
    std::vector<double> ys;
    for (int i = 0; i < 10000; ++i) {
        xs.push_back(a.uniform());
        ys.push_back(b.uniform());
    }
    EXPECT_LT(std::abs(synts::util::pearson_correlation(xs, ys)), 0.05);
}

TEST(rng, random_permutation_is_permutation)
{
    xoshiro256 rng(37);
    std::vector<std::size_t> perm(50);
    synts::util::random_permutation(rng, perm);
    std::vector<std::size_t> sorted = perm;
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 0; i < sorted.size(); ++i) {
        ASSERT_EQ(sorted[i], i);
    }
}

TEST(rng, sample_without_replacement_unique_and_in_range)
{
    xoshiro256 rng(41);
    for (int round = 0; round < 100; ++round) {
        const auto sample = synts::util::sample_without_replacement(rng, 20, 7);
        ASSERT_EQ(sample.size(), 7u);
        std::set<std::size_t> unique(sample.begin(), sample.end());
        ASSERT_EQ(unique.size(), 7u);
        for (const auto v : sample) {
            ASSERT_LT(v, 20u);
        }
    }
}

class rng_seed_sweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(rng_seed_sweep, jump_produces_disjoint_stream)
{
    xoshiro256 a(GetParam());
    xoshiro256 b = a;
    b.jump();
    int equal = 0;
    for (int i = 0; i < 1000; ++i) {
        if (a() == b()) {
            ++equal;
        }
    }
    EXPECT_LT(equal, 3);
}

TEST_P(rng_seed_sweep, uniform_below_unbiased_small_modulus)
{
    xoshiro256 rng(GetParam());
    std::array<int, 5> counts{};
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        ++counts[rng.uniform_below(5)];
    }
    for (const int c : counts) {
        EXPECT_NEAR(static_cast<double>(c) / n, 0.2, 0.02);
    }
}

INSTANTIATE_TEST_SUITE_P(seeds, rng_seed_sweep,
                         ::testing::Values(1ull, 42ull, 1234567ull, 0xDEADBEEFull,
                                           0xFFFFFFFFFFFFFFFFull));

} // namespace
