// rng.h -- deterministic pseudo-random number generation for simulations.
//
// All stochastic components of the SynTS reproduction (workload operand
// streams, Razor error injection, sampling-phase estimation noise) draw from
// the xoshiro256** engine below so that every experiment is reproducible
// from a single 64-bit seed. The engine is seeded through splitmix64, the
// recommended seeding procedure for the xoshiro family.

#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace synts::util {

/// Stateless splitmix64 step: advances `state` and returns the next value.
/// Used both as a seed expander and as a cheap hash for stream splitting.
[[nodiscard]] std::uint64_t splitmix64_next(std::uint64_t& state) noexcept;

/// xoshiro256** 1.0 -- fast, high-quality 64-bit PRNG (Blackman/Vigna).
///
/// Satisfies the C++ UniformRandomBitGenerator concept so it can be used
/// with <random> distributions, although the convenience members below are
/// preferred inside the library to keep behavior identical across standard
/// library implementations.
class xoshiro256 {
public:
    using result_type = std::uint64_t;

    /// Constructs the generator from a single 64-bit seed via splitmix64.
    explicit xoshiro256(std::uint64_t seed = 0x9E3779B97F4A7C15ull) noexcept;

    /// Smallest value produced (UniformRandomBitGenerator requirement).
    [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
    /// Largest value produced (UniformRandomBitGenerator requirement).
    [[nodiscard]] static constexpr result_type max() noexcept
    {
        return std::numeric_limits<result_type>::max();
    }

    // The draws the workload generator makes per micro-op (operator(),
    // uniform, uniform_below, bernoulli, discrete) are defined inline below
    // the class, so its loops call no library function per draw.

    /// Next raw 64-bit draw.
    result_type operator()() noexcept;

    /// Uniform double in [0, 1) with 53 bits of randomness.
    [[nodiscard]] double uniform() noexcept;

    /// Uniform double in [lo, hi).
    [[nodiscard]] double uniform(double lo, double hi) noexcept;

    /// Uniform integer in [0, n). Requires n > 0. Uses rejection sampling to
    /// avoid modulo bias.
    [[nodiscard]] std::uint64_t uniform_below(std::uint64_t n) noexcept;

    /// Uniform integer in the inclusive range [lo, hi].
    [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

    /// Bernoulli draw with success probability p (clamped to [0, 1]).
    [[nodiscard]] bool bernoulli(double p) noexcept;

    /// Standard normal draw (Box-Muller; one value per call, spare cached).
    [[nodiscard]] double normal() noexcept;

    /// Normal draw with the given mean and standard deviation.
    [[nodiscard]] double normal(double mean, double stddev) noexcept;

    /// Exponential draw with the given rate lambda (> 0).
    [[nodiscard]] double exponential(double lambda) noexcept;

    /// Geometric number of failures before first success, p in (0, 1].
    [[nodiscard]] std::uint64_t geometric(double p) noexcept;

    /// Index drawn from the (unnormalized, non-negative) weight vector.
    /// Requires at least one strictly positive weight.
    [[nodiscard]] std::size_t discrete(std::span<const double> weights) noexcept;

    /// discrete(weights) with the weight total precomputed as
    /// discrete_total(weights): the same draw and the same index.
    [[nodiscard]] std::size_t discrete(std::span<const double> weights, double total) noexcept;

    /// Creates an independent generator for a named substream, so parallel
    /// entities (threads, lanes, benchmarks) can be given decorrelated but
    /// reproducible randomness derived from one experiment seed.
    [[nodiscard]] xoshiro256 split(std::uint64_t stream_tag) noexcept;

    /// Jump function: advances the state by 2^128 draws.
    void jump() noexcept;

private:
    std::array<std::uint64_t, 4> state_{};
    double spare_normal_ = 0.0;
    bool has_spare_normal_ = false;
};

inline xoshiro256::result_type xoshiro256::operator()() noexcept
{
    const std::uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;

    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = std::rotl(state_[3], 45);

    return result;
}

inline double xoshiro256::uniform() noexcept
{
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

inline double xoshiro256::uniform(double lo, double hi) noexcept
{
    return lo + (hi - lo) * uniform();
}

inline std::uint64_t xoshiro256::uniform_below(std::uint64_t n) noexcept
{
    // Lemire-style rejection to remove modulo bias.
    const std::uint64_t threshold = (0 - n) % n;
    for (;;) {
        const std::uint64_t r = (*this)();
        if (r >= threshold) {
            return r % n;
        }
    }
}

inline std::int64_t xoshiro256::uniform_int(std::int64_t lo, std::int64_t hi) noexcept
{
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(uniform_below(span));
}

inline bool xoshiro256::bernoulli(double p) noexcept
{
    if (p <= 0.0) {
        return false;
    }
    if (p >= 1.0) {
        return true;
    }
    return uniform() < p;
}

/// The sum of the strictly positive weights, in index order: what
/// xoshiro256::discrete scales its draw by.
[[nodiscard]] inline double discrete_total(std::span<const double> weights) noexcept
{
    double total = 0.0;
    for (const double w : weights) {
        if (w > 0.0) {
            total += w;
        }
    }
    return total;
}

inline std::size_t xoshiro256::discrete(std::span<const double> weights) noexcept
{
    return discrete(weights, discrete_total(weights));
}

inline std::size_t xoshiro256::discrete(std::span<const double> weights,
                                        double total) noexcept
{
    double pick = uniform() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        const double w = weights[i] > 0.0 ? weights[i] : 0.0;
        if (pick < w) {
            return i;
        }
        pick -= w;
    }
    // Floating point slack: return the last positive-weight index.
    for (std::size_t i = weights.size(); i-- > 0;) {
        if (weights[i] > 0.0) {
            return i;
        }
    }
    return 0;
}

/// xoshiro256::uniform_below(n) for one fixed n, with its rejection
/// threshold computed once: the same draws and the same results, one
/// integer division per draw instead of two.
class bounded_draw {
public:
    /// Requires n > 0.
    explicit bounded_draw(std::uint64_t n) noexcept : n_(n), threshold_((0 - n) % n) {}

    /// rng.uniform_below(n), draw for draw.
    [[nodiscard]] std::uint64_t operator()(xoshiro256& rng) const noexcept
    {
        for (;;) {
            const std::uint64_t r = rng();
            if (r >= threshold_) {
                return r % n_;
            }
        }
    }

private:
    std::uint64_t n_;
    std::uint64_t threshold_;
};

/// Fills `out` with a random permutation of [0, out.size()) (Fisher-Yates).
void random_permutation(xoshiro256& rng, std::span<std::size_t> out) noexcept;

/// Returns `count` samples drawn without replacement from [0, population).
/// Requires count <= population.
[[nodiscard]] std::vector<std::size_t> sample_without_replacement(xoshiro256& rng,
                                                                  std::size_t population,
                                                                  std::size_t count);

} // namespace synts::util
