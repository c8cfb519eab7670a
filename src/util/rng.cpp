#include "util/rng.h"

#include <cmath>
#include <numbers>

namespace synts::util {

std::uint64_t splitmix64_next(std::uint64_t& state) noexcept
{
    state += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

xoshiro256::xoshiro256(std::uint64_t seed) noexcept
{
    std::uint64_t sm = seed;
    for (auto& word : state_) {
        word = splitmix64_next(sm);
    }
    // An all-zero state is the one invalid state for xoshiro256**.
    if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) {
        state_[0] = 0x9E3779B97F4A7C15ull;
    }
}

double xoshiro256::normal() noexcept
{
    if (has_spare_normal_) {
        has_spare_normal_ = false;
        return spare_normal_;
    }
    double u1 = uniform();
    while (u1 <= 0.0) {
        u1 = uniform();
    }
    const double u2 = uniform();
    const double radius = std::sqrt(-2.0 * std::log(u1));
    const double angle = 2.0 * std::numbers::pi * u2;
    spare_normal_ = radius * std::sin(angle);
    has_spare_normal_ = true;
    return radius * std::cos(angle);
}

double xoshiro256::normal(double mean, double stddev) noexcept
{
    return mean + stddev * normal();
}

double xoshiro256::exponential(double lambda) noexcept
{
    double u = uniform();
    while (u <= 0.0) {
        u = uniform();
    }
    return -std::log(u) / lambda;
}

std::uint64_t xoshiro256::geometric(double p) noexcept
{
    if (p >= 1.0) {
        return 0;
    }
    double u = uniform();
    while (u <= 0.0) {
        u = uniform();
    }
    return static_cast<std::uint64_t>(std::floor(std::log(u) / std::log1p(-p)));
}

xoshiro256 xoshiro256::split(std::uint64_t stream_tag) noexcept
{
    std::uint64_t sm = (*this)() ^ (stream_tag * 0xD1B54A32D192ED03ull + 0x2545F4914F6CDD1Dull);
    return xoshiro256{splitmix64_next(sm)};
}

void xoshiro256::jump() noexcept
{
    static constexpr std::array<std::uint64_t, 4> jump_words = {
        0x180EC6D33CFD0ABAull, 0xD5A61266F0C9392Cull, 0xA9582618E03FC9AAull,
        0x39ABDC4529B1661Cull};

    std::array<std::uint64_t, 4> accumulated{};
    for (const std::uint64_t word : jump_words) {
        for (int bit = 0; bit < 64; ++bit) {
            if (word & (1ull << bit)) {
                for (std::size_t i = 0; i < 4; ++i) {
                    accumulated[i] ^= state_[i];
                }
            }
            (void)(*this)();
        }
    }
    state_ = accumulated;
}

void random_permutation(xoshiro256& rng, std::span<std::size_t> out) noexcept
{
    for (std::size_t i = 0; i < out.size(); ++i) {
        out[i] = i;
    }
    for (std::size_t i = out.size(); i > 1; --i) {
        const std::size_t j = rng.uniform_below(i);
        std::swap(out[i - 1], out[j]);
    }
}

std::vector<std::size_t> sample_without_replacement(xoshiro256& rng, std::size_t population,
                                                    std::size_t count)
{
    // Floyd's algorithm: O(count) expected insertions.
    std::vector<std::size_t> chosen;
    chosen.reserve(count);
    for (std::size_t j = population - count; j < population; ++j) {
        const std::size_t t = rng.uniform_below(j + 1);
        bool already = false;
        for (const std::size_t c : chosen) {
            if (c == t) {
                already = true;
                break;
            }
        }
        chosen.push_back(already ? j : t);
    }
    return chosen;
}

} // namespace synts::util
