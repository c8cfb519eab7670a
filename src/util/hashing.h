// hashing.h -- stable 64-bit digests for configuration structs.
//
// The runtime's experiment cache keys on (benchmark, stage, config digest):
// two experiment_configs with the same digest are treated as producing the
// same characterization. Digests therefore fold in every field that can
// change a result, use a fixed byte order (doubles through their IEEE-754
// bit pattern), and are independent of the standard library's unspecified
// std::hash. FNV-1a is enough: keys are tiny and collisions only cost a
// wrongly shared cache slot across *deliberately different* configs, which
// the 64-bit space makes vanishingly unlikely.

#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <string_view>
#include <type_traits>

namespace synts::util {

/// Incremental FNV-1a 64-bit hasher with typed feed helpers.
class digest_builder {
public:
    /// Feeds one raw byte.
    void byte(std::uint8_t b) noexcept
    {
        state_ ^= b;
        state_ *= 0x100000001B3ull;
    }

    /// Feeds an unsigned 64-bit value, little-endian.
    void u64(std::uint64_t v) noexcept
    {
        for (int i = 0; i < 8; ++i) {
            byte(static_cast<std::uint8_t>(v >> (8 * i)));
        }
    }

    /// Feeds any integral or enum value (sign-extended to 64 bits).
    template <typename T>
        requires(std::is_integral_v<T> || std::is_enum_v<T>)
    void value(T v) noexcept
    {
        u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
    }

    /// Feeds a double through its bit pattern (so -0.0 != 0.0, and NaNs of
    /// different payloads differ -- exactness beats prettiness for keys).
    void value(double v) noexcept { u64(std::bit_cast<std::uint64_t>(v)); }

    /// Feeds a span of doubles, length-prefixed.
    void values(std::span<const double> vs) noexcept
    {
        u64(vs.size());
        for (const double v : vs) {
            value(v);
        }
    }

    /// Feeds a string, length-prefixed.
    void text(std::string_view s) noexcept
    {
        u64(s.size());
        for (const char c : s) {
            byte(static_cast<std::uint8_t>(c));
        }
    }

    /// The digest so far.
    [[nodiscard]] std::uint64_t digest() const noexcept { return state_; }

private:
    std::uint64_t state_ = 0xCBF29CE484222325ull; // FNV offset basis
};

/// splitmix64-style avalanche: combines two 64-bit values into one with all
/// input bits influencing all output bits (used for striping counters
/// and deriving per-task RNG seeds).
[[nodiscard]] constexpr std::uint64_t hash_mix(std::uint64_t a, std::uint64_t b) noexcept
{
    std::uint64_t z = a + 0x9E3779B97F4A7C15ull + (b << 6) + (b >> 2);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

} // namespace synts::util
