// cache.h -- set-associative LRU cache simulator.
//
// Supplies the architectural performance model with realistic,
// address-stream-dependent miss behavior; per-thread differences in miss
// rates are one of the sources of CPI_base heterogeneity across threads.

#pragma once

#include <cstdint>
#include <vector>

namespace synts::arch {

/// Geometry and penalty parameters of one cache level.
struct cache_config {
    std::uint64_t size_bytes = 32 * 1024;
    std::uint64_t line_bytes = 64;
    std::uint32_t ways = 4;
    std::uint32_t hit_latency_cycles = 1;
    std::uint32_t miss_penalty_cycles = 24;
};

/// Hit/miss counters of a cache instance.
struct cache_counts {
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;

    /// misses / accesses (0 when idle).
    [[nodiscard]] double miss_rate() const noexcept
    {
        return accesses == 0 ? 0.0
                             : static_cast<double>(misses) / static_cast<double>(accesses);
    }
};

/// Single-level, set-associative, true-LRU cache.
class cache_sim {
public:
    /// Builds the cache; throws std::invalid_argument when the geometry is
    /// not a power-of-two / divisible combination.
    explicit cache_sim(const cache_config& config);

    /// Performs one access; returns the latency in cycles (hit latency, or
    /// hit latency + miss penalty).
    std::uint32_t access(std::uint64_t address) noexcept;

    /// True if the address would hit right now (no state change).
    [[nodiscard]] bool would_hit(std::uint64_t address) const noexcept;

    /// Statistics so far.
    [[nodiscard]] const cache_counts& stats() const noexcept { return stats_; }

    /// Clears contents and statistics.
    void reset() noexcept;

    /// Geometry in use.
    [[nodiscard]] const cache_config& config() const noexcept { return config_; }

private:
    struct line {
        std::uint64_t tag = 0;
        std::uint64_t last_use = 0;
        bool valid = false;
    };

    cache_config config_;
    std::vector<line> lines_; ///< sets * ways, row-major by set
    std::uint64_t set_count_ = 0;
    unsigned line_shift_ = 0; ///< log2(line_bytes)
    unsigned set_shift_ = 0;  ///< log2(set_count_)
    std::uint64_t access_clock_ = 0;
    cache_counts stats_;
};

} // namespace synts::arch
