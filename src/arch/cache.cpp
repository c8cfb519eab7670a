#include "arch/cache.h"

#include <bit>
#include <stdexcept>

namespace synts::arch {

namespace {

[[nodiscard]] constexpr bool is_power_of_two(std::uint64_t x) noexcept
{
    return x != 0 && (x & (x - 1)) == 0;
}

} // namespace

cache_sim::cache_sim(const cache_config& config)
    : config_(config)
{
    if (config_.line_bytes == 0 || !is_power_of_two(config_.line_bytes)) {
        throw std::invalid_argument("cache_sim: line size must be a power of two");
    }
    if (config_.ways == 0) {
        throw std::invalid_argument("cache_sim: ways must be >= 1");
    }
    const std::uint64_t lines_total = config_.size_bytes / config_.line_bytes;
    if (lines_total == 0 || lines_total % config_.ways != 0) {
        throw std::invalid_argument("cache_sim: size/line/ways geometry invalid");
    }
    set_count_ = lines_total / config_.ways;
    if (!is_power_of_two(set_count_)) {
        throw std::invalid_argument("cache_sim: set count must be a power of two");
    }
    // Both are powers of two, so the address split is two shifts.
    line_shift_ = static_cast<unsigned>(std::countr_zero(config_.line_bytes));
    set_shift_ = static_cast<unsigned>(std::countr_zero(set_count_));
    lines_.assign(lines_total, line{});
}

std::uint32_t cache_sim::access(std::uint64_t address) noexcept
{
    ++stats_.accesses;
    ++access_clock_;

    const std::uint64_t line_addr = address >> line_shift_;
    const std::uint64_t set = line_addr & (set_count_ - 1);
    const std::uint64_t tag = line_addr >> set_shift_;
    line* const set_base = &lines_[set * config_.ways];

    line* victim = set_base;
    for (std::uint32_t w = 0; w < config_.ways; ++w) {
        line& entry = set_base[w];
        if (entry.valid && entry.tag == tag) {
            entry.last_use = access_clock_;
            return config_.hit_latency_cycles;
        }
        if (!entry.valid) {
            victim = &entry;
        } else if (victim->valid && entry.last_use < victim->last_use) {
            victim = &entry;
        }
    }

    ++stats_.misses;
    victim->valid = true;
    victim->tag = tag;
    victim->last_use = access_clock_;
    return config_.hit_latency_cycles + config_.miss_penalty_cycles;
}

bool cache_sim::would_hit(std::uint64_t address) const noexcept
{
    const std::uint64_t line_addr = address >> line_shift_;
    const std::uint64_t set = line_addr & (set_count_ - 1);
    const std::uint64_t tag = line_addr >> set_shift_;
    const line* const set_base = &lines_[set * config_.ways];
    for (std::uint32_t w = 0; w < config_.ways; ++w) {
        if (set_base[w].valid && set_base[w].tag == tag) {
            return true;
        }
    }
    return false;
}

void cache_sim::reset() noexcept
{
    for (auto& entry : lines_) {
        entry = line{};
    }
    access_clock_ = 0;
    stats_ = cache_counts{};
}

} // namespace synts::arch
