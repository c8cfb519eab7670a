// pipeline.h -- cycle-level in-order core model.
//
// This is the performance half of the gem5 substitute: it turns a micro-op
// stream into a cycle count (and thus CPI_base, the error-free clocks per
// instruction of Eq. 4.1) using a 5-stage in-order pipeline abstraction with
// a data cache, a branch predictor, and multi-cycle functional units.

#pragma once

#include <cstdint>
#include <span>

#include "arch/branch_predictor.h"
#include "arch/cache.h"
#include "arch/isa.h"

namespace synts::arch {

/// Static latency/penalty parameters of the core.
struct core_config {
    cache_config dcache{};
    std::uint32_t branch_mispredict_penalty = 8;
    std::uint32_t mul_latency_cycles = 3; ///< extra cycles beyond 1 for int_mul
    std::uint32_t fp_latency_cycles = 2;  ///< extra cycles beyond 1 for fp
    std::uint32_t predictor_index_bits = 12;
};

/// Cycle accounting of one pipeline run.
struct exec_stats {
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    std::uint64_t dcache_miss_cycles = 0;
    std::uint64_t branch_penalty_cycles = 0;
    std::uint64_t long_op_cycles = 0;

    /// Error-free clocks per instruction.
    [[nodiscard]] double cpi() const noexcept
    {
        return instructions == 0
                   ? 0.0
                   : static_cast<double>(cycles) / static_cast<double>(instructions);
    }
};

/// In-order core: executes micro-op spans and accumulates cycle counts.
/// Stateful across calls (cache and predictor warm up), matching a thread
/// running successive barrier intervals on the same physical core.
class inorder_core {
public:
    /// Builds the core's cache and predictor from `config`.
    explicit inorder_core(const core_config& config);

    /// Executes `ops` and returns the stats for this span only.
    exec_stats execute(std::span<const micro_op> ops);

    /// Lifetime data-cache statistics.
    [[nodiscard]] const cache_counts& dcache_counts() const noexcept
    {
        return dcache_.stats();
    }

    /// Lifetime branch statistics.
    [[nodiscard]] const branch_stats& predictor_stats() const noexcept
    {
        return predictor_.stats();
    }

    /// Cold-resets cache, predictor, and program counter.
    void reset();

private:
    core_config config_;
    cache_sim dcache_;
    gshare_predictor predictor_;
    std::uint64_t pc_ = 0x1000;
};

} // namespace synts::arch
