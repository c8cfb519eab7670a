#include "core/program_artifacts.h"

#include <stdexcept>

#include "util/hashing.h"

namespace synts::core {

std::uint64_t workload_digest(std::size_t thread_count, std::uint64_t seed,
                              const arch::core_config& core) noexcept
{
    util::digest_builder h;
    h.value(thread_count);
    h.value(seed);
    h.value(core.dcache.size_bytes);
    h.value(core.dcache.line_bytes);
    h.value(core.dcache.ways);
    h.value(core.dcache.hit_latency_cycles);
    h.value(core.dcache.miss_penalty_cycles);
    h.value(core.branch_mispredict_penalty);
    h.value(core.mul_latency_cycles);
    h.value(core.fp_latency_cycles);
    h.value(core.predictor_index_bits);
    return h.digest();
}

void program_artifacts::validate() const
{
    trace.validate();
    if (arch_profiles.size() != trace.thread_count()) {
        throw std::logic_error("program_artifacts: profile/trace thread count mismatch");
    }
    for (const arch::thread_profile& profile : arch_profiles) {
        if (profile.size() != trace.interval_count()) {
            throw std::logic_error("program_artifacts: profile/trace interval mismatch");
        }
    }
}

} // namespace synts::core
