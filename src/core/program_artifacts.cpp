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

program_characterizer::program_characterizer(arch::core_config core) : core_(core) {}

program_artifacts program_characterizer::characterize(
    const workload::workload_key& key, std::size_t thread_count, std::uint64_t seed,
    const util::parallel_for_fn& parallel) const
{
    const workload::benchmark_profile profile =
        workload::workload_registry::global().make_profile(key, thread_count);

    program_artifacts artifacts;
    artifacts.workload = key;
    artifacts.thread_count = thread_count;
    artifacts.seed = seed;
    artifacts.workload_digest = core::workload_digest(thread_count, seed, core_);
    artifacts.trace = workload::generate_program_trace(profile, seed, parallel);

    arch::multicore_profiler profiler(core_);
    artifacts.arch_profiles = profiler.profile(artifacts.trace, parallel);
    return artifacts;
}

program_artifacts
program_characterizer::characterize_trace(arch::program_trace trace,
                                          const util::parallel_for_fn& parallel) const
{
    program_artifacts artifacts;
    artifacts.thread_count = trace.thread_count();
    artifacts.trace = std::move(trace);

    arch::multicore_profiler profiler(core_);
    artifacts.arch_profiles = profiler.profile(artifacts.trace, parallel);
    return artifacts;
}

} // namespace synts::core
