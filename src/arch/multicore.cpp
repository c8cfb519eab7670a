#include "arch/multicore.h"

namespace synts::arch {

multicore_profiler::multicore_profiler(const core_config& config)
    : config_(config)
{
}

std::vector<thread_profile> multicore_profiler::profile(const program_trace& program,
                                                        const util::parallel_for_fn& parallel)
{
    program.validate();

    std::vector<thread_profile> profiles(program.thread_count());

    util::for_each_index(parallel, program.thread_count(), [&](std::size_t t) {
        const thread_trace& trace = program.threads[t];
        inorder_core core(config_);
        thread_profile profile;
        profile.reserve(trace.interval_count());

        std::uint64_t prior_dcache_accesses = 0;
        std::uint64_t prior_dcache_misses = 0;
        std::uint64_t prior_branches = 0;
        std::uint64_t prior_mispredicts = 0;

        for (std::size_t k = 0; k < trace.interval_count(); ++k) {
            const exec_stats stats = core.execute(trace.interval(k));

            interval_profile p;
            p.instruction_count = stats.instructions;
            p.base_cycles = stats.cycles;
            p.cpi_base = stats.cpi();

            const auto& dc = core.dcache_counts();
            const std::uint64_t accesses = dc.accesses - prior_dcache_accesses;
            const std::uint64_t misses = dc.misses - prior_dcache_misses;
            p.dcache_miss_rate =
                accesses == 0 ? 0.0
                              : static_cast<double>(misses) / static_cast<double>(accesses);
            prior_dcache_accesses = dc.accesses;
            prior_dcache_misses = dc.misses;

            const auto& bp = core.predictor_stats();
            const std::uint64_t branches = bp.branches - prior_branches;
            const std::uint64_t mispredicts = bp.mispredictions - prior_mispredicts;
            p.branch_misprediction_rate =
                branches == 0
                    ? 0.0
                    : static_cast<double>(mispredicts) / static_cast<double>(branches);
            prior_branches = bp.branches;
            prior_mispredicts = bp.mispredictions;

            profile.push_back(p);
        }
        profiles[t] = std::move(profile);
    });
    return profiles;
}

barrier_timeline compute_barrier_timeline(std::span<const double> thread_times)
{
    barrier_timeline timeline;
    timeline.thread_times.assign(thread_times.begin(), thread_times.end());
    for (std::size_t i = 0; i < thread_times.size(); ++i) {
        if (thread_times[i] > timeline.barrier_time) {
            timeline.barrier_time = thread_times[i];
            timeline.critical_thread = i;
        }
    }
    for (const double t : thread_times) {
        timeline.total_idle += timeline.barrier_time - t;
    }
    return timeline;
}

} // namespace synts::arch
