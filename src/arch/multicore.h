// multicore.h -- M-core barrier-synchronized execution profiling.
//
// The profiler runs each thread's trace through its own in-order core and
// produces, per barrier interval, the two architectural quantities the
// SynTS model needs: the instruction count N_i and the error-free CPI_base_i
// (Eqs. 4.1-4.3). The barrier-timeline helper turns per-thread interval
// times into the barrier execution time (Eq. 4.2: the max over threads) and
// the idle slack the motivational example of Fig. 3.6 exploits.

#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "arch/pipeline.h"
#include "arch/trace.h"
#include "util/parallel.h"

namespace synts::arch {

/// Architectural profile of one thread in one barrier interval.
struct interval_profile {
    std::uint64_t instruction_count = 0; ///< N_i
    std::uint64_t base_cycles = 0;       ///< error-free cycles
    double cpi_base = 0.0;               ///< CPI_base_i
    double dcache_miss_rate = 0.0;
    double branch_misprediction_rate = 0.0;

    friend bool operator==(const interval_profile&, const interval_profile&) = default;
};

/// Per-thread sequence of interval profiles.
using thread_profile = std::vector<interval_profile>;

/// Profiles an entire program trace on M cores (one thread per core).
class multicore_profiler {
public:
    /// One core per thread is instantiated lazily from `config`.
    explicit multicore_profiler(const core_config& config);

    /// Runs every thread's full trace; returns profiles indexed
    /// [thread][interval]. Throws std::logic_error if the program trace is
    /// inconsistent. Each thread runs on its own core instance whose cache
    /// and predictor state persists across that thread's intervals, so
    /// threads are mutually independent: `parallel` fans them out without
    /// changing a single count (bit-identical to the serial path).
    [[nodiscard]] std::vector<thread_profile> profile(const program_trace& program,
                                                      const util::parallel_for_fn& parallel = {});

private:
    core_config config_;
};

/// Wall-clock accounting of one barrier interval given each thread's
/// execution time.
struct barrier_timeline {
    std::vector<double> thread_times; ///< per-thread busy time
    double barrier_time = 0.0;        ///< max over threads (Eq. 4.2)
    double total_idle = 0.0;          ///< sum of (barrier_time - thread_time)
    std::size_t critical_thread = 0;  ///< argmax thread
};

/// Computes the barrier timeline for one interval.
[[nodiscard]] barrier_timeline compute_barrier_timeline(std::span<const double> thread_times);

} // namespace synts::arch
