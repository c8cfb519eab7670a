// program_artifacts.h -- stage-independent products of the characterization
// pipeline.
//
// The staged pipeline factors Fig. 5.8's cross-layer characterization into
// two explicit phases with a shareable intermediate:
//
//   workload profile --(generate)--> program trace --(profile)--> arch
//   profiles == program_artifacts --(per-stage timing sim)--> stage
//   characterization --(error models, config space)--> policy evaluation
//
// Everything in program_artifacts depends only on (benchmark, thread count,
// seed, core config) -- experiment_config::workload_digest() -- and NOT on
// the pipe stage, histogram knobs, energy parameters, or voltage spread. One
// artifact set therefore feeds the characterization of all three pipe
// stages; the runtime's experiment_cache keys a dedicated tier on
// (benchmark, workload_digest) so the trace is generated and the
// architectural profiler run exactly once per workload.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "arch/multicore.h"
#include "arch/trace.h"
#include "workload/registry.h"

namespace synts::core {

/// Digest over exactly the knobs that determine program artifacts: thread
/// count, seed, and every core-model field. The single source of truth --
/// experiment_config::workload_digest() and make_program_artifacts both
/// delegate here, so producer stamps and consumer checks can never drift.
[[nodiscard]] std::uint64_t workload_digest(std::size_t thread_count, std::uint64_t seed,
                                            const arch::core_config& core) noexcept;

/// Stage-independent artifacts of one characterized program: the generated
/// trace plus the per-thread architectural profiles, with the workload knobs
/// they were produced from as provenance.
struct program_artifacts {
    /// Registry identity of the producing workload (see workload/registry.h);
    /// the key's 64-bit id -- not an enum ordinal -- is what every cache
    /// tier keys on.
    workload::workload_key workload;
    std::size_t thread_count = 0;
    std::uint64_t seed = 0;
    /// workload_digest(thread_count, seed, core) of the producing run; 0
    /// when the artifacts were built from an external trace whose
    /// provenance is unknown. benchmark_experiment refuses artifacts whose
    /// digest disagrees with its config, so a core-model or seed mismatch
    /// cannot silently attribute results to the wrong workload.
    std::uint64_t workload_digest = 0;
    arch::program_trace trace;
    /// [thread][interval], aligned with `trace`.
    std::vector<arch::thread_profile> arch_profiles;

    /// Shared barrier-interval count (0 for an empty program).
    [[nodiscard]] std::size_t interval_count() const noexcept
    {
        return trace.interval_count();
    }

    /// Structural checks: the trace validates and the profiles align with it
    /// (same thread count, same interval count per thread). Throws
    /// std::logic_error on violation.
    void validate() const;
};

} // namespace synts::core
