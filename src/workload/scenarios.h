// scenarios.h -- the lock_ladder scenario family for the workload registry.
//
// The paper's SynTS advantage lives exactly where per-thread timing-error
// behavior is heterogeneous (Radix/FMM vs. the homogeneous FFT trio). The
// ten SPLASH-2 profiles synchronize only at barriers; lock_ladder models
// the other synchronization the paper's future work points at: a lock
// convoy at the workload layer, beside core/critical_sections' lock-aware
// evaluation. The family is a pure function
//
//   params -> benchmark_profile (per-thread characters + imbalance)
//
// so one family yields arbitrarily many concrete registry workloads -- the
// parameter struct, not an enum ordinal, is the identity. The family:
//
//   * digests its full parameter set (params.digest()); the workload_key id
//     folds the family tag + that digest, so distinct params never collide
//     in any cache tier;
//   * salts trace generation with that same identity digest, so two
//     parameterizations produce distinct operand streams even at equal
//     experiment seeds;
//   * is deterministic: equal (params, thread_count, seed) reproduce the
//     profile and the generated trace bit for bit.
//
// register_default_scenarios() installs two calibrated instances (a
// default and a stressed variant); tests register their own instances
// with register_lock_ladder.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "workload/registry.h"
#include "workload/splash2.h"

namespace synts::workload {

// -- lock-contention ladder --------------------------------------------------
// Generalizes core/critical_sections' lock-aware evaluation to the workload
// layer: threads climb a contention ladder -- thread t's share of
// critical-section work rises with its rung -- producing a lock convoy
// whose head (the highest rung) is both the slowest arrival and, through
// shared-counter updates deep in the carry chain, the most error-prone
// thread. That coupling is precisely the slack SynTS harvests.

struct lock_ladder_params {
    /// Number of distinct contention rungs; threads cycle through them
    /// (thread t sits on rung t % rungs, rung rungs-1 is the convoy head).
    std::size_t rungs = 4;
    /// Fraction of a rung-0 thread's work executed under the hot lock.
    double base_contention = 0.10;
    /// Additive contention increase per rung (clamped so contention <= 0.9).
    double contention_step = 0.15;
    /// Critical-section length multiplier: scales how much extra work (and
    /// how much deeper a carry-chain profile) lock holders accumulate.
    double hold_scale = 1.0;
    /// Modeled hot locks; more locks spread the convoy (lower imbalance).
    std::size_t hot_locks = 1;

    /// Digest over every field (the family identity with the tag).
    [[nodiscard]] std::uint64_t digest() const noexcept;
};

/// Key of a lock-ladder instance registered under `name`.
[[nodiscard]] workload_key lock_ladder_key(std::string name,
                                           const lock_ladder_params& params);
/// The concrete profile (pure, deterministic).
[[nodiscard]] benchmark_profile make_lock_ladder_profile(const lock_ladder_params& params,
                                                         std::size_t thread_count);
/// Registers the instance; throws on duplicate name/identity (registry rules).
void register_lock_ladder(workload_registry& registry, std::string name,
                          const lock_ladder_params& params);

// -- default instances -------------------------------------------------------

/// Registers the calibrated default + stressed lock-ladder instances,
/// lock_ladder and lock_ladder_heavy. Called by
/// workload_registry::with_builtins().
void register_default_scenarios(workload_registry& registry);

} // namespace synts::workload
