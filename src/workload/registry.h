// registry.h -- the pluggable workload subsystem.
//
// A closed benchmark_id enum of ten SPLASH-2 profiles would cap every
// downstream layer (cache keys, sweep specs, the runner CLI) at exactly
// those ten programs. This module opens the axis:
//
//   workload_key       a stable identity -- a human-readable registry name
//                      plus a 64-bit digest of (family, parameters). The
//                      digest, not the enum ordinal, is what cache tiers
//                      key on, so the key space is unbounded.
//   workload_registry  name -> profile-factory map. The built-in set is the
//                      ten SPLASH-2 profiles plus two instances of the
//                      lock_ladder family (workload/scenarios.h); callers
//                      may register their own.
//
// Identity rules:
//   * a key's `id` folds the producing family and its full parameter set
//     (never the display name alone), so two distinct (family, params)
//     pairs always digest differently;
//   * the registry rejects duplicate names AND duplicate ids -- one name
//     per workload, one workload per identity. Registering identical
//     params under two names would alias one artifact-cache identity to
//     two entries, so it is refused rather than silently shared.
//
// The built-in SPLASH-2 keys are pure functions of the enum (no registry
// needed), which keeps `benchmark_id -> workload_key` an implicit, lossless
// conversion: every enum-typed call site in the benches, examples and tests
// keeps compiling against the key-typed core APIs.

#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/thread_safety.h"
#include "workload/splash2.h"

namespace synts::workload {

/// Stable identity of a registered workload (see file comment).
struct workload_key {
    std::string name;     ///< registry name, e.g. "Radix" or "lock_ladder"
    std::uint64_t id = 0; ///< digest of (family, params) -- the cache identity

    workload_key() = default;
    workload_key(std::string name, std::uint64_t id)
        : name(std::move(name)), id(id)
    {
    }
    /// Implicit on purpose: the built-in ten keep their enum spelling at
    /// every call site (benches, examples, tests) while the core APIs are
    /// key-typed. Equivalent to builtin_key(benchmark).
    workload_key(benchmark_id benchmark); // NOLINT(google-explicit-constructor)

    friend bool operator==(const workload_key&, const workload_key&) = default;
};

/// Prints "name#idhex" (gtest failure messages, diagnostics).
std::ostream& operator<<(std::ostream& out, const workload_key& key);

/// The key of a built-in SPLASH-2 benchmark: name = benchmark_name(id),
/// id = digest("splash2", ordinal). Pure function, stable across runs.
[[nodiscard]] workload_key builtin_key(benchmark_id id);

/// Builds the concrete profile of a workload for `thread_count` threads.
/// Must be deterministic: equal (factory, thread_count) -> equal profile.
using profile_factory = std::function<benchmark_profile(std::size_t thread_count)>;

/// Thread-safe name -> factory map (see file comment for identity rules).
/// All members may be called concurrently; registration is expected to
/// happen up front, but late registration is safe too.
class workload_registry {
public:
    workload_registry() = default;

    workload_registry(const workload_registry& other);
    workload_registry& operator=(const workload_registry&) = delete;

    /// Registers `factory` under `key`. Throws std::invalid_argument when
    /// the name or the id is already taken, or when name is empty /
    /// factory is null.
    void add(workload_key key, profile_factory factory);

    /// True when `name` is registered.
    [[nodiscard]] bool contains(std::string_view name) const;

    /// The key registered under `name`; throws std::out_of_range with the
    /// offending name when unknown.
    [[nodiscard]] workload_key key(std::string_view name) const;

    /// The profile of `key` for `thread_count` threads. Looks the factory
    /// up by key.id; throws std::out_of_range when no workload with that
    /// identity is registered (an unknown key must never silently map to
    /// some other workload's profile).
    [[nodiscard]] benchmark_profile make_profile(const workload_key& key,
                                                 std::size_t thread_count) const;

    /// Every registered key, in registration order (stable, so CLI listings
    /// and tests are deterministic).
    [[nodiscard]] std::vector<workload_key> keys() const;

    /// Number of registered workloads.
    [[nodiscard]] std::size_t size() const;

    /// A fresh registry holding the built-in set: the ten SPLASH-2 profiles,
    /// then lock_ladder and lock_ladder_heavy (workload/scenarios.h). Use
    /// for isolated tests.
    [[nodiscard]] static workload_registry with_builtins();

    /// The process-wide registry the characterization pipeline resolves
    /// keys against. Starts as with_builtins(); callers may add() more.
    [[nodiscard]] static workload_registry& global();

private:
    struct entry {
        workload_key key;
        profile_factory factory;
    };

    /// A leaf lock held only for map access -- factories are copied out and
    /// invoked unlocked.
    mutable util::annotated_mutex mutex_;
    std::vector<entry> entries_ SYNTS_GUARDED_BY(mutex_);   ///< registration order
    std::unordered_map<std::string, std::size_t> by_name_
        SYNTS_GUARDED_BY(mutex_);                           ///< name -> entries_ index
    std::unordered_map<std::uint64_t, std::size_t> by_id_
        SYNTS_GUARDED_BY(mutex_);                           ///< id -> entries_ index
};

} // namespace synts::workload
