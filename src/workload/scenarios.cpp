#include "workload/scenarios.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/hashing.h"
#include "workload/registry.h"

namespace synts::workload {

namespace {

/// Identity digest of a (family, params) pair: the family tag keeps it
/// apart from the SPLASH-2 keys (tagged "splash2"). Doubles as the
/// profile's trace-generation stream salt, so two parameterizations draw
/// distinct operand streams even at equal experiment seeds.
[[nodiscard]] std::uint64_t identity(std::string_view family,
                                     std::uint64_t params_digest) noexcept
{
    util::digest_builder h;
    h.text(family);
    h.u64(params_digest);
    return h.digest();
}

/// Mix array in op_class order:
/// {int_add, int_sub, int_logic, int_mul, load, store, branch, fp, nop}.
[[nodiscard]] std::array<double, arch::op_class_count>
mix_of(double add, double sub, double logic, double mul, double load, double store,
       double branch, double fp, double nop)
{
    return {add, sub, logic, mul, load, store, branch, fp, nop};
}

void require(bool ok, const char* what)
{
    if (!ok) {
        throw std::invalid_argument(what);
    }
}

/// Registers `factory` under `key`, stamping the registered name into the
/// produced profile so diagnostics show the registry spelling.
template <typename Factory>
void add_named(workload_registry& registry, workload_key key, Factory factory)
{
    const std::string name = key.name;
    registry.add(std::move(key), [name, factory](std::size_t thread_count) {
        benchmark_profile profile = factory(thread_count);
        profile.name = name;
        return profile;
    });
}

} // namespace

// -- lock-contention ladder --------------------------------------------------

std::uint64_t lock_ladder_params::digest() const noexcept
{
    util::digest_builder h;
    h.value(rungs);
    h.value(base_contention);
    h.value(contention_step);
    h.value(hold_scale);
    h.value(hot_locks);
    return h.digest();
}

workload_key lock_ladder_key(std::string name, const lock_ladder_params& params)
{
    return {std::move(name), identity("lock_ladder", params.digest())};
}

benchmark_profile make_lock_ladder_profile(const lock_ladder_params& params,
                                           std::size_t thread_count)
{
    require(thread_count >= 1, "lock_ladder: thread_count must be >= 1");
    require(params.rungs >= 1, "lock_ladder: rungs must be >= 1");
    require(params.hot_locks >= 1, "lock_ladder: hot_locks must be >= 1");
    require(params.base_contention >= 0.0 && params.base_contention < 1.0,
            "lock_ladder: base_contention must be in [0, 1)");
    require(params.contention_step >= 0.0, "lock_ladder: contention_step must be >= 0");
    require(params.hold_scale > 0.0, "lock_ladder: hold_scale must be > 0");

    benchmark_profile profile;
    profile.name = "lock_ladder";
    profile.stream_salt = identity("lock_ladder", params.digest());
    profile.thread_count = thread_count;
    profile.interval_count = 3;
    profile.instructions_per_interval = 16000;
    profile.threads.reserve(thread_count);
    profile.work_imbalance.assign(thread_count, 1.0);

    // Per-thread serialization: rung r's share of work under the hot locks.
    // With L locks the convoy spreads, so the per-lock pressure drops.
    const auto serialization = [&](std::size_t t) {
        const std::size_t rung = t % params.rungs;
        const double contention =
            std::min(0.9, params.base_contention +
                              params.contention_step * static_cast<double>(rung));
        return contention / static_cast<double>(params.hot_locks);
    };
    double s_max = 0.0;
    for (std::size_t t = 0; t < thread_count; ++t) {
        s_max = std::max(s_max, serialization(t));
    }

    for (std::size_t t = 0; t < thread_count; ++t) {
        const double s = serialization(t);
        thread_character c;
        // Lock-heavy integer code: shared-counter updates, flag tests, the
        // odd fp bookkeeping; spin waits add branch and load traffic as the
        // thread's rung (and thus its wait time behind the convoy) rises.
        c.mix = mix_of(0.22, 0.08, 0.14, 0.02, 0.26 + 0.04 * s, 0.12,
                       0.14 + 0.10 * s, 0.00, 0.02);
        // Critical sections hammer shared counters: each increment of a
        // nearly-saturated counter ripples the full carry chain, so carry
        // sensitization climbs the ladder with contention and hold time.
        c.long_carry_fraction = 0.02 + 0.25 * s * params.hold_scale;
        c.carry_len_min = 12;
        c.carry_len_max = 32;
        c.mul_sensitize_fraction = 0.01;
        c.mul_magnitude_min_bits = 4;
        c.mul_magnitude_max_bits = 12;
        c.opcode_variety = 12;
        // The lock word and its guard registers are re-read constantly.
        c.register_collision_fraction = 0.01 + 0.08 * s;
        c.collision_low_register_bias = 1.0 + 2.5 * s;
        c.working_set_bytes = 1ull << 20;
        c.sequential_access_fraction = std::max(0.2, 0.6 - 0.3 * s);
        c.branch_taken_bias = 0.55;
        c.branch_repeat_fraction = std::min(0.98, 0.80 + 0.15 * s);
        profile.threads.push_back(c);

        // Convoy head (highest rung) carries the most work; hold_scale
        // widens the spread. s_max == 0 means no contention: balanced.
        const double spread = std::clamp(0.45 * params.hold_scale, 0.0, 0.6);
        profile.work_imbalance[t] =
            s_max > 0.0 ? 1.0 - spread * (1.0 - s / s_max) : 1.0;
    }
    return profile;
}

void register_lock_ladder(workload_registry& registry, std::string name,
                          const lock_ladder_params& params)
{
    add_named(registry, lock_ladder_key(std::move(name), params),
              [params](std::size_t thread_count) {
                  return make_lock_ladder_profile(params, thread_count);
              });
}

// -- default instances -------------------------------------------------------

void register_default_scenarios(workload_registry& registry)
{
    register_lock_ladder(registry, "lock_ladder", lock_ladder_params{});
    register_lock_ladder(registry, "lock_ladder_heavy",
                         lock_ladder_params{.rungs = 4,
                                            .base_contention = 0.30,
                                            .contention_step = 0.20,
                                            .hold_scale = 2.0,
                                            .hot_locks = 1});
}

} // namespace synts::workload
