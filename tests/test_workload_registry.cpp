// Tests for workload/registry + workload/scenarios: key identity rules
// (duplicate rejection, distinct digests per (family, params)), the pinned
// built-in set and its identities, unknown-key failure modes, determinism
// of the lock_ladder instances, the lock_ladder profile's qualitative
// shape, and the registry flowing end-to-end through the experiment
// pipeline.

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "workload/registry.h"
#include "workload/scenarios.h"

namespace {

using namespace synts;
using namespace synts::workload;

// -- keys and registration ---------------------------------------------------

TEST(workload_registry, builtin_keys_are_stable_and_distinct)
{
    std::set<std::uint64_t> ids;
    std::set<std::string> names;
    for (const benchmark_id id : all_benchmarks()) {
        const workload_key key = builtin_key(id);
        EXPECT_EQ(key.name, benchmark_name(id));
        EXPECT_TRUE(ids.insert(key.id).second) << key.name;
        EXPECT_TRUE(names.insert(key.name).second) << key.name;
        // The implicit enum conversion IS builtin_key.
        EXPECT_EQ(workload_key(id), key);
        // Pure function: recomputing yields the same identity.
        EXPECT_EQ(builtin_key(id).id, key.id);
    }
}

TEST(workload_registry, builtins_contains_ten_splash_plus_scenarios)
{
    const workload_registry registry = workload_registry::with_builtins();
    EXPECT_GE(registry.size(), benchmark_count + 2);
    for (const benchmark_id id : all_benchmarks()) {
        EXPECT_TRUE(registry.contains(benchmark_name(id)));
    }
    for (const char* name : {"lock_ladder", "lock_ladder_heavy"}) {
        EXPECT_TRUE(registry.contains(name)) << name;
    }
    // Registration order is stable: the SPLASH-2 ten come first.
    const auto keys = registry.keys();
    ASSERT_GE(keys.size(), benchmark_count);
    for (std::size_t i = 0; i < benchmark_count; ++i) {
        EXPECT_EQ(keys[i],
                  builtin_key(static_cast<benchmark_id>(all_benchmarks()[i])));
    }
}

TEST(workload_registry, builtin_set_and_ladder_identities_are_pinned)
{
    // The whole built-in set, in order: the SPLASH-2 ten, then the two
    // lock_ladder instances. Nothing else is registered by default.
    std::vector<workload_key> expected;
    for (const benchmark_id id : all_benchmarks()) {
        expected.push_back(builtin_key(id));
    }
    expected.push_back(workload_key{"lock_ladder", 0xc231e6b01d7cc6d1ull});
    expected.push_back(workload_key{"lock_ladder_heavy", 0x2f0bf4716fa6a658ull});
    const workload_registry registry = workload_registry::with_builtins();
    EXPECT_EQ(registry.keys(), expected);
    // The id is every cache key's workload identity and the trace salt:
    // the literals above pin both, so a change to the family's digest or
    // to its default parameters cannot slip through.
    for (std::size_t i = benchmark_count; i < expected.size(); ++i) {
        EXPECT_EQ(registry.make_profile(expected[i], 4).stream_salt, expected[i].id)
            << expected[i].name;
    }
}

TEST(workload_registry, duplicate_name_and_duplicate_identity_are_rejected)
{
    workload_registry registry;
    register_lock_ladder(registry, "ladder_a", lock_ladder_params{});
    // Same name, different params: rejected on the name.
    EXPECT_THROW(register_lock_ladder(registry, "ladder_a",
                                      lock_ladder_params{.base_contention = 0.5}),
                 std::invalid_argument);
    // Different name, identical params: rejected on the identity digest
    // (two names aliasing one cache identity would be a silent share).
    EXPECT_THROW(register_lock_ladder(registry, "ladder_b", lock_ladder_params{}),
                 std::invalid_argument);
    // Different params under a fresh name: fine.
    EXPECT_NO_THROW(register_lock_ladder(registry, "ladder_b",
                                         lock_ladder_params{.base_contention = 0.5}));
    EXPECT_EQ(registry.size(), 2u);

    EXPECT_THROW(registry.add(workload_key{"", 1}, nullptr), std::invalid_argument);
    EXPECT_THROW(registry.add(workload_key{"x", 1}, nullptr), std::invalid_argument);
}

TEST(workload_registry, unknown_lookups_throw)
{
    const workload_registry registry = workload_registry::with_builtins();
    EXPECT_FALSE(registry.contains("nonesuch"));
    EXPECT_THROW((void)registry.key("nonesuch"), std::out_of_range);
    EXPECT_THROW((void)registry.make_profile(workload_key{"nonesuch", 0xBAD}, 4),
                 std::out_of_range);
    // An unregistered key propagates out of the whole pipeline too.
    EXPECT_THROW((void)core::make_program_artifacts(workload_key{"nonesuch", 0xBAD}),
                 std::out_of_range);
}

TEST(workload_registry, distinct_family_params_pairs_digest_differently)
{
    std::set<std::uint64_t> ids;
    const auto insert_unique = [&](const workload_key& key) {
        EXPECT_TRUE(ids.insert(key.id).second) << key.name << " id collided";
    };
    // A parameter ladder -- eighteen concrete workloads.
    for (const double contention : {0.0, 0.1, 0.2, 0.3, 0.4, 0.5}) {
        for (const double hold : {0.5, 1.0, 2.0}) {
            insert_unique(lock_ladder_key(
                "l", lock_ladder_params{.base_contention = contention,
                                        .hold_scale = hold}));
        }
    }
    // The family never collides with the builtins, even with coincidentally
    // equal param digests (the family tag separates them).
    for (const benchmark_id id : all_benchmarks()) {
        insert_unique(builtin_key(id));
    }
    EXPECT_EQ(ids.size(), 6u * 3u + benchmark_count);
}

// -- lock_ladder profile shape ---------------------------------------------

TEST(workload_scenarios, families_validate_parameters)
{
    EXPECT_THROW((void)make_lock_ladder_profile({.rungs = 0}, 4),
                 std::invalid_argument);
    EXPECT_THROW((void)make_lock_ladder_profile({.base_contention = 1.5}, 4),
                 std::invalid_argument);
    EXPECT_THROW((void)make_lock_ladder_profile({.hot_locks = 0}, 4),
                 std::invalid_argument);
    EXPECT_THROW((void)make_lock_ladder_profile({.contention_step = -0.1}, 4),
                 std::invalid_argument);
    EXPECT_THROW((void)make_lock_ladder_profile({.hold_scale = 0.0}, 4),
                 std::invalid_argument);
    EXPECT_THROW((void)make_lock_ladder_profile({}, 0), std::invalid_argument);
}

TEST(workload_scenarios, lock_ladder_contention_climbs_the_rungs)
{
    const benchmark_profile p = make_lock_ladder_profile({}, 4);
    ASSERT_EQ(p.threads.size(), 4u);
    // Carry sensitization (the error mechanism) rises with the rung...
    EXPECT_GT(p.threads[3].long_carry_fraction, p.threads[0].long_carry_fraction);
    EXPECT_GT(p.threads[3].register_collision_fraction,
              p.threads[0].register_collision_fraction);
    // ...and so does the work share: the convoy head is the last arrival.
    EXPECT_EQ(p.work_imbalance[3], 1.0);
    EXPECT_LT(p.work_imbalance[0], 1.0);
    // More hot locks spread the convoy: the head's error pressure drops.
    const benchmark_profile spread = make_lock_ladder_profile({.hot_locks = 4}, 4);
    EXPECT_LT(spread.threads[3].long_carry_fraction,
              p.threads[3].long_carry_fraction);
}

// -- determinism -------------------------------------------------------------

TEST(workload_scenarios, every_family_is_deterministic_per_seed)
{
    const workload_registry registry = workload_registry::with_builtins();
    for (const char* name : {"lock_ladder", "lock_ladder_heavy"}) {
        const workload_key key = registry.key(name);
        const benchmark_profile a = registry.make_profile(key, 4);
        const benchmark_profile b = registry.make_profile(key, 4);
        ASSERT_EQ(a.work_imbalance, b.work_imbalance) << name;
        ASSERT_EQ(a.stream_salt, b.stream_salt) << name;
        EXPECT_NE(a.stream_salt, 0u) << name;

        // Trace generation: bit-identical at equal seeds, different across
        // seeds (the salt feeds the stream, it does not freeze it).
        const auto t1 = generate_program_trace(a, 7);
        const auto t2 = generate_program_trace(b, 7);
        ASSERT_EQ(t1.threads.size(), t2.threads.size()) << name;
        for (std::size_t t = 0; t < t1.threads.size(); ++t) {
            ASSERT_EQ(t1.threads[t].ops.size(), t2.threads[t].ops.size()) << name;
            for (std::size_t i = 0; i < t1.threads[t].ops.size(); i += 101) {
                ASSERT_EQ(t1.threads[t].ops[i].encoding, t2.threads[t].ops[i].encoding);
                ASSERT_EQ(t1.threads[t].ops[i].operand_a, t2.threads[t].ops[i].operand_a);
            }
        }
        const auto t3 = generate_program_trace(a, 8);
        bool differs = false;
        for (std::size_t i = 0; i < t1.threads[0].ops.size() && !differs; ++i) {
            differs = t1.threads[0].ops[i].encoding != t3.threads[0].ops[i].encoding;
        }
        EXPECT_TRUE(differs) << name;
        EXPECT_NO_THROW(t1.validate());
    }
}

TEST(workload_scenarios, distinct_params_generate_distinct_traces_at_equal_seed)
{
    // The stream salt separates parameterizations: identical seeds, rails
    // apart operand streams (otherwise two cache keys could share a trace).
    const benchmark_profile a = make_lock_ladder_profile({}, 2);
    const benchmark_profile b =
        make_lock_ladder_profile({.base_contention = 0.35}, 2);
    ASSERT_NE(a.stream_salt, b.stream_salt);
    const auto ta = generate_program_trace(a, 42);
    const auto tb = generate_program_trace(b, 42);
    bool differs = false;
    const std::size_t n = std::min(ta.threads[0].ops.size(), tb.threads[0].ops.size());
    for (std::size_t i = 0; i < n && !differs; ++i) {
        differs = ta.threads[0].ops[i].encoding != tb.threads[0].ops[i].encoding;
    }
    EXPECT_TRUE(differs);
}

// -- end to end --------------------------------------------------------------

TEST(workload_scenarios, scenario_workload_characterizes_through_the_pipeline)
{
    const workload_key key = workload_registry::global().key("lock_ladder");
    const auto artifacts = core::make_program_artifacts(key);
    ASSERT_NE(artifacts, nullptr);
    EXPECT_NO_THROW(artifacts->validate());
    EXPECT_EQ(artifacts->workload, key);
    core::experiment_config config;
    EXPECT_EQ(artifacts->thread_count, config.thread_count);
    EXPECT_EQ(artifacts->trace.thread_count(), config.thread_count);
    EXPECT_EQ(artifacts->workload_digest, config.workload_digest());
    // Heterogeneous by construction: the convoy head's error behavior must
    // separate from rung 0 after the full cross-layer characterization.
    const core::benchmark_experiment experiment(key, circuit::pipe_stage::simple_alu);
    EXPECT_EQ(experiment.thread_count(), config.thread_count);
    EXPECT_GT(experiment.interval_count(), 0u);
}

} // namespace
