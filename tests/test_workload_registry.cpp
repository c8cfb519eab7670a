// Tests for workload/registry + workload/scenarios: key identity rules
// (duplicate rejection, distinct digests per (family, params)), unknown-key
// failure modes, determinism of every scenario family, the scenario
// profiles' qualitative shapes, and the registry flowing end-to-end through
// the experiment pipeline.

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>

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
    EXPECT_GE(registry.size(), benchmark_count + 6);
    for (const benchmark_id id : all_benchmarks()) {
        EXPECT_TRUE(registry.contains(benchmark_name(id)));
    }
    for (const char* name : {"lock_ladder", "lock_ladder_heavy", "pipeline",
                             "pipeline_skewed", "graph_walk", "graph_walk_hubby"}) {
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
    // A parameter ladder per family -- dozens of concrete workloads.
    for (const double contention : {0.0, 0.1, 0.2, 0.3, 0.4, 0.5}) {
        for (const double hold : {0.5, 1.0, 2.0}) {
            insert_unique(lock_ladder_key(
                "l", lock_ladder_params{.base_contention = contention,
                                        .hold_scale = hold}));
        }
    }
    for (const double w : {0.1, 0.2, 0.4, 0.8}) {
        insert_unique(pipeline_key(
            "p", pipeline_params{.stage_weights = {1.0, w}}));
        insert_unique(pipeline_key(
            "p", pipeline_params{.stage_weights = {1.0, w}, .queue_pressure = 0.9}));
    }
    for (const double alpha : {0.8, 1.0, 1.3, 1.8}) {
        for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
            insert_unique(graph_walk_key(
                "g", graph_walk_params{.tail_alpha = alpha, .mix_seed = seed}));
        }
    }
    // Families never collide with each other or the builtins, even with
    // coincidentally equal param digests (the family tag separates them).
    for (const benchmark_id id : all_benchmarks()) {
        insert_unique(builtin_key(id));
    }
    EXPECT_EQ(ids.size(), 6u * 3u + 4u * 2u + 4u * 3u + benchmark_count);
}

// -- scenario family shapes --------------------------------------------------

TEST(workload_scenarios, families_validate_parameters)
{
    EXPECT_THROW((void)make_lock_ladder_profile({.rungs = 0}, 4),
                 std::invalid_argument);
    EXPECT_THROW((void)make_lock_ladder_profile({.base_contention = 1.5}, 4),
                 std::invalid_argument);
    EXPECT_THROW((void)make_lock_ladder_profile({}, 0), std::invalid_argument);
    EXPECT_THROW((void)make_pipeline_profile({.stage_weights = {}}, 4),
                 std::invalid_argument);
    EXPECT_THROW((void)make_pipeline_profile({.stage_weights = {1.0, -0.5}}, 4),
                 std::invalid_argument);
    EXPECT_THROW((void)make_graph_walk_profile({.tail_alpha = 0.0}, 4),
                 std::invalid_argument);
    EXPECT_THROW((void)make_graph_walk_profile({.hub_fraction = 2.0}, 4),
                 std::invalid_argument);
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

TEST(workload_scenarios, pipeline_stage_weights_set_the_imbalance)
{
    const pipeline_params params{.stage_weights = {1.0, 0.5, 0.25}};
    const benchmark_profile p = make_pipeline_profile(params, 6);
    ASSERT_EQ(p.work_imbalance.size(), 6u);
    // Threads cycle through the stages; weights normalize to max 1.
    EXPECT_DOUBLE_EQ(p.work_imbalance[0], 1.0);
    EXPECT_DOUBLE_EQ(p.work_imbalance[1], 0.5);
    EXPECT_DOUBLE_EQ(p.work_imbalance[2], 0.25);
    EXPECT_DOUBLE_EQ(p.work_imbalance[3], 1.0);
    // Light stages spin hardest under backpressure.
    const benchmark_profile pressured =
        make_pipeline_profile({.stage_weights = {1.0, 0.25}, .queue_pressure = 1.0}, 4);
    EXPECT_GT(pressured.threads[1].register_collision_fraction,
              pressured.threads[0].register_collision_fraction);
    // The transform stage is the multiplier-heavy one.
    EXPECT_GT(p.threads[1].mul_sensitize_fraction, p.threads[0].mul_sensitize_fraction);
}

TEST(workload_scenarios, graph_walk_tail_is_heavy_and_seeded)
{
    const benchmark_profile p = make_graph_walk_profile({}, 8);
    double lo = 1.0;
    double hi = 0.0;
    for (const double w : p.work_imbalance) {
        lo = std::min(lo, w);
        hi = std::max(hi, w);
    }
    EXPECT_DOUBLE_EQ(hi, 1.0);   // heaviest hub normalizes to 1
    EXPECT_LT(lo, 0.8);          // and the tail is genuinely imbalanced
    // A different graph (mix_seed) redraws the tail.
    const benchmark_profile q = make_graph_walk_profile({.mix_seed = 99}, 8);
    EXPECT_NE(p.work_imbalance, q.work_imbalance);
}

// -- determinism -------------------------------------------------------------

TEST(workload_scenarios, every_family_is_deterministic_per_seed)
{
    const workload_registry registry = workload_registry::with_builtins();
    for (const char* name : {"lock_ladder", "lock_ladder_heavy", "pipeline",
                             "pipeline_skewed", "graph_walk", "graph_walk_hubby"}) {
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

// -- CLI-defined instances ---------------------------------------------------

TEST(workload_scenarios, parse_scenario_definition_matches_programmatic_identity)
{
    const scenario_definition ladder = parse_scenario_definition(
        "lock_ladder:name=ll9,base_contention=0.55,rungs=9,hot_locks=2");
    EXPECT_EQ(ladder.family, "lock_ladder");
    EXPECT_EQ(ladder.name, "ll9");
    lock_ladder_params ladder_params;
    ladder_params.base_contention = 0.55;
    ladder_params.rungs = 9;
    ladder_params.hot_locks = 2;
    // Same identity as the programmatic helper: CLI-defined and
    // compiled-in instances share cache/store keys for equal params.
    EXPECT_EQ(ladder.key, lock_ladder_key("ll9", ladder_params));

    const scenario_definition pipe = parse_scenario_definition(
        "pipeline:name=p3,stage_weights=1.0+0.5+0.25,queue_pressure=0.8");
    pipeline_params pipe_params;
    pipe_params.stage_weights = {1.0, 0.5, 0.25};
    pipe_params.queue_pressure = 0.8;
    EXPECT_EQ(pipe.key, pipeline_key("p3", pipe_params));

    const scenario_definition walk = parse_scenario_definition(
        "graph_walk:name=gw,tail_alpha=1.1,mix_seed=5");
    graph_walk_params walk_params;
    walk_params.tail_alpha = 1.1;
    walk_params.mix_seed = 5;
    EXPECT_EQ(walk.key, graph_walk_key("gw", walk_params));
}

TEST(workload_registry, register_defined_installs_a_working_factory)
{
    workload_registry registry;
    const workload_key defined =
        registry.register_defined("graph_walk:name=gw,tail_alpha=1.1,mix_seed=5");
    ASSERT_TRUE(registry.contains("gw"));
    EXPECT_EQ(registry.key("gw"), defined);

    graph_walk_params params;
    params.tail_alpha = 1.1;
    params.mix_seed = 5;
    const benchmark_profile via_registry = registry.make_profile(defined, 4);
    const benchmark_profile programmatic = make_graph_walk_profile(params, 4);
    // Registered-name stamping aside, the profiles are the same workload.
    EXPECT_EQ(via_registry.name, "gw");
    EXPECT_EQ(via_registry.stream_salt, programmatic.stream_salt);
    EXPECT_EQ(via_registry.thread_count, programmatic.thread_count);
    EXPECT_EQ(via_registry.work_imbalance, programmatic.work_imbalance);
}

TEST(workload_registry, register_defined_rejects_duplicates)
{
    workload_registry registry;
    (void)registry.register_defined("lock_ladder:name=dup,rungs=3");
    // Same name again.
    EXPECT_THROW((void)registry.register_defined("lock_ladder:name=dup,rungs=4"),
                 std::invalid_argument);
    // Different name, identical (family, params): identity collision.
    EXPECT_THROW((void)registry.register_defined("lock_ladder:name=dup2,rungs=3"),
                 std::invalid_argument);
}

TEST(workload_scenarios, scenario_definition_grammar_errors_are_rejected)
{
    for (const char* bad : {
             "",                                   // empty
             "lock_ladder",                        // no colon
             ":name=x",                            // empty family
             "lock_ladder:",                       // empty body
             "nosuch:name=x",                      // unknown family
             "lock_ladder:rungs=3",                // missing name
             "lock_ladder:name=",                  // empty name
             "lock_ladder:name=x,frob=1",          // unknown parameter
             "lock_ladder:name=x,rungs",           // '='-less token
             "lock_ladder:name=x,rungs=abc",       // non-numeric unsigned
             "lock_ladder:name=x,rungs=-1",        // signed unsigned
             "lock_ladder:name=x,rungs=3,rungs=4", // duplicate parameter
             "lock_ladder:name=x,base_contention=1.5", // family validation
             "pipeline:name=x,stage_weights=1.0+oops", // bad weight entry
             "graph_walk:name=x,tail_alpha=0",         // family validation
         }) {
        EXPECT_THROW((void)parse_scenario_definition(bad), std::invalid_argument)
            << "\"" << bad << "\"";
    }
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
