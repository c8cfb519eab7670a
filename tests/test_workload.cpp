// Tests for workload/splash2: profile facts, trace generation and the
// thread characters generation rejects.

#include <gtest/gtest.h>

#include <map>

#include "workload/splash2.h"

namespace {

using namespace synts::workload;
using synts::arch::op_class;

TEST(profiles, names_match_paper)
{
    EXPECT_EQ(benchmark_name(benchmark_id::fmm), "FMM");
    EXPECT_EQ(benchmark_name(benchmark_id::lu_ncontig), "Lu-nContig");
    EXPECT_EQ(benchmark_name(benchmark_id::water_sp), "Water-sp");
}

TEST(profiles, ten_total_seven_reported)
{
    EXPECT_EQ(all_benchmarks().size(), 10u);
    EXPECT_EQ(reported_benchmarks().size(), 7u);
    // FFT, Ocean and Water-sp are excluded (homogeneous error behavior).
    for (const benchmark_id id : reported_benchmarks()) {
        EXPECT_NE(id, benchmark_id::fft);
        EXPECT_NE(id, benchmark_id::ocean);
        EXPECT_NE(id, benchmark_id::water_sp);
    }
}

TEST(profiles, rejects_zero_threads)
{
    EXPECT_THROW(make_profile(benchmark_id::radix, 0), std::invalid_argument);
}

TEST(profiles, heterogeneous_benchmarks_have_distinct_thread_rows)
{
    for (const benchmark_id id : reported_benchmarks()) {
        const benchmark_profile p = make_profile(id, 4);
        ASSERT_EQ(p.threads.size(), 4u);
        // Thread 0 is the timing-speculation-critical thread.
        EXPECT_GT(p.threads[0].long_carry_fraction,
                  2.0 * p.threads[3].long_carry_fraction)
            << benchmark_name(id);
    }
}

TEST(profiles, homogeneous_benchmarks_have_identical_thread_rows)
{
    for (const benchmark_id id :
         {benchmark_id::fft, benchmark_id::ocean, benchmark_id::water_sp}) {
        const benchmark_profile p = make_profile(id, 4);
        for (std::size_t t = 1; t < 4; ++t) {
            EXPECT_DOUBLE_EQ(p.threads[t].long_carry_fraction,
                             p.threads[0].long_carry_fraction);
            EXPECT_DOUBLE_EQ(p.threads[t].register_collision_fraction,
                             p.threads[0].register_collision_fraction);
        }
    }
}

TEST(profiles, fft_error_rates_are_high)
{
    const benchmark_profile fft = make_profile(benchmark_id::fft, 4);
    const benchmark_profile radix = make_profile(benchmark_id::radix, 4);
    EXPECT_GT(fft.threads[0].long_carry_fraction,
              2.0 * radix.threads[0].long_carry_fraction);
    EXPECT_GE(fft.threads[0].carry_len_min, 20u);
}

TEST(profiles, fmm_has_short_intervals_and_low_error_scale)
{
    const benchmark_profile fmm = make_profile(benchmark_id::fmm, 4);
    const benchmark_profile radix = make_profile(benchmark_id::radix, 4);
    EXPECT_LT(fmm.instructions_per_interval, radix.instructions_per_interval);
    EXPECT_LT(fmm.threads[0].long_carry_fraction,
              0.1 * radix.threads[0].long_carry_fraction);
}

TEST(generation, deterministic_in_seed)
{
    const benchmark_profile p = make_profile(benchmark_id::barnes, 4);
    const auto a = generate_program_trace(p, 7);
    const auto b = generate_program_trace(p, 7);
    ASSERT_EQ(a.threads.size(), b.threads.size());
    for (std::size_t t = 0; t < a.threads.size(); ++t) {
        ASSERT_EQ(a.threads[t].ops.size(), b.threads[t].ops.size());
        for (std::size_t i = 0; i < a.threads[t].ops.size(); i += 97) {
            ASSERT_EQ(a.threads[t].ops[i].encoding, b.threads[t].ops[i].encoding);
            ASSERT_EQ(a.threads[t].ops[i].operand_a, b.threads[t].ops[i].operand_a);
        }
    }
}

TEST(generation, different_seed_differs)
{
    const benchmark_profile p = make_profile(benchmark_id::barnes, 4);
    const auto a = generate_program_trace(p, 1);
    const auto b = generate_program_trace(p, 2);
    bool any_difference = false;
    for (std::size_t i = 0; i < 1000 && !any_difference; ++i) {
        any_difference = a.threads[0].ops[i].encoding != b.threads[0].ops[i].encoding;
    }
    EXPECT_TRUE(any_difference);
}

TEST(generation, interval_structure_matches_profile)
{
    const benchmark_profile p = make_profile(benchmark_id::cholesky, 4);
    const auto program = generate_program_trace(p, 3);
    EXPECT_NO_THROW(program.validate());
    EXPECT_EQ(program.thread_count(), 4u);
    EXPECT_EQ(program.interval_count(), p.interval_count);
    for (std::size_t t = 0; t < 4; ++t) {
        const auto expected = static_cast<double>(p.instructions_per_interval) *
                              p.work_imbalance[t];
        for (std::size_t k = 0; k < p.interval_count; ++k) {
            EXPECT_NEAR(static_cast<double>(program.threads[t].interval(k).size()),
                        expected, 1.0);
        }
    }
}

TEST(generation, instruction_mix_tracks_profile_weights)
{
    benchmark_profile p = make_profile(benchmark_id::radix, 4);
    const auto program = generate_program_trace(p, 11);
    std::map<op_class, double> frequency;
    const auto& ops = program.threads[1].ops;
    for (const auto& op : ops) {
        frequency[op.cls] += 1.0 / static_cast<double>(ops.size());
    }
    double load_weight = 0.0;
    double total_weight = 0.0;
    for (std::size_t c = 0; c < synts::arch::op_class_count; ++c) {
        total_weight += p.threads[1].mix[c];
    }
    load_weight = p.threads[1].mix[static_cast<std::size_t>(op_class::load)] / total_weight;
    EXPECT_NEAR(frequency[op_class::load], load_weight, 0.02);
}

TEST(generation, collision_fraction_manifests_in_encodings)
{
    benchmark_profile p = make_profile(benchmark_id::cholesky, 4);
    const auto program = generate_program_trace(p, 13);
    auto collision_rate = [](const synts::arch::thread_trace& trace) {
        std::size_t collisions = 0;
        for (const auto& op : trace.ops) {
            const std::uint32_t rs = (op.encoding >> 21) & 31;
            const std::uint32_t rt = (op.encoding >> 16) & 31;
            collisions += rs == rt ? 1 : 0;
        }
        return static_cast<double>(collisions) / static_cast<double>(trace.ops.size());
    };
    // Thread 0's collision rate clearly exceeds thread 3's (random ties add
    // a 1/32 floor to both).
    EXPECT_GT(collision_rate(program.threads[0]),
              collision_rate(program.threads[3]) + 0.02);
}

TEST(generation, sensitizer_events_present_for_radix_thread0)
{
    const benchmark_profile p = make_profile(benchmark_id::radix, 4);
    const auto program = generate_program_trace(p, 17);
    // Count quiescent (0, 0) adds -- the first half of each event.
    std::size_t prep_count = 0;
    for (const auto& op : program.threads[0].ops) {
        if (op.cls == op_class::int_add && op.operand_a == 0 && op.operand_b == 0) {
            ++prep_count;
        }
    }
    EXPECT_GT(prep_count, 100u);
}

TEST(generation, thread_count_scales)
{
    const benchmark_profile p = make_profile(benchmark_id::radix, 8);
    const auto program = generate_program_trace(p, 5);
    EXPECT_EQ(program.thread_count(), 8u);
}

TEST(generation, rejects_thread_characters_the_draws_cannot_serve)
{
    // Each bounded draw's rejection threshold is computed when the stream
    // starts, so every range must be non-empty even if it is never drawn.
    const benchmark_profile base = make_profile(benchmark_id::radix, 2);
    EXPECT_NO_THROW((void)generate_program_trace(base, 5));
    const auto rejects = [&](auto&& edit) {
        benchmark_profile p = base;
        edit(p.threads[1]);
        EXPECT_THROW((void)generate_program_trace(p, 5), std::invalid_argument);
    };
    rejects([](thread_character& c) { c.working_set_bytes = 0; });
    rejects([](thread_character& c) { c.opcode_variety = 0; });
    rejects([](thread_character& c) { c.carry_len_min = c.carry_len_max + 1; });
    rejects([](thread_character& c) { c.mul_magnitude_min_bits = c.mul_magnitude_max_bits + 1; });
}

} // namespace
