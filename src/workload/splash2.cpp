#include "workload/splash2.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/rng.h"

namespace synts::workload {

namespace {

using arch::op_class;

/// Builds a mix array from per-class weights in op_class order:
/// {int_add, int_sub, int_logic, int_mul, load, store, branch, fp, nop}.
[[nodiscard]] std::array<double, arch::op_class_count>
mix_of(double add, double sub, double logic, double mul, double load, double store,
       double branch, double fp, double nop)
{
    return {add, sub, logic, mul, load, store, branch, fp, nop};
}

struct profile_seed_row {
    double long_carry;
    std::uint32_t carry_min;
    std::uint32_t carry_max;
    double mul_sensitize;
    std::uint32_t mul_min_bits;
    std::uint32_t mul_max_bits;
    std::uint32_t opcode_variety;
    double register_collisions;
    double collision_bias;
};

/// Applies the per-thread heterogeneity rows of a benchmark onto a base
/// character.
[[nodiscard]] std::vector<thread_character>
make_threads(const thread_character& base, std::span<const profile_seed_row> rows,
             std::size_t thread_count)
{
    std::vector<thread_character> threads;
    threads.reserve(thread_count);
    for (std::size_t t = 0; t < thread_count; ++t) {
        const profile_seed_row& row = rows[t % rows.size()];
        thread_character c = base;
        c.long_carry_fraction = row.long_carry;
        c.carry_len_min = row.carry_min;
        c.carry_len_max = row.carry_max;
        c.mul_sensitize_fraction = row.mul_sensitize;
        c.mul_magnitude_min_bits = row.mul_min_bits;
        c.mul_magnitude_max_bits = row.mul_max_bits;
        c.opcode_variety = row.opcode_variety;
        c.register_collision_fraction = row.register_collisions;
        c.collision_low_register_bias = row.collision_bias;
        threads.push_back(c);
    }
    return threads;
}

} // namespace

std::string_view benchmark_name(benchmark_id id) noexcept
{
    switch (id) {
    case benchmark_id::fmm:
        return "FMM";
    case benchmark_id::radix:
        return "Radix";
    case benchmark_id::lu_contig:
        return "Lu-Contig";
    case benchmark_id::lu_ncontig:
        return "Lu-nContig";
    case benchmark_id::fft:
        return "FFT";
    case benchmark_id::water_sp:
        return "Water-sp";
    case benchmark_id::barnes:
        return "Barnes";
    case benchmark_id::raytrace:
        return "Raytrace";
    case benchmark_id::cholesky:
        return "Cholesky";
    case benchmark_id::ocean:
        return "Ocean";
    }
    return "?";
}

std::span<const benchmark_id> all_benchmarks() noexcept
{
    static constexpr std::array<benchmark_id, benchmark_count> all = {
        benchmark_id::fmm,      benchmark_id::radix,    benchmark_id::lu_contig,
        benchmark_id::lu_ncontig, benchmark_id::fft,    benchmark_id::water_sp,
        benchmark_id::barnes,   benchmark_id::raytrace, benchmark_id::cholesky,
        benchmark_id::ocean,
    };
    return all;
}

std::span<const benchmark_id> reported_benchmarks() noexcept
{
    // Paper Fig. 6.18 order: Barnes, Cholesky, FMM, Lu-Contig, Lu-nContig,
    // Radix, Raytrace.
    static constexpr std::array<benchmark_id, 7> reported = {
        benchmark_id::barnes,    benchmark_id::cholesky,   benchmark_id::fmm,
        benchmark_id::lu_contig, benchmark_id::lu_ncontig, benchmark_id::radix,
        benchmark_id::raytrace,
    };
    return reported;
}

benchmark_profile make_profile(benchmark_id id, std::size_t thread_count)
{
    if (thread_count == 0) {
        throw std::invalid_argument("make_profile: thread_count must be >= 1");
    }

    benchmark_profile profile;
    profile.id = id;
    profile.name = benchmark_name(id);
    profile.stream_salt = static_cast<std::uint64_t>(id) << 32;
    profile.thread_count = thread_count;
    profile.interval_count = 3;
    profile.instructions_per_interval = 24000;
    profile.work_imbalance.assign(thread_count, 1.0);

    thread_character base;

    switch (id) {
    case benchmark_id::fmm: {
        // Fast multipole n-body: FP heavy, short barrier intervals, very low
        // error scale (~1e-3, Fig. 6.17 right).
        base.mix = mix_of(0.15, 0.05, 0.08, 0.06, 0.24, 0.10, 0.12, 0.18, 0.02);
        base.working_set_bytes = 3ull << 20;
        base.sequential_access_fraction = 0.55;
        base.branch_taken_bias = 0.58;
        profile.instructions_per_interval = 12000; // "very short barrier intervals"
        const std::array<profile_seed_row, 4> rows = {{
            {0.0110, 14, 32, 0.010, 8, 16, 24, 0.0060, 3.0},
            {0.0040, 14, 32, 0.004, 6, 16, 12, 0.0025, 1.0},
            {0.0030, 14, 32, 0.003, 6, 16, 12, 0.0020, 1.0},
            {0.0022, 14, 32, 0.002, 6, 16, 12, 0.0018, 1.0},
        }};
        profile.threads = make_threads(base, rows, thread_count);
        break;
    }
    case benchmark_id::radix: {
        // Integer radix sort: ALU/memory heavy; thread 0 (histogram merge)
        // shows ~4x the error probability of the calmest thread (Fig. 3.5).
        base.mix = mix_of(0.24, 0.10, 0.16, 0.02, 0.24, 0.12, 0.10, 0.00, 0.02);
        base.working_set_bytes = 6ull << 20;
        base.sequential_access_fraction = 0.45;
        base.branch_taken_bias = 0.52;
        const std::array<profile_seed_row, 4> rows = {{
            {0.2200, 12, 32, 0.050, 4, 14, 20, 0.0500, 3.0},
            {0.0700, 12, 32, 0.030, 4, 14, 16, 0.0200, 1.0},
            {0.0580, 12, 32, 0.026, 4, 14, 16, 0.0170, 1.0},
            {0.0500, 12, 32, 0.022, 4, 14, 16, 0.0150, 1.0},
        }};
        profile.threads = make_threads(base, rows, thread_count);
        break;
    }
    case benchmark_id::lu_contig: {
        base.mix = mix_of(0.16, 0.06, 0.08, 0.10, 0.24, 0.10, 0.08, 0.16, 0.02);
        base.working_set_bytes = 2ull << 20;
        base.sequential_access_fraction = 0.85;
        const std::array<profile_seed_row, 4> rows = {{
            {0.1300, 12, 32, 0.045, 8, 16, 20, 0.0400, 2.5},
            {0.0650, 12, 32, 0.028, 8, 16, 12, 0.0160, 1.0},
            {0.0420, 12, 32, 0.022, 8, 16, 12, 0.0130, 1.0},
            {0.0300, 12, 32, 0.018, 8, 16, 12, 0.0110, 1.0},
        }};
        profile.threads = make_threads(base, rows, thread_count);
        break;
    }
    case benchmark_id::lu_ncontig: {
        base.mix = mix_of(0.16, 0.06, 0.08, 0.10, 0.26, 0.10, 0.08, 0.14, 0.02);
        base.working_set_bytes = 8ull << 20;
        base.sequential_access_fraction = 0.35; // non-contiguous blocks
        const std::array<profile_seed_row, 4> rows = {{
            {0.1150, 12, 32, 0.042, 8, 16, 20, 0.0380, 2.5},
            {0.0700, 12, 32, 0.028, 8, 16, 12, 0.0170, 1.0},
            {0.0460, 12, 32, 0.022, 8, 16, 12, 0.0140, 1.0},
            {0.0330, 12, 32, 0.018, 8, 16, 12, 0.0110, 1.0},
        }};
        profile.threads = make_threads(base, rows, thread_count);
        break;
    }
    case benchmark_id::fft: {
        // Homogeneous and too error-prone to speculate (Section 5.4): every
        // thread constantly exercises deep carry chains.
        base.mix = mix_of(0.18, 0.08, 0.10, 0.12, 0.22, 0.10, 0.06, 0.12, 0.02);
        base.working_set_bytes = 4ull << 20;
        const std::array<profile_seed_row, 1> rows = {{
            {0.5000, 24, 32, 0.300, 12, 16, 16, 0.2000, 3.0},
        }};
        profile.threads = make_threads(base, rows, thread_count);
        break;
    }
    case benchmark_id::water_sp: {
        // Homogeneous, moderate errors: conventional per-core TS suffices.
        base.mix = mix_of(0.14, 0.06, 0.08, 0.08, 0.22, 0.10, 0.10, 0.20, 0.02);
        base.working_set_bytes = 1ull << 20;
        const std::array<profile_seed_row, 1> rows = {{
            {0.0400, 12, 32, 0.020, 8, 16, 16, 0.0140, 1.5},
        }};
        profile.threads = make_threads(base, rows, thread_count);
        break;
    }
    case benchmark_id::barnes: {
        base.mix = mix_of(0.16, 0.06, 0.10, 0.08, 0.22, 0.10, 0.10, 0.16, 0.02);
        base.working_set_bytes = 4ull << 20;
        base.sequential_access_fraction = 0.4; // pointer chasing (octree)
        const std::array<profile_seed_row, 4> rows = {{
            {0.1400, 12, 32, 0.048, 8, 16, 24, 0.0420, 2.5},
            {0.0600, 12, 32, 0.026, 8, 16, 14, 0.0170, 1.0},
            {0.0440, 12, 32, 0.022, 8, 16, 14, 0.0140, 1.0},
            {0.0350, 12, 32, 0.018, 8, 16, 14, 0.0120, 1.0},
        }};
        profile.threads = make_threads(base, rows, thread_count);
        break;
    }
    case benchmark_id::raytrace: {
        // Ray tracing: FP/mul heavy; decode-side heterogeneity from a wide
        // opcode working set in the lead thread (Fig. 6.14/6.16).
        base.mix = mix_of(0.12, 0.06, 0.08, 0.12, 0.22, 0.08, 0.12, 0.18, 0.02);
        base.working_set_bytes = 6ull << 20;
        base.sequential_access_fraction = 0.3;
        const std::array<profile_seed_row, 4> rows = {{
            {0.1200, 12, 32, 0.055, 9, 16, 48, 0.0550, 3.5},
            {0.0480, 12, 32, 0.026, 8, 16, 12, 0.0160, 1.0},
            {0.0380, 12, 32, 0.022, 8, 16, 12, 0.0130, 1.0},
            {0.0320, 12, 32, 0.018, 8, 16, 12, 0.0110, 1.0},
        }};
        profile.threads = make_threads(base, rows, thread_count);
        break;
    }
    case benchmark_id::cholesky: {
        // Sparse factorization: strongest decode heterogeneity (Fig. 6.13).
        base.mix = mix_of(0.16, 0.06, 0.10, 0.10, 0.24, 0.08, 0.08, 0.16, 0.02);
        base.working_set_bytes = 3ull << 20;
        base.sequential_access_fraction = 0.5;
        const std::array<profile_seed_row, 4> rows = {{
            {0.1050, 12, 32, 0.050, 9, 16, 56, 0.0600, 3.5},
            {0.0400, 12, 32, 0.024, 8, 16, 12, 0.0160, 1.0},
            {0.0320, 12, 32, 0.020, 8, 16, 12, 0.0130, 1.0},
            {0.0270, 12, 32, 0.016, 8, 16, 10, 0.0110, 1.0},
        }};
        profile.threads = make_threads(base, rows, thread_count);
        break;
    }
    case benchmark_id::ocean: {
        // Homogeneous stencil code.
        base.mix = mix_of(0.16, 0.08, 0.08, 0.06, 0.26, 0.12, 0.08, 0.14, 0.02);
        base.working_set_bytes = 8ull << 20;
        base.sequential_access_fraction = 0.9;
        const std::array<profile_seed_row, 1> rows = {{
            {0.0650, 12, 32, 0.028, 8, 16, 14, 0.0180, 1.5},
        }};
        profile.threads = make_threads(base, rows, thread_count);
        break;
    }
    }

    // Static per-thread work imbalance (N_i spread). Barrier-synchronized
    // SPLASH-2 phases are not perfectly balanced: thread 0 typically
    // carries coordination work (histogram merge in Radix, supernode roots
    // in Cholesky, tree build in Barnes...), making it both the slowest
    // *and* -- per the error characters above -- the most error-prone
    // thread. This slack is precisely what SynTS harvests and what the
    // Per-core TS baseline wastes (it races every thread to the barrier at
    // high voltage). The homogeneous trio stays near-balanced.
    {
        struct imbalance_row {
            benchmark_id id;
            std::array<double, 4> factors;
        };
        static constexpr std::array<imbalance_row, benchmark_count> imbalances = {{
            {benchmark_id::fmm, {1.00, 0.80, 0.70, 0.62}},
            {benchmark_id::radix, {1.00, 0.84, 0.76, 0.70}},
            {benchmark_id::lu_contig, {1.00, 0.86, 0.78, 0.72}},
            {benchmark_id::lu_ncontig, {1.00, 0.83, 0.75, 0.69}},
            {benchmark_id::fft, {1.00, 0.97, 0.99, 0.96}},
            {benchmark_id::water_sp, {1.00, 0.98, 0.99, 0.97}},
            {benchmark_id::barnes, {1.00, 0.84, 0.75, 0.68}},
            {benchmark_id::raytrace, {1.00, 0.80, 0.72, 0.63}},
            {benchmark_id::cholesky, {1.00, 0.78, 0.68, 0.60}},
            {benchmark_id::ocean, {1.00, 0.98, 0.99, 0.97}},
        }};
        for (const auto& row : imbalances) {
            if (row.id == id) {
                for (std::size_t t = 0; t < thread_count; ++t) {
                    profile.work_imbalance[t] = row.factors[t % row.factors.size()];
                }
                break;
            }
        }
    }
    return profile;
}

namespace {

/// Stream state for one thread's operand/encoding generation.
class thread_stream {
public:
    thread_stream(const thread_character& character, std::uint64_t seed)
        : character_(character), rng_(seed), mix_total_(util::discrete_total(character.mix)),
          opcode_draw_(character.opcode_variety), address_draw_(character.working_set_bytes),
          carry_len_draw_(inclusive_span(character.carry_len_min, character.carry_len_max)),
          mul_bits_draw_(inclusive_span(character.mul_magnitude_min_bits,
                                        character.mul_magnitude_max_bits))
    {
        // The static opcode working set of the thread.
        opcodes_.reserve(character.opcode_variety);
        for (std::uint32_t i = 0; i < character.opcode_variety; ++i) {
            opcodes_.push_back(static_cast<std::uint32_t>(rng_.uniform_below(64)));
        }
        sequential_cursor_ = address_draw_(rng_);
    }

    /// Per-interval drift: barrier phases differ in how aggressively they
    /// exercise the carry chain (so online re-estimation per interval is
    /// meaningful). Deterministic in the interval index.
    void begin_interval(std::size_t interval_index)
    {
        const double phase =
            std::sin(static_cast<double>(interval_index + 1) * 1.7) * 0.2;
        interval_carry_scale_ = 1.0 + phase;
    }

    [[nodiscard]] arch::micro_op next()
    {
        arch::micro_op op;
        op.cls = static_cast<op_class>(rng_.discrete(character_.mix, mix_total_));

        // A pending sensitizer claims the next op that exercises its stage:
        // the quiescent -> boundary-pattern pair must be consecutive in the
        // stage's input-vector stream for the deep path to actually toggle.
        if (pending_carry_sensitizer_ && arch::uses_simple_alu(op.cls)) {
            op.cls = op_class::int_add;
            op.encoding = make_encoding(op.cls);
            const std::uint64_t ones =
                pending_carry_len_ >= 64 ? ~0ull : ((1ull << pending_carry_len_) - 1);
            op.operand_a = ones;
            op.operand_b = 1 + rng_.uniform_below(3);
            pending_carry_sensitizer_ = false;
            return op;
        }
        if (pending_mul_sensitizer_ && arch::uses_complex_alu(op.cls)) {
            // Increment the multiplier by one: the new bottom partial-
            // product row injects a carry that ripples down the whole array
            // diagonal (the deepest sensitizable multiplier path).
            op.encoding = make_encoding(op.cls);
            op.operand_a = (1ull << pending_mul_bits_a_) - 1;
            op.operand_b = (1ull << (pending_mul_bits_b_ - 1)) | 1ull;
            pending_mul_sensitizer_ = false;
            return op;
        }

        op.encoding = make_encoding(op.cls);
        switch (op.cls) {
        case op_class::int_add:
        case op_class::int_sub:
            fill_addsub_operands(op);
            break;
        case op_class::int_logic:
            op.operand_a = rng_();
            op.operand_b = rng_();
            break;
        case op_class::int_mul:
            fill_mul_operands(op);
            break;
        case op_class::load:
        case op_class::store:
            op.address = make_address();
            break;
        case op_class::branch:
            op.branch_taken = make_branch();
            break;
        case op_class::fp:
        case op_class::nop:
            break;
        }
        return op;
    }

private:
    [[nodiscard]] std::uint32_t make_encoding(op_class cls)
    {
        const std::uint32_t opcode = opcodes_[opcode_draw_(rng_)];
        std::uint32_t rs = static_cast<std::uint32_t>(rng_.uniform_below(32));
        std::uint32_t rt = static_cast<std::uint32_t>(rng_.uniform_below(32));
        if (rng_.bernoulli(character_.register_collision_fraction)) {
            // Colliding register index skewed toward low registers by the
            // thread's bias -- low registers enter the decode hazard chain
            // at its deepest position.
            const double u = rng_.uniform();
            rs = static_cast<std::uint32_t>(std::min(
                31.0, 32.0 * std::pow(u, character_.collision_low_register_bias)));
            rt = rs;
        }
        const std::uint32_t rd = static_cast<std::uint32_t>(rng_.uniform_below(32));
        std::uint32_t imm = static_cast<std::uint32_t>(rng_.uniform_below(1u << 11));
        // Two low bits communicate the logic-op variant to the stage tap.
        imm = (imm << 2) | static_cast<std::uint32_t>(static_cast<unsigned>(cls) & 0x3u);
        return (opcode << 26) | (rs << 21) | (rt << 16) | (rd << 11) | (imm & 0x7FF);
    }

    void fill_addsub_operands(arch::micro_op& op)
    {
        const double effective =
            std::min(1.0, character_.long_carry_fraction * interval_carry_scale_);
        if (!pending_carry_sensitizer_ && rng_.bernoulli(effective)) {
            // Start a carry-chain event: this op quiesces the adder (0 + 0);
            // the *next* SimpleALU op will be the (2^k - 1) + 1 pattern whose
            // carry ripple then actually transitions through k bits.
            op.cls = op_class::int_add;
            op.operand_a = 0;
            op.operand_b = 0;
            pending_carry_sensitizer_ = true;
            pending_carry_len_ =
                static_cast<std::uint32_t>(character_.carry_len_min + carry_len_draw_(rng_));
        } else {
            op.operand_a = rng_();
            op.operand_b = rng_();
        }
    }

    void fill_mul_operands(arch::micro_op& op)
    {
        const double effective =
            std::min(1.0, character_.mul_sensitize_fraction * interval_carry_scale_);
        if (!pending_mul_sensitizer_ && rng_.bernoulli(effective)) {
            // Start a multiplier-array event: (2^ka - 1) x 2^(kb-1) now,
            // then the next multiply increments the multiplier's LSB, so
            // the fresh bottom row's carry traverses ka columns and kb rows.
            pending_mul_bits_a_ = mul_bits();
            pending_mul_bits_b_ = mul_bits();
            op.operand_a = (1ull << pending_mul_bits_a_) - 1;
            op.operand_b = 1ull << (pending_mul_bits_b_ - 1);
            pending_mul_sensitizer_ = true;
            return;
        }
        const auto magnitude = [this]() {
            const std::uint32_t bits = mul_bits();
            const std::uint64_t cap = bits >= 64 ? ~0ull : (1ull << bits);
            return rng_.uniform_below(cap > 1 ? cap : 2);
        };
        op.operand_a = magnitude();
        op.operand_b = magnitude();
    }

    [[nodiscard]] std::uint64_t make_address()
    {
        if (rng_.bernoulli(character_.sequential_access_fraction)) {
            sequential_cursor_ = (sequential_cursor_ + 8) % character_.working_set_bytes;
        } else {
            sequential_cursor_ = address_draw_(rng_) & ~7ull;
        }
        return 0x10000000ull + sequential_cursor_;
    }

    [[nodiscard]] bool make_branch()
    {
        bool taken;
        if (rng_.bernoulli(character_.branch_repeat_fraction)) {
            taken = last_branch_;
        } else {
            taken = rng_.bernoulli(character_.branch_taken_bias);
        }
        last_branch_ = taken;
        return taken;
    }

    /// uniform_int(lo, hi)'s bound for uniform_below.
    static std::uint64_t inclusive_span(std::uint32_t lo, std::uint32_t hi) noexcept
    {
        return static_cast<std::uint64_t>(static_cast<std::int64_t>(hi) - lo) + 1;
    }

    /// rng_.uniform_int(mul_magnitude_min_bits, mul_magnitude_max_bits).
    [[nodiscard]] std::uint32_t mul_bits()
    {
        return static_cast<std::uint32_t>(character_.mul_magnitude_min_bits +
                                          mul_bits_draw_(rng_));
    }

    thread_character character_;
    util::xoshiro256 rng_;
    // The stream's fixed-bound draws, precomputed (same draws as
    // rng_.discrete / uniform_below / uniform_int).
    double mix_total_;
    util::bounded_draw opcode_draw_;
    util::bounded_draw address_draw_;
    util::bounded_draw carry_len_draw_;
    util::bounded_draw mul_bits_draw_;
    std::vector<std::uint32_t> opcodes_;
    std::uint64_t sequential_cursor_ = 0;
    double interval_carry_scale_ = 1.0;
    bool last_branch_ = false;
    bool pending_carry_sensitizer_ = false;
    std::uint32_t pending_carry_len_ = 0;
    bool pending_mul_sensitizer_ = false;
    std::uint32_t pending_mul_bits_a_ = 0;
    std::uint32_t pending_mul_bits_b_ = 0;
};

} // namespace

arch::program_trace generate_program_trace(const benchmark_profile& profile,
                                           std::uint64_t seed,
                                           const util::parallel_for_fn& parallel)
{
    if (profile.threads.size() != profile.thread_count ||
        profile.work_imbalance.size() != profile.thread_count) {
        throw std::invalid_argument("generate_program_trace: profile arrays inconsistent");
    }
    for (const thread_character& character : profile.threads) {
        if (character.opcode_variety == 0 || character.working_set_bytes == 0 ||
            character.carry_len_min > character.carry_len_max ||
            character.mul_magnitude_min_bits > character.mul_magnitude_max_bits) {
            throw std::invalid_argument(
                "generate_program_trace: a thread character needs opcode_variety >= 1, "
                "working_set_bytes >= 1 and ordered carry and multiplier ranges");
        }
    }

    // split() advances the root engine, so the per-thread stream seeds are
    // derived serially, in thread order, before any generation runs. The
    // per-thread work below then depends only on (profile, its seed) and may
    // execute in any order.
    util::xoshiro256 root(seed ^ profile.stream_salt);
    std::vector<std::uint64_t> stream_seeds(profile.thread_count);
    for (std::size_t t = 0; t < profile.thread_count; ++t) {
        util::xoshiro256 thread_rng = root.split(t);
        stream_seeds[t] = thread_rng();
    }

    arch::program_trace program;
    program.threads.resize(profile.thread_count);

    util::for_each_index(parallel, profile.thread_count, [&](std::size_t t) {
        thread_stream stream(profile.threads[t], stream_seeds[t]);
        arch::thread_trace& trace = program.threads[t];

        const auto interval_ops = static_cast<std::uint64_t>(
            std::llround(static_cast<double>(profile.instructions_per_interval) *
                         profile.work_imbalance[t]));

        // Exact-size: the trace is the largest allocation of a run, and a
        // doubling vector would leave up to half of it as slack.
        trace.ops.reserve(static_cast<std::size_t>(interval_ops) * profile.interval_count);
        trace.barrier_points.reserve(profile.interval_count);
        for (std::size_t k = 0; k < profile.interval_count; ++k) {
            stream.begin_interval(k);
            for (std::uint64_t i = 0; i < interval_ops; ++i) {
                trace.ops.push_back(stream.next());
            }
            trace.barrier_points.push_back(trace.ops.size());
        }
    });

    program.validate();
    return program;
}

} // namespace synts::workload
