// splash2.h -- synthetic SPLASH-2 workload profiles.
//
// The paper characterizes ten SPLASH-2 benchmarks on a 4-core Alpha CMP
// (Section 5.4). SPLASH-2 binaries and gem5 are not available offline, so
// each benchmark is modeled as a *profile*: per-thread instruction mixes,
// operand-value distributions, memory/branch behavior, and barrier-interval
// structure. The profiles are calibrated so the cross-layer characterization
// reproduces the paper's qualitative facts:
//
//   * Radix, FMM, LU-contig, LU-ncontig, Barnes, Raytrace, Cholesky --
//     heterogeneous per-thread error-probability curves (Radix thread 0
//     roughly 4x the lowest thread, Fig. 3.5; FMM error scale ~1e-3 vs
//     Radix ~1e-1, Fig. 6.17).
//   * FFT, Ocean, Water-sp -- homogeneous curves across threads; FFT's
//     errors are so frequent that no useful speculation is possible
//     (Section 5.4), so these three are excluded from the reported seven.
//
// The operand-distribution knobs map to circuit behavior as follows.
// SimpleALU: two's-complement adds whose operands look like
// (2^k - 1) + small sensitize k-bit carry ripples -- `long_carry_fraction`
// and the k-range control how often and how deeply the carry chain is
// exercised. ComplexALU: multiplier path depth tracks operand magnitude
// (`mul_magnitude_*`). Decode: one-hot decoder + PLA toggling tracks opcode
// variety and rs==rt collisions (`opcode_variety`, `register_collision_fraction`).

#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "arch/isa.h"
#include "arch/trace.h"
#include "util/parallel.h"

namespace synts::workload {

/// The ten characterized CMP benchmarks.
enum class benchmark_id : std::uint8_t {
    fmm = 0,
    radix,
    lu_contig,
    lu_ncontig,
    fft,
    water_sp,
    barnes,
    raytrace,
    cholesky,
    ocean,
};

/// Number of modeled benchmarks.
inline constexpr std::size_t benchmark_count = 10;

/// Display name matching the paper's figures.
[[nodiscard]] std::string_view benchmark_name(benchmark_id id) noexcept;

/// All ten benchmarks.
[[nodiscard]] std::span<const benchmark_id> all_benchmarks() noexcept;

/// The seven benchmarks the paper reports results for (heterogeneous error
/// probabilities): Barnes, Cholesky, FMM, LU-contig, LU-ncontig, Radix,
/// Raytrace.
[[nodiscard]] std::span<const benchmark_id> reported_benchmarks() noexcept;

/// Per-thread behavioral character controlling operand/instruction streams.
struct thread_character {
    /// Instruction mix weights indexed by arch::op_class (unnormalized).
    std::array<double, arch::op_class_count> mix{};

    /// Rate of carry-chain sensitization events on the SimpleALU: each
    /// event emits a quiescent (0, 0) add followed by the (2^k - 1) + 1
    /// pattern, so the k-bit carry ripple is actually *toggled* (a long
    /// path only errors when a transition traverses it).
    double long_carry_fraction = 0.02;
    /// Inclusive range of the sensitized carry length k for those events.
    std::uint32_t carry_len_min = 12;
    std::uint32_t carry_len_max = 32;

    /// Rate of multiplier-array sensitization events on the ComplexALU:
    /// a (0, 0) multiply followed by (2^ka - 1) x (2^kb - 1).
    double mul_sensitize_fraction = 0.02;
    /// Multiplier operand magnitude: leading-one position is drawn
    /// uniformly from [mul_magnitude_min_bits, mul_magnitude_max_bits]
    /// (also the range of ka/kb for sensitization events).
    std::uint32_t mul_magnitude_min_bits = 4;
    std::uint32_t mul_magnitude_max_bits = 16;

    /// Number of distinct static opcodes the thread cycles through (1..64);
    /// higher variety toggles more decoder paths.
    std::uint32_t opcode_variety = 16;
    /// Fraction of instructions encoding rs == rt (sensitizes the decode
    /// stage's hazard-detection chain).
    double register_collision_fraction = 0.05;
    /// Skew of the colliding register's index: the index is
    /// floor(32 * u^bias), so bias = 1 is uniform and larger values favor
    /// low-numbered registers -- which enter the decode hazard chain at its
    /// deepest point.
    double collision_low_register_bias = 1.0;

    /// Memory behavior: bytes touched (working set) and the probability an
    /// access is sequential rather than random within the set.
    std::uint64_t working_set_bytes = 1 << 20;
    double sequential_access_fraction = 0.7;

    /// Branch behavior: probability a branch is taken, and probability the
    /// direction repeats the previous one (predictability).
    double branch_taken_bias = 0.6;
    double branch_repeat_fraction = 0.85;
};

/// Full benchmark profile: per-thread characters plus interval structure.
/// Produced by make_profile for the built-in ten and by the lock_ladder
/// family's factory (workload/scenarios.h) for its instances.
struct benchmark_profile {
    benchmark_id id = benchmark_id::fmm; ///< meaningful for built-ins only
    std::string name;
    /// Salt XORed into the trace-generation seed so distinct workloads draw
    /// from distinct RNG streams even at equal seeds. make_profile sets it
    /// to (benchmark ordinal << 32) -- the exact pre-registry value, so the
    /// built-in traces are bit-identical to every earlier release; the
    /// lock_ladder factory uses its (family, params) identity digest.
    std::uint64_t stream_salt = 0;
    std::size_t thread_count = 4;
    std::size_t interval_count = 3; ///< paper: 3 barrier intervals or completion
    std::uint64_t instructions_per_interval = 20000; ///< per thread, before imbalance
    std::vector<thread_character> threads;
    /// Per-thread work multiplier on N_i (1.0 = perfectly balanced).
    std::vector<double> work_imbalance;
};

/// The calibrated profile of `id` for `thread_count` threads (the CMP study
/// uses 4). Threads beyond the calibrated set repeat cyclically.
[[nodiscard]] benchmark_profile make_profile(benchmark_id id, std::size_t thread_count = 4);

/// Generates the full program trace (all threads, all intervals) for a
/// profile. Deterministic in (profile, seed). Per-thread stream seeds are
/// derived serially before any generation, so `parallel` (which fans the
/// per-thread generation out) cannot change the result: output is
/// bit-identical to the serial path for any executor.
[[nodiscard]] arch::program_trace generate_program_trace(const benchmark_profile& profile,
                                                         std::uint64_t seed,
                                                         const util::parallel_for_fn& parallel = {});

} // namespace synts::workload
