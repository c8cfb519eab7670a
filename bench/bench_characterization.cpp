// bench_characterization -- phase timings of the staged characterization
// pipeline.
//
// Times each pipeline phase (trace generation, architectural profiling,
// per-stage timing simulation) serial vs pool-parallel, the scalar vs
// 64-lane batched stepping kernel (the hot-path vectorization), the
// chunked-grain parallel path at one worker (whose partition -- one chunk
// per thread, no warm-up replay -- is asserted from the characterizer's
// counters, not timed), plus the end-to-end win of the
// two-tier cache: all three pipe stages of one benchmark through shared
// program artifacts vs three naive from-scratch constructions. While
// timing, it also re-checks the bit-identity contract (parallel and batched
// paths must equal the scalar serial walk exactly) and exits non-zero on
// any mismatch, so a regression fails CI instead of being recorded in the
// artifact.
//
// Perf comparisons are interleaved best-of rounds (alternating order, each
// path's minimum): single-shot timings on a shared CI box drift by more
// than the effects under test, and minima of alternating rounds compare
// the code, not the neighbor's load.
//
// On a 1-hardware-thread host the pool-parallel comparison phases are
// skipped (and annotated in the JSON): a 1-worker pool measures scheduling
// overhead, not parallel speedup. The batched-kernel and 1-worker-chunk
// gates still run -- they are single-threaded statements.
//
// Output: one JSON document on stdout (scripts/run_benches.sh captures it
// as BENCH_characterization.json). Human-readable progress goes to stderr.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "circuit/dynamic_timing.h"
#include "core/experiment.h"
#include "obs/metrics.h"
#include "runtime/experiment_cache.h"
#include "runtime/thread_pool.h"
#include "workload/registry.h"

namespace {

using namespace synts;

double seconds_since(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

bool same_trace(const arch::program_trace& a, const arch::program_trace& b)
{
    if (a.thread_count() != b.thread_count()) {
        return false;
    }
    for (std::size_t t = 0; t < a.thread_count(); ++t) {
        if (a.threads[t].barrier_points != b.threads[t].barrier_points ||
            a.threads[t].ops.size() != b.threads[t].ops.size()) {
            return false;
        }
        for (std::size_t n = 0; n < a.threads[t].ops.size(); ++n) {
            const arch::micro_op& x = a.threads[t].ops[n];
            const arch::micro_op& y = b.threads[t].ops[n];
            if (x.cls != y.cls || x.encoding != y.encoding ||
                x.operand_a != y.operand_a || x.operand_b != y.operand_b ||
                x.address != y.address || x.branch_taken != y.branch_taken) {
                return false;
            }
        }
    }
    return true;
}

bool same_profiles(const std::vector<arch::thread_profile>& a,
                   const std::vector<arch::thread_profile>& b)
{
    if (a.size() != b.size()) {
        return false;
    }
    for (std::size_t t = 0; t < a.size(); ++t) {
        if (a[t].size() != b[t].size()) {
            return false;
        }
        for (std::size_t k = 0; k < a[t].size(); ++k) {
            if (a[t][k].instruction_count != b[t][k].instruction_count ||
                a[t][k].base_cycles != b[t][k].base_cycles ||
                a[t][k].cpi_base != b[t][k].cpi_base ||
                a[t][k].dcache_miss_rate != b[t][k].dcache_miss_rate ||
                a[t][k].branch_misprediction_rate != b[t][k].branch_misprediction_rate) {
                return false;
            }
        }
    }
    return true;
}

bool same_characterization(const core::stage_characterization& a,
                           const core::stage_characterization& b)
{
    if (a.tnom_ps != b.tnom_ps || a.threads.size() != b.threads.size()) {
        return false;
    }
    for (std::size_t t = 0; t < a.threads.size(); ++t) {
        if (a.threads[t].size() != b.threads[t].size()) {
            return false;
        }
        for (std::size_t k = 0; k < a.threads[t].size(); ++k) {
            const auto& x = a.threads[t][k];
            const auto& y = b.threads[t][k];
            if (x.vector_count != y.vector_count ||
                x.sampling_delays_ps != y.sampling_delays_ps) {
                return false;
            }
            for (std::size_t c = 0; c < x.delay_histograms.size(); ++c) {
                for (std::size_t i = 0; i < x.delay_histograms[c].bin_count(); ++i) {
                    if (x.delay_histograms[c].count_at(i) !=
                        y.delay_histograms[c].count_at(i)) {
                        return false;
                    }
                }
            }
        }
    }
    return true;
}

} // namespace

int main()
{
    constexpr auto kBenchmark = workload::benchmark_id::radix;
    constexpr std::uint64_t kSeed = 42;
    const core::experiment_config config;

    runtime::thread_pool pool;
    const util::parallel_for_fn parallel = runtime::make_parallel_for(pool);

    std::vector<std::pair<std::string, double>> phases;
    bool identity_ok = true;
    const auto timed = [&phases](const std::string& name, const auto& body) {
        const auto t0 = std::chrono::steady_clock::now();
        body();
        const double s = seconds_since(t0);
        phases.emplace_back(name, s);
        std::fprintf(stderr, "%-32s %8.3f s\n", name.c_str(), s);
        return s;
    };

    // A 1-hardware-thread host cannot demonstrate pool speedups; the
    // *_parallel comparison phases are skipped and listed in the JSON so
    // the artifact says why they are absent.
    const bool single_hw_thread = std::thread::hardware_concurrency() <= 1;
    std::vector<std::string> skipped_phases;
    const auto skip = [&](const char* name) {
        skipped_phases.emplace_back(name);
        std::fprintf(stderr, "%-32s  skipped (hardware_concurrency == 1)\n", name);
    };

    // Phase 1: workload trace generation.
    const workload::benchmark_profile profile =
        workload::make_profile(kBenchmark, config.thread_count);
    arch::program_trace trace_serial;
    timed("trace_generation_serial",
          [&] { trace_serial = workload::generate_program_trace(profile, kSeed); });
    if (single_hw_thread) {
        skip("trace_generation_parallel");
    } else {
        arch::program_trace trace_parallel;
        timed("trace_generation_parallel", [&] {
            trace_parallel = workload::generate_program_trace(profile, kSeed, parallel);
        });
        identity_ok = identity_ok && same_trace(trace_serial, trace_parallel);
    }

    // Phase 2: architectural profiling.
    arch::multicore_profiler profiler(config.characterization.core);
    std::vector<arch::thread_profile> profiles_serial;
    timed("arch_profile_serial", [&] { profiles_serial = profiler.profile(trace_serial); });
    if (single_hw_thread) {
        skip("arch_profile_parallel");
    } else {
        std::vector<arch::thread_profile> profiles_parallel;
        timed("arch_profile_parallel",
              [&] { profiles_parallel = profiler.profile(trace_serial, parallel); });
        identity_ok = identity_ok && same_profiles(profiles_serial, profiles_parallel);
    }

    // Phase 3: per-stage timing simulation, serial vs chunked fan-out, on
    // shared artifacts.
    core::program_artifacts artifacts;
    artifacts.workload = kBenchmark;
    artifacts.thread_count = config.thread_count;
    artifacts.seed = kSeed;
    artifacts.trace = std::move(trace_serial);
    artifacts.arch_profiles = std::move(profiles_serial);

    const auto lib = circuit::cell_library::standard_22nm();
    const circuit::voltage_model vm(config.voltage_class_spread);
    const core::characterizer chars(lib, vm, config.characterization);

    core::stage_characterization stage_serial;
    timed("stage_characterization_serial", [&] {
        stage_serial = chars.characterize(artifacts, circuit::pipe_stage::simple_alu);
    });
    if (single_hw_thread) {
        skip("stage_characterization_parallel");
    } else {
        core::stage_characterization stage_parallel;
        timed("stage_characterization_parallel", [&] {
            stage_parallel = chars.characterize(artifacts, circuit::pipe_stage::simple_alu,
                                                parallel, pool.worker_count());
        });
        identity_ok = identity_ok && same_characterization(stage_serial, stage_parallel);
    }

    // Phase 3b: the batched 64-lane stepping kernel vs the scalar
    // reference walk, both serial, interleaved best-of. This is THE gate
    // of the hot-path vectorization: the batched path must be bit-identical
    // AND >= 1.25x faster (ratio <= 0.8); the as-measured design target is
    // 1.5x, recorded alongside.
    core::characterization_config scalar_cfg = config.characterization;
    scalar_cfg.batched = false;
    const core::characterizer chars_scalar(lib, vm, scalar_cfg);
    constexpr int kKernelRounds = 2;
    double scalar_best = 0.0;
    double batched_best = 0.0;
    core::stage_characterization batched_result;
    {
        const auto measure = [&](const auto& body) {
            const auto t0 = std::chrono::steady_clock::now();
            body();
            return seconds_since(t0);
        };
        for (int round = 0; round < kKernelRounds; ++round) {
            double scalar_s = 0.0;
            double batched_s = 0.0;
            const auto run_scalar = [&] {
                stage_serial =
                    chars_scalar.characterize(artifacts, circuit::pipe_stage::simple_alu);
            };
            const auto run_batched = [&] {
                batched_result =
                    chars.characterize(artifacts, circuit::pipe_stage::simple_alu);
            };
            if (round % 2 == 0) {
                scalar_s = measure(run_scalar);
                batched_s = measure(run_batched);
            } else {
                batched_s = measure(run_batched);
                scalar_s = measure(run_scalar);
            }
            std::fprintf(stderr,
                         "round %d: characterization_scalar %.3f s, "
                         "characterization_batched %.3f s\n",
                         round, scalar_s, batched_s);
            scalar_best = round == 0 ? scalar_s : std::min(scalar_best, scalar_s);
            batched_best = round == 0 ? batched_s : std::min(batched_best, batched_s);
        }
    }
    phases.emplace_back("characterization_scalar", scalar_best);
    phases.emplace_back("characterization_batched", batched_best);
    std::fprintf(stderr, "%-32s %8.3f s\n", "characterization_scalar", scalar_best);
    std::fprintf(stderr, "%-32s %8.3f s\n", "characterization_batched", batched_best);
    identity_ok = identity_ok && same_characterization(stage_serial, batched_result);

    std::uint64_t total_vectors = 0;
    for (const auto& thread : batched_result.threads) {
        for (const auto& cell : thread) {
            total_vectors += cell.vector_count;
        }
    }
    const double vectors_per_second =
        batched_best > 0.0 ? static_cast<double>(total_vectors) / batched_best : 0.0;
    const double batched_over_scalar =
        scalar_best > 0.0 ? batched_best / scalar_best : 0.0;
    const bool batched_ok = batched_over_scalar <= 0.8;
    if (!batched_ok) {
        std::fprintf(stderr,
                     "FAIL: batched characterization not >= 1.25x scalar "
                     "(%.3f s vs %.3f s, ratio %.3f > 0.8)\n",
                     batched_best, scalar_best, batched_over_scalar);
    }

    // Phase 3c: the chunked-grain parallel path at ONE worker must
    // degenerate to the serial walk -- one chunk per thread, no warm-up
    // replay. That is a structural statement, so it is asserted from the
    // characterizer's own partition counters rather than timed: the
    // 1-worker pool plus the helping caller runs chunks on two threads, so
    // a timing ratio against the serial walk measured the host's core
    // count (about 0.5x on 4 cores, noise around 1.05x on 1 core).
    std::uint64_t chunked_1w_chunks = 0;
    std::uint64_t chunked_1w_warmups = 0;
    {
        runtime::thread_pool pool_1w(1);
        const util::parallel_for_fn parallel_1w = runtime::make_parallel_for(pool_1w);
        obs::metrics_registry& registry = obs::metrics_registry::global();
        const obs::counter& chunks = registry.counter_at("characterize.chunks");
        const obs::counter& warmups = registry.counter_at("characterize.warmup_steps");
        const std::uint64_t chunks_before = chunks.value();
        const std::uint64_t warmups_before = warmups.value();
        core::stage_characterization chunked_result;
        timed("characterization_chunked_1w", [&] {
            chunked_result = chars.characterize(artifacts, circuit::pipe_stage::simple_alu,
                                                parallel_1w, 1);
        });
        chunked_1w_chunks = chunks.value() - chunks_before;
        chunked_1w_warmups = warmups.value() - warmups_before;
        identity_ok = identity_ok && same_characterization(batched_result, chunked_result);
    }
    const bool chunked_1w_ok =
        chunked_1w_chunks == artifacts.trace.thread_count() && chunked_1w_warmups == 0;
    if (!chunked_1w_ok) {
        std::fprintf(stderr,
                     "FAIL: 1-worker chunked path is not the serial walk "
                     "(%llu chunks for %zu threads, %llu warm-up steps)\n",
                     static_cast<unsigned long long>(chunked_1w_chunks),
                     artifacts.trace.thread_count(),
                     static_cast<unsigned long long>(chunked_1w_warmups));
    }

    // Phase 3d: a second workload shape -- the lock_ladder registry
    // scenario -- so the speedup artifact is not a Radix-only statement.
    // Recorded, not gated: the gate stays on Radix (the calibrated
    // reference) while lock_ladder's convoy structure exercises sparse
    // driving patterns (many non-driving ops between ALU vectors).
    double ll_scalar_best = 0.0;
    double ll_batched_best = 0.0;
    {
        const workload::workload_key ll_key =
            workload::workload_registry::global().key("lock_ladder");
        const core::program_characterizer pc(config.characterization.core);
        const core::program_artifacts ll_artifacts =
            pc.characterize(ll_key, config.thread_count, kSeed);
        core::stage_characterization ll_scalar;
        core::stage_characterization ll_batched;
        const auto measure = [&](const auto& body) {
            const auto t0 = std::chrono::steady_clock::now();
            body();
            return seconds_since(t0);
        };
        for (int round = 0; round < kKernelRounds; ++round) {
            double scalar_s = 0.0;
            double batched_s = 0.0;
            const auto run_scalar = [&] {
                ll_scalar = chars_scalar.characterize(ll_artifacts,
                                                      circuit::pipe_stage::simple_alu);
            };
            const auto run_batched = [&] {
                ll_batched =
                    chars.characterize(ll_artifacts, circuit::pipe_stage::simple_alu);
            };
            if (round % 2 == 0) {
                scalar_s = measure(run_scalar);
                batched_s = measure(run_batched);
            } else {
                batched_s = measure(run_batched);
                scalar_s = measure(run_scalar);
            }
            std::fprintf(stderr,
                         "round %d: lock_ladder_scalar %.3f s, "
                         "lock_ladder_batched %.3f s\n",
                         round, scalar_s, batched_s);
            ll_scalar_best = round == 0 ? scalar_s : std::min(ll_scalar_best, scalar_s);
            ll_batched_best = round == 0 ? batched_s : std::min(ll_batched_best, batched_s);
        }
        identity_ok = identity_ok && same_characterization(ll_scalar, ll_batched);
    }
    phases.emplace_back("lock_ladder_scalar", ll_scalar_best);
    phases.emplace_back("lock_ladder_batched", ll_batched_best);
    std::fprintf(stderr, "%-32s %8.3f s\n", "lock_ladder_scalar", ll_scalar_best);
    std::fprintf(stderr, "%-32s %8.3f s\n", "lock_ladder_batched", ll_batched_best);
    const double ll_batched_over_scalar =
        ll_scalar_best > 0.0 ? ll_batched_best / ll_scalar_best : 0.0;

    // Phase 4: end-to-end -- three naive from-scratch constructions vs the
    // two-tier cache sharing one artifact set across all three pipe
    // stages. Measured as interleaved rounds with alternating order,
    // comparing each path's BEST round: the work the staged path saves
    // (one trace generation + profiling instead of three) is a few percent
    // of a round, while single-shot timings on a shared CI box drift by
    // more than that -- a one-shot comparison once recorded the staged
    // path "losing" to the path it exists to beat purely from measurement
    // ordering. Minima of alternating rounds compare the code, not the
    // neighbor's load; the 1.05 bound then turns any real reintroduced
    // per-miss overhead (artifact copies, redundant tnom/STA work) into a
    // CI failure instead of a silently recorded artifact.
    const auto run_naive = [&] {
        for (std::size_t s = 0; s < circuit::pipe_stage_count; ++s) {
            const core::benchmark_experiment experiment(
                kBenchmark, static_cast<circuit::pipe_stage>(s), config);
            (void)experiment.interval_count();
        }
    };
    bool cache_shared_ok = true;
    const auto run_staged = [&] {
        runtime::experiment_cache cache; // fresh per round: time the miss path
        for (std::size_t s = 0; s < circuit::pipe_stage_count; ++s) {
            const auto experiment = cache.get_or_create(
                kBenchmark, static_cast<circuit::pipe_stage>(s), config, &pool);
            (void)experiment->interval_count();
        }
        cache_shared_ok = cache_shared_ok && cache.program_miss_count() == 1 &&
                          cache.program_compute_count() == 1 &&
                          cache.miss_count() == circuit::pipe_stage_count;
    };
    constexpr int kRounds = 2;
    double naive_best = 0.0;
    double staged_best = 0.0;
    for (int round = 0; round < kRounds; ++round) {
        const auto measure = [&](const auto& body) {
            const auto t0 = std::chrono::steady_clock::now();
            body();
            return seconds_since(t0);
        };
        double naive_s = 0.0;
        double staged_s = 0.0;
        if (round % 2 == 0) {
            naive_s = measure(run_naive);
            staged_s = measure(run_staged);
        } else {
            staged_s = measure(run_staged);
            naive_s = measure(run_naive);
        }
        std::fprintf(stderr, "round %d: all_stages_naive %.3f s, "
                             "all_stages_staged_cache %.3f s\n",
                     round, naive_s, staged_s);
        naive_best = round == 0 ? naive_s : std::min(naive_best, naive_s);
        staged_best = round == 0 ? staged_s : std::min(staged_best, staged_s);
    }
    phases.emplace_back("all_stages_naive", naive_best);
    phases.emplace_back("all_stages_staged_cache", staged_best);
    std::fprintf(stderr, "%-32s %8.3f s\n", "all_stages_naive", naive_best);
    std::fprintf(stderr, "%-32s %8.3f s\n", "all_stages_staged_cache", staged_best);

    identity_ok = identity_ok && cache_shared_ok;
    if (!cache_shared_ok) {
        std::fprintf(stderr,
                     "FAIL: program tier did not share artifacts across stages\n");
    }
    // The regression gate: the staged path must never lose to the path it
    // was built to beat (5% grace for residual timer noise).
    const bool staged_ok = staged_best <= naive_best * 1.05;
    if (!staged_ok) {
        std::fprintf(stderr,
                     "FAIL: staged cache slower than naive constructions "
                     "(%.3f s vs %.3f s, bound %.3f s)\n",
                     staged_best, naive_best, naive_best * 1.05);
    }

    // delay_kernel names the step_batch instantiation this CPU ran, so
    // vectors_per_second is read against the right ISA.
    std::printf("{\n  \"benchmark\": \"%s\",\n  \"workers\": %zu,\n"
                "  \"hardware_concurrency\": %u,\n  \"delay_kernel\": \"%s\",\n"
                "  \"phases\": [\n",
                std::string(workload::benchmark_name(kBenchmark)).c_str(),
                pool.worker_count(), std::thread::hardware_concurrency(),
                circuit::detail::active_delay_kernel().name);
    for (std::size_t i = 0; i < phases.size(); ++i) {
        std::printf("    {\"name\": \"%s\", \"seconds\": %.6f}%s\n",
                    phases[i].first.c_str(), phases[i].second,
                    i + 1 < phases.size() ? "," : "");
    }
    std::printf("  ],\n  \"skipped_phases\": [");
    for (std::size_t i = 0; i < skipped_phases.size(); ++i) {
        std::printf("%s\"%s\"", i == 0 ? "" : ", ", skipped_phases[i].c_str());
    }
    // identity_ok means bit-identity ONLY; each perf gate gets its own
    // field so a timing regression is never triaged as a determinism bug.
    // batched_speedup_target is the design goal (1.5x); batched_ok gates
    // the conservative floor (>= 1.25x, i.e. ratio <= 0.8) so CI noise
    // does not flap the build while real kernel regressions still fail.
    std::printf("],\n  \"skip_reason\": %s,\n",
                skipped_phases.empty() ? "null" : "\"hardware_concurrency == 1\"");
    std::printf("  \"vectors_per_second\": %.1f,\n", vectors_per_second);
    std::printf("  \"batched_over_scalar\": %.4f,\n", batched_over_scalar);
    std::printf("  \"batched_speedup_measured\": %.4f,\n",
                batched_over_scalar > 0.0 ? 1.0 / batched_over_scalar : 0.0);
    std::printf("  \"batched_speedup_target\": 1.5,\n");
    std::printf("  \"batched_ok\": %s,\n", batched_ok ? "true" : "false");
    std::printf("  \"chunked_1w_chunks\": %llu,\n",
                static_cast<unsigned long long>(chunked_1w_chunks));
    std::printf("  \"chunked_1w_warmup_steps\": %llu,\n",
                static_cast<unsigned long long>(chunked_1w_warmups));
    std::printf("  \"chunked_1w_ok\": %s,\n", chunked_1w_ok ? "true" : "false");
    std::printf("  \"lock_ladder_batched_over_scalar\": %.4f,\n", ll_batched_over_scalar);
    std::printf("  \"staged_over_naive\": %.4f,\n  \"staged_ok\": %s,\n"
                "  \"identity_ok\": %s\n}\n",
                naive_best > 0.0 ? staged_best / naive_best : 0.0,
                staged_ok ? "true" : "false", identity_ok ? "true" : "false");

    if (!identity_ok) {
        std::fprintf(stderr,
                     "FAIL: a parallel or batched characterization diverged from "
                     "the scalar serial walk\n");
        return 1;
    }
    return (staged_ok && batched_ok && chunked_1w_ok) ? 0 : 1;
}
