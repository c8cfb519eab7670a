// Microbenchmark: optimizer runtime scaling.
//
// SynTS-Poly is O(M^2 QS log QS) per interval plus O(MQS) per theta -- the
// candidate set is theta-free, so a theta ladder builds it once and picks
// from it per rung -- polynomial, suitable for per-barrier online use,
// while exhaustive search is (QS)^M. This bench demonstrates the scaling
// claim on randomized instances, times one plan build and a 97-rung ladder
// through one plan, prices the (V, r) grid of a characterized error model,
// and measures the exact B&B solver (tests/reference_milp.h) for comparison.

#include <benchmark/benchmark.h>

#include <cmath>
#include <vector>

#include "../tests/reference_milp.h"
#include "../tests/solver_fixtures.h"
#include "core/experiment.h"
#include "core/solver.h"

namespace {

using synts::test::make_random_instance;

void bm_synts_poly_threads(benchmark::State& state)
{
    const auto m = static_cast<std::size_t>(state.range(0));
    auto inst = make_random_instance(m, 7, 6, 42 + m);
    for (auto _ : state) {
        benchmark::DoNotOptimize(synts::core::solve_synts_poly(inst.input));
    }
    state.SetComplexityN(static_cast<benchmark::IterationCount>(m));
}
BENCHMARK(bm_synts_poly_threads)->RangeMultiplier(2)->Range(2, 64)->Complexity();

void bm_synts_poly_grid(benchmark::State& state)
{
    const auto q = static_cast<std::size_t>(state.range(0));
    auto inst = make_random_instance(4, q, q, 77 + q);
    for (auto _ : state) {
        benchmark::DoNotOptimize(synts::core::solve_synts_poly(inst.input));
    }
    state.SetComplexityN(static_cast<benchmark::IterationCount>(q * q));
}
BENCHMARK(bm_synts_poly_grid)->DenseRange(2, 12, 2)->Complexity();

void bm_synts_poly_ladder(benchmark::State& state)
{
    // Perfbench's dense ladder: 2^(e/8) x the instance's theta, e = -48..48.
    auto inst = make_random_instance(4, 7, 6, 42);
    std::vector<double> thetas;
    for (int e = -48; e <= 48; ++e) {
        thetas.push_back(inst.input.theta * std::pow(2.0, e / 8.0));
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(synts::core::solve_synts_poly(inst.input, thetas));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<benchmark::IterationCount>(thetas.size()));
}
BENCHMARK(bm_synts_poly_ladder);

void bm_synts_plan(benchmark::State& state)
{
    // The theta-free half of Algorithm 1 at the paper's shape: M = 4
    // threads, Q = 7 voltages, S = 6 TSR levels.
    auto inst = make_random_instance(4, 7, 6, 42);
    for (auto _ : state) {
        benchmark::DoNotOptimize(synts::core::synts_plan(inst.input));
    }
}
BENCHMARK(bm_synts_plan);

void bm_error_lookup(benchmark::State& state)
{
    // All 42 (V, r) points of one characterized error model (Radix seed 42,
    // SimpleALU, thread 0, interval 0): the lookups a plan makes per thread.
    static const synts::core::benchmark_experiment experiment(
        synts::workload::benchmark_id::radix, synts::circuit::pipe_stage::simple_alu);
    const synts::core::empirical_error_model& model = experiment.error_model(0, 0);
    const synts::core::config_space& space = experiment.space();
    for (auto _ : state) {
        double sum = 0.0;
        for (std::size_t j = 0; j < space.voltage_count(); ++j) {
            for (std::size_t k = 0; k < space.tsr_count(); ++k) {
                sum += model.error_probability(j, space.tsr(k));
            }
        }
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<benchmark::IterationCount>(space.voltage_count() *
                                                                   space.tsr_count()));
}
BENCHMARK(bm_error_lookup);

void bm_branch_and_bound(benchmark::State& state)
{
    const auto m = static_cast<std::size_t>(state.range(0));
    auto inst = make_random_instance(m, 7, 6, 13 + m);
    for (auto _ : state) {
        benchmark::DoNotOptimize(synts::test::solve_branch_and_bound(inst.input));
    }
}
BENCHMARK(bm_branch_and_bound)->DenseRange(2, 8, 2);

void bm_exhaustive(benchmark::State& state)
{
    const auto m = static_cast<std::size_t>(state.range(0));
    auto inst = make_random_instance(m, 4, 4, 5 + m);
    for (auto _ : state) {
        benchmark::DoNotOptimize(synts::core::solve_exhaustive(inst.input));
    }
}
BENCHMARK(bm_exhaustive)->DenseRange(2, 4, 1);

void bm_per_core_ts(benchmark::State& state)
{
    auto inst = make_random_instance(4, 7, 6, 3);
    for (auto _ : state) {
        benchmark::DoNotOptimize(synts::core::solve_per_core_ts(inst.input));
    }
}
BENCHMARK(bm_per_core_ts);

} // namespace

BENCHMARK_MAIN();
