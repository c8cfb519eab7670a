#include "core/experiment.h"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/hashing.h"

namespace synts::core {

std::uint64_t experiment_config::workload_digest() const noexcept
{
    return core::workload_digest(thread_count, seed, characterization.core);
}

std::uint64_t experiment_config::digest() const noexcept
{
    util::digest_builder h;
    h.value(workload_digest());
    h.value(sampling.sample_fraction);
    h.value(sampling.sample_voltage_index);
    h.value(sampling.min_sample_instructions);
    h.value(characterization.histogram_bins);
    h.value(characterization.histogram_headroom);
    h.value(characterization.keep_sampling_trace);
    h.value(params.alpha_switching_cap);
    h.value(params.error_penalty_cycles);
    h.value(params.leakage_power);
    h.value(voltage_class_spread);
    return h.digest();
}

std::shared_ptr<const program_artifacts>
make_program_artifacts(const workload::workload_key& workload,
                       const experiment_config& config,
                       const util::parallel_for_fn& parallel)
{
    const workload::benchmark_profile profile =
        workload::workload_registry::global().make_profile(workload, config.thread_count);

    auto artifacts = std::make_shared<program_artifacts>();
    artifacts->workload = workload;
    artifacts->thread_count = config.thread_count;
    artifacts->seed = config.seed;
    artifacts->workload_digest = config.workload_digest();
    artifacts->trace = workload::generate_program_trace(profile, config.seed, parallel);
    artifacts->arch_profiles = arch::multicore_profiler(config.characterization.core)
                                   .profile(artifacts->trace, parallel);
    return artifacts;
}

namespace {

const program_artifacts&
checked_artifacts(const std::shared_ptr<const program_artifacts>& artifacts)
{
    if (!artifacts) {
        throw std::invalid_argument("benchmark_experiment: null program artifacts");
    }
    return *artifacts;
}

} // namespace

benchmark_experiment::benchmark_experiment(const workload::workload_key& workload,
                                           circuit::pipe_stage stage,
                                           const experiment_config& config)
    : benchmark_experiment(make_program_artifacts(workload, config), stage, config)
{
}

benchmark_experiment::benchmark_experiment(
    std::shared_ptr<const program_artifacts> artifacts, circuit::pipe_stage stage,
    const experiment_config& config, const util::parallel_for_fn& parallel)
    : workload_(checked_artifacts(artifacts).workload), stage_(stage), config_(config),
      lib_(circuit::cell_library::standard_22nm()), vm_(config.voltage_class_spread),
      engine_(config.sampling)
{
    if (artifacts->trace.thread_count() != config_.thread_count) {
        throw std::invalid_argument(
            "benchmark_experiment: artifacts/config thread count mismatch");
    }
    if (artifacts->workload_digest != config_.workload_digest()) {
        throw std::invalid_argument(
            "benchmark_experiment: artifacts/config workload mismatch (seed or "
            "core model differs -- results would be attributed to the wrong "
            "workload)");
    }

    const characterizer chars(lib_, vm_, config_.characterization);
    characterization_ = chars.characterize(*artifacts, stage, parallel);
    arch_profiles_ = artifacts->arch_profiles;

    space_ = config_space::paper_grid(characterization_.tnom_ps);

    error_models_.reserve(thread_count());
    for (std::size_t t = 0; t < characterization_.threads.size(); ++t) {
        std::vector<empirical_error_model> per_interval;
        per_interval.reserve(characterization_.threads[t].size());
        for (std::size_t k = 0; k < characterization_.threads[t].size(); ++k) {
            per_interval.push_back(characterization_.make_error_model(t, k));
            detail::check_tsr_grid(space_, per_interval.back());
        }
        error_models_.push_back(std::move(per_interval));
    }
}

std::size_t benchmark_experiment::interval_count() const noexcept
{
    return characterization_.threads.empty() ? 0 : characterization_.threads.front().size();
}

std::size_t benchmark_experiment::thread_count() const noexcept
{
    return characterization_.threads.size();
}

solver_input benchmark_experiment::make_solver_input(std::size_t interval,
                                                     double theta) const
{
    if (interval >= interval_count()) {
        throw std::out_of_range("benchmark_experiment: interval index");
    }
    solver_input input;
    input.space = &space_;
    input.params = config_.params;
    input.theta = theta;
    for (std::size_t t = 0; t < thread_count(); ++t) {
        const arch::interval_profile& p = arch_profiles_[t][interval];
        input.workloads.push_back(
            thread_workload{p.instruction_count, p.cpi_base});
        input.error_models.push_back(&error_models_[t][interval]);
    }
    return input;
}

double benchmark_experiment::equal_weight_theta() const
{
    double energy = 0.0;
    double time = 0.0;
    for (std::size_t k = 0; k < interval_count(); ++k) {
        const solver_input input = make_solver_input(k, 0.0);
        const interval_solution nominal = nominal_solution(input);
        energy += nominal.total_energy;
        time += nominal.exec_time_ps;
    }
    if (time <= 0.0) {
        throw std::logic_error("benchmark_experiment: degenerate nominal time");
    }
    return energy / time;
}

std::vector<interval_outcome>
benchmark_experiment::run_interval_ladder(policy_kind kind, std::size_t k,
                                          std::span<const double> thetas) const
{
    // The ladder ignores truth.theta; any in-range value does.
    const solver_input truth = make_solver_input(k, 0.0);
    std::vector<const interval_characterization*> sampling_data;
    if (kind == policy_kind::synts_online) {
        sampling_data.reserve(thread_count());
        for (std::size_t t = 0; t < thread_count(); ++t) {
            sampling_data.push_back(&characterization_.threads[t][k]);
        }
    }
    return engine_.run_interval_ladder(kind, truth, thetas, sampling_data);
}

benchmark_experiment::policy_sweep
benchmark_experiment::sweep_policy(policy_kind kind, double theta,
                                   std::span<const double> ladder) const
{
    std::vector<double> thetas;
    thetas.reserve(1 + ladder.size());
    thetas.push_back(theta);
    thetas.insert(thetas.end(), ladder.begin(), ladder.end());

    policy_sweep sweep;
    sweep.run.kind = kind;
    sweep.run.intervals.reserve(interval_count());
    sweep.ladder.resize(ladder.size());
    for (std::size_t k = 0; k < interval_count(); ++k) {
        std::vector<interval_outcome> outcomes = run_interval_ladder(kind, k, thetas);
        for (std::size_t t = 0; t < sweep.ladder.size(); ++t) {
            sweep.ladder[t].energy += outcomes[t + 1].energy;
            sweep.ladder[t].time_ps += outcomes[t + 1].time_ps;
        }
        sweep.run.sum.energy += outcomes.front().energy;
        sweep.run.sum.time_ps += outcomes.front().time_ps;
        sweep.run.intervals.push_back(std::move(outcomes.front()));
    }
    return sweep;
}

benchmark_experiment::policy_run benchmark_experiment::run_policy(policy_kind kind,
                                                                  double theta) const
{
    return std::move(sweep_policy(kind, theta, {}).run);
}

benchmark_experiment::policy_run
benchmark_experiment::run_synts_online_predicted(double theta, double smoothing) const
{
    policy_run run;
    run.kind = policy_kind::synts_online;
    run.intervals.reserve(interval_count());

    workload_predictor predictor(thread_count(), smoothing);
    for (std::size_t k = 0; k < interval_count(); ++k) {
        const solver_input truth = make_solver_input(k, theta);

        std::vector<const interval_characterization*> sampling_data;
        sampling_data.reserve(thread_count());
        for (std::size_t t = 0; t < thread_count(); ++t) {
            sampling_data.push_back(&characterization_.threads[t][k]);
        }

        const std::vector<thread_workload> decision =
            predictor.predict(truth.workloads);
        interval_outcome outcome =
            engine_.run_online_predicted(truth, sampling_data, decision);
        predictor.observe(truth.workloads);

        run.sum.energy += outcome.energy;
        run.sum.time_ps += outcome.time_ps;
        run.intervals.push_back(std::move(outcome));
    }
    return run;
}

std::vector<benchmark_experiment::policy_run>
benchmark_experiment::run_all_policies(double theta) const
{
    std::vector<policy_run> runs;
    runs.reserve(policy_count);
    for (const policy_kind kind : all_policies()) {
        runs.push_back(run_policy(kind, theta));
    }
    return runs;
}

std::vector<pareto_point> pareto_sweep(const benchmark_experiment& experiment,
                                       policy_kind kind,
                                       std::span<const double> theta_multipliers)
{
    const double theta_eq = experiment.equal_weight_theta();
    return pareto_sweep(experiment, kind, theta_multipliers, theta_eq,
                        experiment.run_policy(policy_kind::nominal, theta_eq));
}

std::vector<pareto_point> pareto_sweep(const benchmark_experiment& experiment,
                                       policy_kind kind,
                                       std::span<const double> theta_multipliers,
                                       const double theta_eq,
                                       const benchmark_experiment::policy_run& nominal)
{
    return evaluate_policy_cell(experiment, kind, theta_multipliers, theta_eq, nominal).pareto;
}

policy_cell evaluate_policy_cell(const benchmark_experiment& experiment, policy_kind kind,
                                 std::span<const double> theta_multipliers,
                                 const double theta_eq,
                                 const benchmark_experiment::policy_run& nominal)
{
    std::vector<double> thetas;
    thetas.reserve(theta_multipliers.size());
    for (const double multiplier : theta_multipliers) {
        thetas.push_back(theta_eq * multiplier);
    }
    benchmark_experiment::policy_sweep sweep = experiment.sweep_policy(kind, theta_eq, thetas);

    policy_cell cell;
    cell.equal_weight = std::move(sweep.run);
    cell.pareto.reserve(thetas.size());
    for (std::size_t t = 0; t < thetas.size(); ++t) {
        pareto_point p;
        p.theta = thetas[t];
        p.energy = sweep.ladder[t].energy / nominal.sum.energy;
        p.time = sweep.ladder[t].time_ps / nominal.sum.time_ps;
        cell.pareto.push_back(p);
    }
    return cell;
}

std::vector<double> default_theta_multipliers()
{
    // Log-spaced from 1/64x to 64x around the equal-weight theta: enough
    // range to trace out both the low-energy and the high-performance ends
    // of the Pareto front.
    std::vector<double> multipliers;
    for (int e = -6; e <= 6; ++e) {
        multipliers.push_back(std::pow(2.0, e));
    }
    return multipliers;
}

void detail::check_tsr_grid(const config_space& space, const empirical_error_model& model)
{
    for (std::size_t c = 0; c < model.corner_count(); ++c) {
        for (const double r : space.tsr_levels()) {
            if (!model.answers(c, r)) {
                throw std::invalid_argument(
                    "benchmark_experiment: TSR level " + std::to_string(r) +
                    " at corner " + std::to_string(c) +
                    " falls at or below the delay floor's histogram bin");
            }
        }
    }
}

} // namespace synts::core
