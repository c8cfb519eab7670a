#include "core/online_estimator.h"

#include <algorithm>
#include <stdexcept>

namespace synts::core {

estimated_error_curve::estimated_error_curve(std::vector<double> tsr_levels,
                                             std::vector<double> err_at_tsr)
    : tsr_levels_(std::move(tsr_levels)), err_at_tsr_(std::move(err_at_tsr))
{
    if (tsr_levels_.empty() || tsr_levels_.size() != err_at_tsr_.size()) {
        throw std::invalid_argument("estimated_error_curve: level arrays mismatch");
    }
}

double estimated_error_curve::error_probability(std::size_t /*voltage_index*/,
                                                double tsr) const
{
    // Voltage-independent: the paper's extrapolation err~(t_clk / t_nom(V))
    // reduces to err~(r).
    if (tsr <= tsr_levels_.front()) {
        return err_at_tsr_.front();
    }
    if (tsr >= tsr_levels_.back()) {
        return err_at_tsr_.back();
    }
    for (std::size_t k = 1; k < tsr_levels_.size(); ++k) {
        if (tsr <= tsr_levels_[k]) {
            const double t =
                (tsr - tsr_levels_[k - 1]) / (tsr_levels_[k] - tsr_levels_[k - 1]);
            return err_at_tsr_[k - 1] * (1.0 - t) + err_at_tsr_[k] * t;
        }
    }
    return err_at_tsr_.back();
}

estimated_error_curve sampling_result::make_curve(const config_space& space) const
{
    return estimated_error_curve(
        std::vector<double>(space.tsr_levels().begin(), space.tsr_levels().end()),
        err_estimates);
}

online_estimator::online_estimator(sampling_config config)
    : config_(config)
{
    if (config_.sample_fraction <= 0.0 || config_.sample_fraction > 1.0) {
        throw std::invalid_argument("online_estimator: sample_fraction out of (0, 1]");
    }
}

sampling_result online_estimator::sample_interval(const config_space& space,
                                                  const interval_characterization& data,
                                                  double cpi_base,
                                                  const energy::energy_params& params) const
{
    const std::size_t s = space.tsr_count();
    const std::size_t vsamp = config_.sample_voltage_index;
    if (vsamp >= space.voltage_count()) {
        throw std::invalid_argument("online_estimator: sampling voltage index");
    }
    if (data.sampling_delays_ps.size() != data.sampling_instr_index.size()) {
        throw std::invalid_argument("online_estimator: characterization lacks the "
                                    "sampling trace");
    }

    sampling_result result;
    result.err_estimates.assign(s, 0.0);
    result.errors.assign(s, 0);
    result.instructions.assign(s, 0);

    const std::uint64_t wanted = std::max<std::uint64_t>(
        config_.min_sample_instructions,
        static_cast<std::uint64_t>(config_.sample_fraction *
                                   static_cast<double>(data.instruction_count)));
    result.sampled_instructions = std::min<std::uint64_t>(wanted, data.instruction_count);
    const std::uint64_t chunk = std::max<std::uint64_t>(1, result.sampled_instructions / s);

    const double tnom_samp = space.tnom_ps(vsamp);
    const double vdd_samp = space.voltage(vsamp);

    // Level k sweeps instructions [k * chunk, (k+1) * chunk), both bounds
    // clamped to N_samp: an interval shorter than S - 1 instructions leaves
    // its last levels empty. The paper's Fig. 4.7 sweeps low frequency ->
    // high frequency; order does not change the estimates because chunks
    // are disjoint.
    const std::uint64_t sampled = result.sampled_instructions;
    std::size_t cursor = 0; // index into the vector-aligned delay trace
    for (std::size_t k = 0; k < s; ++k) {
        const std::uint64_t first_instr = std::min<std::uint64_t>(k * chunk, sampled);
        const std::uint64_t last_instr =
            (k + 1 == s) ? sampled : std::min<std::uint64_t>((k + 1) * chunk, sampled);
        result.instructions[k] = last_instr - first_instr;

        const double threshold = space.tsr(k) * tnom_samp;
        while (cursor < data.sampling_instr_index.size() &&
               data.sampling_instr_index[cursor] < last_instr) {
            if (data.sampling_instr_index[cursor] >= first_instr &&
                static_cast<double>(data.sampling_delays_ps[cursor]) > threshold) {
                ++result.errors[k];
            }
            ++cursor;
        }

        const double n = static_cast<double>(result.instructions[k]);
        const double p_hat =
            n == 0.0 ? 0.0 : static_cast<double>(result.errors[k]) / n;
        result.err_estimates[k] = p_hat;

        // Cost of this chunk: run at (V_samp, r_k) with the observed error
        // rate (Eqs. 4.1/4.3 applied to the chunk).
        const double t_clk = space.tsr(k) * tnom_samp;
        result.sampling_time_ps += energy::thread_execution_time(
            result.instructions[k], t_clk, p_hat, cpi_base, params.error_penalty_cycles);
        result.sampling_energy +=
            energy::thread_energy(params, vdd_samp, result.instructions[k], p_hat,
                                  cpi_base);
    }

    // err must be non-increasing in r; enforce monotonicity on the raw
    // estimates (isotonic pass), which also denoises small-sample jitter.
    for (std::size_t k = s; k-- > 1;) {
        if (result.err_estimates[k - 1] < result.err_estimates[k]) {
            result.err_estimates[k - 1] = result.err_estimates[k];
        }
    }
    return result;
}

} // namespace synts::core
