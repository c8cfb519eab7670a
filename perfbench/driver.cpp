// driver.cpp -- in-process workloads of the SynTS performance benchmark.
//
// run.py builds this binary next to synts_runner and drives both; NOTES.md
// describes the workloads and every metric. Each mode writes
// OUT/result.json (raw measurements, which run.py turns into metrics) and
// the deterministic sweep documents it produced, each distinct document
// once as OUT/<prefix>_<i>.json with its repeat count.
//
//   serial   canonical_cold_serial: the canonical 105-cell sweep on the
//            calling thread -- no pool, no cache -- through the public core
//            calls the sweep scheduler makes, pass after pass until
//            --seconds elapse (at least one pass). --setup-only stops where
//            the timed phase would begin; --trace adds the layers pass
//            (the traced run of both canonical workloads).
//   warm     warm_eval: characterizes the 21 canonical pairs into a fresh
//            experiment_cache, then runs sweep_scheduler::run on the warm
//            cache with a dense theta ladder until --seconds elapse.
//            --cross-check also evaluates the warm experiments serially;
//            --trace adds the cache-hit probe and serial evaluations of the
//            warm experiments, alternately plain and with spans.
//
// The layers pass is the serial sweep with a span around every public call
// it makes, followed per pair by replays that split the time of the calls
// it cannot see into: the constructor's error models and config space, and
// the characterizer's hot loop through stage_tap::extract_batch,
// dynamic_timing_simulator::step_batch and histogram::add. Nothing is
// traced inside the program.
//
// Usage: perfbench_driver serial|warm --out DIR [--seed N]
//        [--seconds S] [--workers W] [--trace] [--setup-only] [--cross-check]
// PERFBENCH_FAULT=recharacterize (warm) empties the cache before every
// timed sweep -- the regression the warm self-check must reject.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "arch/multicore.h"
#include "arch/stage_taps.h"
#include "circuit/cell_library.h"
#include "circuit/dynamic_timing.h"
#include "circuit/netlist_builder.h"
#include "circuit/voltage_model.h"
#include "core/config_space.h"
#include "core/experiment.h"
#include "obs/metrics.h"
#include "runtime/experiment_cache.h"
#include "runtime/sweep.h"
#include "runtime/sweep_io.h"
#include "runtime/thread_pool.h"
#include "util/hashing.h"
#include "util/histogram.h"
#include "workload/registry.h"

namespace {

using namespace synts;

/// CLOCK_MONOTONIC seconds -- the clock Python's time.monotonic() reads, so
/// run.py can time process start-up against marks taken here.
double mono_s()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// User + system CPU seconds of this process, all threads.
double process_cpu_s()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto seconds = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double median(std::vector<double> values)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Metric-name tokens of the policies in policy_kind order (the sweep
/// JSON's spelling).
constexpr std::array<std::string_view, core::policy_count> policy_tokens = {
    "nominal", "no_ts", "per_core_ts", "synts_offline", "synts_online"};

std::string policy_token(core::policy_kind kind)
{
    return std::string(policy_tokens.at(static_cast<std::size_t>(kind)));
}

/// The program's own count of vectors driven through step_batch.
std::uint64_t characterized_vectors()
{
    return obs::metrics_registry::global().counter_at("characterize.vectors").value();
}

/// The default ladder's 2^-6..2^6 range at an eighth of its step (97
/// multipliers), so policy evaluation outweighs the pair setup.
std::vector<double> dense_ladder()
{
    std::vector<double> ladder;
    for (int e = -48; e <= 48; ++e) {
        ladder.push_back(std::pow(2.0, e / 8.0));
    }
    return ladder;
}

/// What `synts_runner --benchmarks=reported --ladder=...` sweeps: the
/// paper's seven workloads x three stages x five policies.
runtime::sweep_spec canonical_spec(std::uint64_t seed, std::vector<double> ladder)
{
    runtime::sweep_spec spec;
    spec.benchmarks =
        runtime::parse_workload_list(workload::workload_registry::global(), "reported");
    spec.stages = runtime::parse_stage_list("all");
    const auto policies = core::all_policies();
    spec.policies.assign(policies.begin(), policies.end());
    spec.theta_multipliers = std::move(ladder);
    spec.config.seed = seed;
    return spec;
}

/// Host seconds per span name, for spans this file opens around public
/// calls (one thread, no nesting).
class span_totals {
public:
    void add(std::string_view name, double seconds)
    {
        totals_[std::string(name)] += seconds;
    }

    [[nodiscard]] double get(std::string_view name) const
    {
        const auto it = totals_.find(std::string(name));
        return it == totals_.end() ? 0.0 : it->second;
    }

    /// Divides every total by `n`: totals over n repeats become per-repeat.
    void divide(double n)
    {
        for (auto& [name, seconds] : totals_) {
            seconds /= n;
        }
    }

private:
    std::map<std::string, double> totals_;
};

/// Runs `call()`; with a span sink, records its host time under `name`.
template <typename Call>
auto timed(span_totals* spans, std::string_view name, Call&& call) -> decltype(call())
{
    if (spans == nullptr) {
        return call();
    }
    const double start = mono_s();
    if constexpr (std::is_void_v<decltype(call())>) {
        call();
        spans->add(name, mono_s() - start);
    } else {
        auto value = call();
        spans->add(name, mono_s() - start);
        return value;
    }
}

/// A result shell for `spec`: the spec echo, its digest and empty cells.
runtime::sweep_result empty_result(const runtime::sweep_spec& spec)
{
    runtime::sweep_result result;
    result.spec = spec;
    result.spec_digest = spec.digest();
    result.cells.resize(spec.task_count());
    return result;
}

/// Computes pair `p`'s cells exactly as sweep_scheduler::run does -- same
/// calls, same order, same task seeds -- into their pre-assigned slots.
void evaluate_pair(const runtime::sweep_spec& spec, std::size_t p,
                   const runtime::benchmark_stage& pair,
                   const core::benchmark_experiment& experiment,
                   runtime::sweep_result& result, span_totals* spans)
{
    const std::vector<double>& ladder = spec.theta_multipliers;
    const double theta_eq = timed(spans, "core.equal_weight_theta",
                                  [&] { return experiment.equal_weight_theta(); });
    core::benchmark_experiment::policy_run nominal;
    if (!ladder.empty()) {
        nominal = timed(spans, "core.run_policy:nominal", [&] {
            return experiment.run_policy(core::policy_kind::nominal, theta_eq);
        });
    }
    const std::size_t policy_count = spec.policies.size();
    for (std::size_t q = 0; q < policy_count; ++q) {
        const std::size_t index = p * policy_count + q;
        runtime::sweep_cell& cell = result.cells[index];
        cell.workload = pair.first;
        cell.stage = pair.second;
        cell.policy = spec.policies[q];
        cell.task_seed = util::hash_mix(spec.config.seed, index);
        cell.theta_eq = theta_eq;
        const std::string token = policy_token(cell.policy);
        if (cell.policy == core::policy_kind::nominal && !ladder.empty()) {
            cell.equal_weight = nominal;
        } else {
            cell.equal_weight = timed(spans, "core.run_policy:" + token, [&] {
                return experiment.run_policy(cell.policy, theta_eq);
            });
        }
        if (!ladder.empty()) {
            cell.pareto = timed(spans, "core.pareto:" + token, [&] {
                return core::pareto_sweep(experiment, cell.policy, ladder, theta_eq, nominal);
            });
        }
    }
}

/// One pass over the spec's cells on the calling thread. Each workload's
/// program artifacts are built once and shared by its stages, as the
/// cache's program tier shares them; pairs are workload-major, so one
/// artifact set is alive at a time.
runtime::sweep_result serial_pass(const runtime::sweep_spec& spec)
{
    runtime::sweep_result result = empty_result(spec);
    const std::vector<runtime::benchmark_stage> pairs = spec.expanded_pairs();
    std::shared_ptr<const core::program_artifacts> artifacts;
    for (std::size_t p = 0; p < pairs.size(); ++p) {
        const auto& [workload, stage] = pairs[p];
        if (artifacts == nullptr || !(artifacts->workload == workload)) {
            artifacts.reset();
            artifacts = core::make_program_artifacts(workload, spec.config);
        }
        const core::benchmark_experiment experiment(artifacts, stage, spec.config);
        evaluate_pair(spec, p, pairs[p], experiment, result, nullptr);
    }
    return result;
}

/// Evaluates built experiments (one per pair of `spec`, in pair order) on
/// the calling thread into `out`. Returns the wall time; raises
/// `longest_pair_s` to the slowest pair's.
double evaluate_serially(const runtime::sweep_spec& spec,
                         const std::vector<runtime::experiment_cache::experiment_ptr>& experiments,
                         runtime::sweep_result& out, span_totals* spans, double& longest_pair_s)
{
    const std::vector<runtime::benchmark_stage> pairs = spec.expanded_pairs();
    const double start = mono_s();
    for (std::size_t p = 0; p < pairs.size(); ++p) {
        const double pair_start = mono_s();
        evaluate_pair(spec, p, pairs[p], *experiments.at(p), out, spans);
        longest_pair_s = std::max(longest_pair_s, mono_s() - pair_start);
    }
    return mono_s() - start;
}

// ------------------------------------------------------------ layers pass --

/// Host time of the characterization hot path, replayed through its public
/// calls, plus the input statistics the replay observes.
struct replay_totals {
    /// The whole replay; what the four timed calls leave of it is the
    /// loop's own work (histogram set-up, the sampling trace, bookkeeping).
    double total_s = 0.0;
    double sta_s = 0.0;
    double extract_s = 0.0;
    double step_batch_s = 0.0;
    double histogram_s = 0.0;
    std::uint64_t vectors = 0;
    std::uint64_t toggled_bits = 0;
    std::uint64_t compared_bits = 0;
    /// Intervals whose replayed histograms differ from the real ones.
    std::uint64_t mismatched_intervals = 0;
};

/// Counts tap input bits that differ from the previous driving vector:
/// lane j against lane j-1, lane 0 against the previous batch's last lane.
void count_toggles(std::span<const std::uint64_t> words, std::size_t lanes,
                   std::vector<std::uint64_t>& last_bits, replay_totals& out)
{
    const std::uint64_t mask =
        lanes == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << lanes) - 1;
    for (std::size_t i = 0; i < words.size(); ++i) {
        const std::uint64_t word = words[i] & mask;
        const std::uint64_t previous = (word << 1) | last_bits[i];
        out.toggled_bits += static_cast<std::uint64_t>(std::popcount((word ^ previous) & mask));
        last_bits[i] = (word >> (lanes - 1)) & 1U;
    }
    out.compared_bits += words.size() * lanes;
}

bool same_histogram(const util::histogram& a, const util::histogram& b)
{
    if (a.bin_count() != b.bin_count() || a.total() != b.total()) {
        return false;
    }
    for (std::size_t i = 0; i < a.bin_count(); ++i) {
        if (a.count_at(i) != b.count_at(i)) {
            return false;
        }
    }
    return true;
}

/// Replays the characterizer's serial batched walk of one pair -- one chunk
/// per thread, a fresh simulator at interval 0 -- timing each hot-path
/// call, and checks that it reproduces `real` bin for bin.
void replay_characterization(const core::program_artifacts& program,
                             circuit::pipe_stage stage,
                             const core::experiment_config& config,
                             const core::stage_characterization& real, replay_totals& out)
{
    const double replay_start = mono_s();
    const circuit::cell_library lib = circuit::cell_library::standard_22nm();
    const circuit::voltage_model vm(config.voltage_class_spread);

    const double sta_start = mono_s();
    const circuit::stage_netlist stage_nl = circuit::build_stage(stage);
    const std::shared_ptr<const circuit::timing_corner_tables> tables =
        circuit::make_corner_tables(stage_nl.nl, lib, vm, circuit::paper_voltage_levels());
    out.sta_s += mono_s() - sta_start;

    const arch::stage_tap tap(stage, stage_nl.layout);
    const std::size_t corner_count = tables->corner_count();
    constexpr std::size_t lanes_max = circuit::dynamic_timing_simulator::max_batch_lanes;
    std::vector<std::uint64_t> lane_words(tap.width());
    std::array<std::uint32_t, lanes_max> lane_op_index{};
    std::vector<double> lane_delays(corner_count * lanes_max);
    std::vector<std::uint64_t> last_bits(tap.width());
    const core::characterization_config& knobs = config.characterization;

    for (std::size_t t = 0; t < program.trace.thread_count(); ++t) {
        const arch::thread_trace& trace = program.trace.threads[t];
        circuit::dynamic_timing_simulator sim(stage_nl.nl, tables);
        // A fresh simulator holds the all-zero input vector.
        std::fill(last_bits.begin(), last_bits.end(), 0);
        for (std::size_t k = 0; k < program.trace.interval_count(); ++k) {
            std::vector<util::histogram> histograms;
            histograms.reserve(corner_count);
            for (std::size_t c = 0; c < corner_count; ++c) {
                histograms.emplace_back(
                    0.0, tables->nominal_period_ps[c] * knobs.histogram_headroom,
                    knobs.histogram_bins);
            }
            std::vector<float> sampling_delays;
            std::vector<std::uint32_t> sampling_index;
            const std::span<const arch::micro_op> ops = trace.interval(k);
            std::uint64_t vectors = 0;
            std::size_t offset = 0;
            while (offset < ops.size()) {
                const double t0 = mono_s();
                const arch::stage_tap::batch_result batch = tap.extract_batch(
                    ops.subspan(offset), lane_words,
                    std::span<std::uint32_t>(lane_op_index.data(), lanes_max));
                const double t1 = mono_s();
                out.extract_s += t1 - t0;
                if (batch.lanes > 0) {
                    const std::size_t lanes = batch.lanes;
                    const std::span<double> delays(lane_delays.data(), corner_count * lanes);
                    sim.step_batch(lane_words, lanes, delays);
                    const double t2 = mono_s();
                    for (std::size_t c = 0; c < corner_count; ++c) {
                        histograms[c].add(delays.subspan(c * lanes, lanes));
                    }
                    const double t3 = mono_s();
                    out.step_batch_s += t2 - t1;
                    out.histogram_s += t3 - t2;
                    vectors += lanes;
                    if (knobs.keep_sampling_trace) {
                        for (std::size_t j = 0; j < lanes; ++j) {
                            sampling_delays.push_back(static_cast<float>(lane_delays[j]));
                            sampling_index.push_back(
                                static_cast<std::uint32_t>(offset + lane_op_index[j]));
                        }
                    }
                    // The toggle statistics are the benchmark's own work.
                    const double toggle_start = mono_s();
                    count_toggles(lane_words, lanes, last_bits, out);
                    out.total_s -= mono_s() - toggle_start;
                }
                offset += batch.ops_consumed;
            }
            out.vectors += vectors;

            // The fidelity check is not part of the replayed loop.
            const double check_start = mono_s();
            const core::interval_characterization& expected = real.threads.at(t).at(k);
            bool same = expected.vector_count == vectors &&
                        expected.delay_histograms.size() == corner_count;
            for (std::size_t c = 0; same && c < corner_count; ++c) {
                same = same_histogram(histograms[c], expected.delay_histograms[c]);
            }
            if (!same || sampling_delays != expected.sampling_delays_ps ||
                sampling_index != expected.sampling_instr_index) {
                ++out.mismatched_intervals;
            }
            out.total_s -= mono_s() - check_start;
        }
    }
    out.total_s += mono_s() - replay_start;
}

/// Rebuilds what benchmark_experiment's constructor adds to the
/// characterization -- the paper grid and every (thread, interval) error
/// model -- through the same public calls. Returns the number built.
std::size_t replay_experiment_build(const core::benchmark_experiment& experiment)
{
    const core::stage_characterization& characterization = experiment.characterization();
    const core::config_space space = core::config_space::paper_grid(characterization.tnom_ps);
    std::size_t built = space.voltage_count();
    for (std::size_t t = 0; t < characterization.threads.size(); ++t) {
        for (std::size_t k = 0; k < characterization.threads[t].size(); ++k) {
            [[maybe_unused]] const core::empirical_error_model model =
                characterization.make_error_model(t, k);
            ++built;
        }
    }
    return built;
}

/// Builds a workload's program artifacts as program_characterizer does,
/// with a span around each of its two public calls.
std::shared_ptr<const core::program_artifacts>
traced_artifacts(const workload::workload_key& key, const core::experiment_config& config,
                 span_totals& spans)
{
    core::program_artifacts artifacts;
    artifacts.workload = key;
    artifacts.thread_count = config.thread_count;
    artifacts.seed = config.seed;
    artifacts.workload_digest = config.workload_digest();
    timed(&spans, "workload.trace_gen", [&] {
        const workload::benchmark_profile profile =
            workload::workload_registry::global().make_profile(key, config.thread_count);
        artifacts.trace = workload::generate_program_trace(profile, config.seed);
    });
    timed(&spans, "arch.profile", [&] {
        arch::multicore_profiler profiler(config.characterization.core);
        artifacts.arch_profiles = profiler.profile(artifacts.trace);
    });
    return std::make_shared<const core::program_artifacts>(std::move(artifacts));
}

struct layers_result {
    span_totals spans;
    replay_totals replay;
    runtime::sweep_result cells;
    /// Wall and CPU of the traced pass, replays excluded.
    double pass_s = 0.0;
    double pass_cpu_s = 0.0;
    /// Slowest pair: constructor + evaluation (evaluation alone on warm
    /// experiments).
    double longest_pair_s = 0.0;
    /// The pair whose experiment was cheapest to construct.
    runtime::benchmark_stage cheapest_pair;
    std::uint64_t micro_ops = 0;
    /// characterize.vectors moved by the pass's real constructor calls.
    std::uint64_t counted_vectors = 0;
};

/// The serial sweep of `spec` with a span around every public call, then,
/// per pair and outside the pass's wall time, the two replays.
layers_result layers_pass(const runtime::sweep_spec& spec)
{
    layers_result out;
    out.cells = empty_result(spec);
    const std::vector<runtime::benchmark_stage> pairs = spec.expanded_pairs();
    const std::uint64_t vectors_before = characterized_vectors();
    double cheapest_ctor = std::numeric_limits<double>::infinity();
    std::shared_ptr<const core::program_artifacts> artifacts;
    for (std::size_t p = 0; p < pairs.size(); ++p) {
        const auto& [workload, stage] = pairs[p];
        const double start = mono_s();
        const double cpu_start = process_cpu_s();
        if (artifacts == nullptr || !(artifacts->workload == workload)) {
            artifacts.reset();
            artifacts = traced_artifacts(workload, spec.config, out.spans);
            for (const arch::thread_trace& thread : artifacts->trace.threads) {
                out.micro_ops += thread.ops.size();
            }
        }
        const double ctor_start = mono_s();
        const auto experiment = timed(&out.spans, "core.experiment_ctor", [&] {
            return std::make_unique<const core::benchmark_experiment>(artifacts, stage,
                                                                      spec.config);
        });
        const double eval_start = mono_s();
        evaluate_pair(spec, p, pairs[p], *experiment, out.cells, &out.spans);
        const double end = mono_s();
        out.pass_s += end - start;
        out.pass_cpu_s += process_cpu_s() - cpu_start;
        out.longest_pair_s = std::max(out.longest_pair_s, end - ctor_start);
        if (eval_start - ctor_start < cheapest_ctor) {
            cheapest_ctor = eval_start - ctor_start;
            out.cheapest_pair = pairs[p];
        }

        timed(&out.spans, "core.experiment_build",
              [&] { (void)replay_experiment_build(*experiment); });
        replay_characterization(*artifacts, stage, spec.config,
                                experiment->characterization(), out.replay);
    }
    out.counted_vectors = characterized_vectors() - vectors_before;
    return out;
}

/// Median host microseconds of one experiment_cache::get_or_create hit, over
/// rounds that look up every key of `keys` (all resident) once.
double hit_lookup_us(runtime::experiment_cache& cache,
                     const std::vector<runtime::benchmark_stage>& keys,
                     const core::experiment_config& config)
{
    constexpr int rounds = 201;
    std::vector<double> per_lookup;
    per_lookup.reserve(rounds);
    for (int r = 0; r < rounds; ++r) {
        const double start = mono_s();
        for (const auto& [workload, stage] : keys) {
            (void)cache.get_or_create(workload, stage, config);
        }
        per_lookup.push_back((mono_s() - start) / static_cast<double>(keys.size()));
    }
    return median(std::move(per_lookup)) * 1e6;
}

// ----------------------------------------------------------------- output --

/// Builds one JSON object member by member.
class json_object {
public:
    json_object() { body_.precision(17); }

    json_object& add(std::string_view key, double value)
    {
        member(key) << value;
        return *this;
    }
    json_object& add(std::string_view key, std::uint64_t value)
    {
        member(key) << value;
        return *this;
    }
    json_object& add(std::string_view key, const std::vector<double>& values)
    {
        std::ostream& out = member(key) << '[';
        for (std::size_t i = 0; i < values.size(); ++i) {
            out << (i ? ", " : "") << values[i];
        }
        out << ']';
        return *this;
    }
    json_object& add_raw(std::string_view key, const std::string& json)
    {
        member(key) << json;
        return *this;
    }

    [[nodiscard]] std::string str() const { return "{" + body_.str() + "}"; }

private:
    std::ostream& member(std::string_view key)
    {
        body_ << (first_ ? "" : ", ") << '"' << key << "\": ";
        first_ = false;
        return body_;
    }

    std::ostringstream body_;
    bool first_ = true;
};

void write_file(const std::string& path, const std::string& text)
{
    std::ofstream out(path);
    out << text;
    if (!out) {
        throw std::runtime_error("cannot write " + path);
    }
}

/// Distinct rendered sweep documents with their repeat counts.
class doc_set {
public:
    void add(const runtime::sweep_result& result)
    {
        std::ostringstream out;
        runtime::write_sweep_json(result, out);
        ++counts_[out.str()];
    }

    /// Writes each document as DIR/<prefix>_<i>.json; returns the JSON list
    /// of {"file", "count"} entries.
    [[nodiscard]] std::string write(const std::string& dir, const std::string& prefix) const
    {
        std::string list = "[";
        std::size_t i = 0;
        for (const auto& [text, count] : counts_) {
            const std::string name = prefix + "_" + std::to_string(i++) + ".json";
            write_file(dir + "/" + name, text);
            list += (list.size() > 1 ? ", " : "");
            list += "{\"file\": \"" + name + "\", \"count\": " + std::to_string(count) + "}";
        }
        return list + "]";
    }

private:
    std::map<std::string, std::uint64_t> counts_;
};

/// The per-layer metrics the layers pass measures (NOTES.md defines each).
std::string layer_metrics(const layers_result& layers, double lookup_us)
{
    const span_totals& spans = layers.spans;
    const replay_totals& r = layers.replay;
    const double build = spans.get("core.experiment_build");
    const double characterize = spans.get("core.experiment_ctor") - build;
    const auto ratio = [](double num, std::uint64_t den) {
        return den == 0 ? 0.0 : num / static_cast<double>(den);
    };

    json_object m;
    m.add("circuit.step_batch_s", r.step_batch_s)
        .add("circuit.ns_per_vector", ratio(r.step_batch_s * 1e9, r.vectors))
        .add("circuit.sta_s", r.sta_s)
        .add("circuit.input_toggle_frac", ratio(static_cast<double>(r.toggled_bits),
                                                r.compared_bits))
        .add("arch.extract_s", r.extract_s)
        .add("arch.profile_s", spans.get("arch.profile"))
        .add("arch.driving_vectors", r.vectors)
        .add("util.histogram_s", r.histogram_s)
        .add("workload.trace_gen_s", spans.get("workload.trace_gen"))
        .add("workload.micro_ops", layers.micro_ops)
        .add("core.characterize_s", characterize)
        .add("core.characterize_other_s",
             r.total_s - r.sta_s - r.extract_s - r.step_batch_s - r.histogram_s)
        .add("core.experiment_build_s", build)
        .add("core.equal_weight_theta_s", spans.get("core.equal_weight_theta"));
    double pareto = 0.0;
    for (const std::string_view token : policy_tokens) {
        const std::string name(token);
        const double in_pareto = spans.get("core.pareto:" + name);
        pareto += in_pareto;
        m.add("core.policy." + name + "_s", spans.get("core.run_policy:" + name) + in_pareto);
    }
    m.add("core.pareto_s", pareto).add("runtime.cache.hit_lookup_us", lookup_us);
    return m.str();
}

/// Adds the layers pass's metrics and the raw numbers run.py combines with
/// the workload's own (wall, threads) into runtime.* and obs.* metrics.
void add_layers(json_object& result, const layers_result& layers, double lookup_us)
{
    const span_totals& spans = layers.spans;
    double eval = spans.get("core.equal_weight_theta");
    for (const std::string_view token : policy_tokens) {
        const std::string name(token);
        eval += spans.get("core.run_policy:" + name) + spans.get("core.pareto:" + name);
    }
    const double work = spans.get("workload.trace_gen") + spans.get("arch.profile") +
                        spans.get("core.experiment_ctor") + eval;
    result.add_raw("layers", layer_metrics(layers, lookup_us))
        .add("layers_pass_s", layers.pass_s)
        .add("layers_pass_cpu_s", layers.pass_cpu_s)
        .add("layers_work_s", work)
        .add("layers_eval_s", eval)
        .add("layers_longest_pair_s", layers.longest_pair_s)
        .add("layers_counted_vectors", layers.counted_vectors)
        .add("layers_replay_mismatches", layers.replay.mismatched_intervals);
}

/// One resident pair (the cheapest to characterize) in a fresh cache,
/// looked up as often as a sweep looks up its pairs.
double cold_lookup_us(const runtime::sweep_spec& spec, const runtime::benchmark_stage& pair)
{
    runtime::experiment_cache cache;
    (void)cache.get_or_create(pair.first, pair.second, spec.config);
    const std::vector<runtime::benchmark_stage> keys(spec.expanded_pairs().size(), pair);
    return hit_lookup_us(cache, keys, spec.config);
}

// ------------------------------------------------------------------ modes --

struct options {
    std::string mode;
    std::string out_dir;
    std::uint64_t seed = 42;
    double seconds = 0.0;
    std::size_t workers = 1;
    bool trace = false;
    bool setup_only = false;
    bool cross_check = false;
};

options parse_options(int argc, char** argv)
{
    if (argc < 2) {
        throw std::invalid_argument("missing mode");
    }
    options opt;
    opt.mode = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string_view arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                throw std::invalid_argument(std::string(arg) + " expects a value");
            }
            return argv[++i];
        };
        if (arg == "--out") {
            opt.out_dir = value();
        } else if (arg == "--seed") {
            opt.seed = std::stoull(value());
        } else if (arg == "--seconds") {
            opt.seconds = std::stod(value());
        } else if (arg == "--workers") {
            opt.workers = std::stoull(value());
        } else if (arg == "--trace") {
            opt.trace = true;
        } else if (arg == "--setup-only") {
            opt.setup_only = true;
        } else if (arg == "--cross-check") {
            opt.cross_check = true;
        } else {
            throw std::invalid_argument("unknown flag: " + std::string(arg));
        }
    }
    if (opt.out_dir.empty()) {
        throw std::invalid_argument("--out is required");
    }
    if (opt.workers == 0) {
        throw std::invalid_argument("--workers must be >= 1");
    }
    return opt;
}

void run_serial(const options& opt, json_object& result)
{
    const runtime::sweep_spec spec = canonical_spec(opt.seed, core::default_theta_multipliers());
    result.add("ready_mono", mono_s());
    if (opt.setup_only) {
        return;
    }
    std::vector<double> walls;
    std::vector<double> cpus;
    doc_set docs;
    const double start = mono_s();
    do {
        const double cpu_start = process_cpu_s();
        const double pass_start = mono_s();
        const runtime::sweep_result pass = serial_pass(spec);
        walls.push_back(mono_s() - pass_start);
        cpus.push_back(process_cpu_s() - cpu_start);
        docs.add(pass);
    } while (mono_s() - start < opt.seconds);
    result.add("walls_s", walls).add("cpus_s", cpus);

    if (opt.trace) {
        const layers_result layers = layers_pass(spec);
        docs.add(layers.cells);
        add_layers(result, layers, cold_lookup_us(spec, layers.cheapest_pair));
    }
    result.add_raw("docs", docs.write(opt.out_dir, "doc"));
}

void run_warm(const options& opt, json_object& result)
{
    const runtime::sweep_spec spec = canonical_spec(opt.seed, dense_ladder());
    // Characterizes every pair (the stage-tier keys equal spec's) with a
    // trivial evaluation.
    runtime::sweep_spec fill = spec;
    fill.policies = {core::policy_kind::nominal};
    fill.theta_multipliers.clear();
    const char* fault = std::getenv("PERFBENCH_FAULT");
    const bool recharacterize = fault != nullptr && std::string_view(fault) == "recharacterize";

    runtime::experiment_cache cache;
    runtime::thread_pool pool(opt.workers);
    (void)runtime::sweep_scheduler(pool, cache).run(fill);
    result.add("ready_mono", mono_s());

    const runtime::sweep_scheduler scheduler(pool, cache);
    const std::uint64_t steals_before = pool.steal_count();
    const std::uint64_t tasks_before = pool.executed_count();
    std::vector<double> walls;
    std::vector<double> cpus;
    std::uint64_t stage_hits = 0;
    std::uint64_t stage_misses = 0;
    std::uint64_t program_computes = 0;
    std::uint64_t vectors = 0;
    doc_set docs;
    const double start = mono_s();
    std::size_t sweeps = 0;
    do {
        if (recharacterize) {
            cache.clear();
        }
        const std::uint64_t vectors_start = characterized_vectors();
        const double cpu_start = process_cpu_s();
        const double sweep_start = mono_s();
        const runtime::sweep_result sweep = scheduler.run(spec);
        walls.push_back(mono_s() - sweep_start);
        cpus.push_back(process_cpu_s() - cpu_start);
        vectors += characterized_vectors() - vectors_start;
        stage_hits = std::max(stage_hits, sweep.cache_hits);
        stage_misses += sweep.cache_misses;
        program_computes += sweep.program_computes;
        docs.add(sweep);
        ++sweeps;
    } while (mono_s() - start < opt.seconds);

    const auto per_sweep = [&](std::uint64_t total) {
        return static_cast<double>(total) / static_cast<double>(sweeps);
    };
    result.add("walls_s", walls)
        .add("cpus_s", cpus)
        .add("stage_hits", stage_hits)
        .add("stage_misses", stage_misses)
        .add("program_computes", program_computes)
        .add("characterized_vectors", vectors)
        .add("pool_steals_per_sweep", per_sweep(pool.steal_count() - steals_before))
        .add("pool_tasks_per_sweep", per_sweep(pool.executed_count() - tasks_before));
    result.add_raw("docs", docs.write(opt.out_dir, "doc"));
    if (!opt.cross_check && !opt.trace) {
        return;
    }

    const std::vector<runtime::benchmark_stage> pairs = spec.expanded_pairs();
    std::vector<runtime::experiment_cache::experiment_ptr> experiments;
    for (const auto& [workload, stage] : pairs) {
        experiments.push_back(cache.get_or_create(workload, stage, spec.config));
    }
    if (opt.cross_check) {
        // The same cells through the serial core path, over the warm
        // experiments: checks the scheduler, cache-hit and pool path.
        runtime::sweep_result serial = empty_result(spec);
        double longest = 0.0;
        (void)evaluate_serially(spec, experiments, serial, nullptr, longest);
        doc_set cross;
        cross.add(serial);
        result.add_raw("cross_docs", cross.write(opt.out_dir, "cross"));
    }
    if (opt.trace) {
        // The timed phase characterized nothing (run.py rejects the run
        // otherwise), so every characterization-side metric is its zero and
        // the driving vectors are the program's count for the timed phase.
        // The evaluation metrics come from serial evaluations of the warm
        // experiments, alternately plain and with spans, so the trace
        // overhead compares the same work with and without them.
        constexpr int rounds = 5;
        layers_result layers;
        layers.replay.vectors = vectors;
        layers.counted_vectors = vectors;
        std::vector<double> plain_walls;
        std::vector<double> traced_walls;
        std::vector<double> traced_cpus;
        std::vector<double> longest_pairs;
        doc_set eval_docs;
        for (int round = 0; round < rounds; ++round) {
            runtime::sweep_result plain = empty_result(spec);
            double plain_longest = 0.0;
            plain_walls.push_back(
                evaluate_serially(spec, experiments, plain, nullptr, plain_longest));
            runtime::sweep_result traced = empty_result(spec);
            double longest = 0.0;
            const double cpu_start = process_cpu_s();
            traced_walls.push_back(
                evaluate_serially(spec, experiments, traced, &layers.spans, longest));
            traced_cpus.push_back(process_cpu_s() - cpu_start);
            longest_pairs.push_back(longest);
            eval_docs.add(plain);
            eval_docs.add(traced);
        }
        layers.spans.divide(rounds);
        layers.pass_s = median(traced_walls);
        layers.pass_cpu_s = median(traced_cpus);
        layers.longest_pair_s = median(longest_pairs);
        result.add_raw("layer_docs", eval_docs.write(opt.out_dir, "layers"))
            .add("untraced_eval_s", median(plain_walls));
        add_layers(result, layers, hit_lookup_us(cache, pairs, spec.config));
    }
}

} // namespace

int main(int argc, char** argv)
{
    const double main_start = mono_s();
    options opt;
    try {
        opt = parse_options(argc, argv);
    } catch (const std::exception& error) {
        std::fprintf(stderr, "perfbench_driver: %s\n", error.what());
        return 2;
    }
    try {
        json_object result;
        result.add("main_start_mono", main_start);
        if (opt.mode == "serial") {
            run_serial(opt, result);
        } else if (opt.mode == "warm") {
            run_warm(opt, result);
        } else {
            std::fprintf(stderr, "perfbench_driver: unknown mode %s\n", opt.mode.c_str());
            return 2;
        }
        write_file(opt.out_dir + "/result.json", result.str() + "\n");
        return 0;
    } catch (const std::exception& error) {
        std::fprintf(stderr, "perfbench_driver: %s\n", error.what());
        return 1;
    }
}
