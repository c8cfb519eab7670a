#include "storage/serialize.h"

#include <bit>
#include <limits>

#include "util/hashing.h"

namespace synts::storage {

namespace {

/// FNV-1a over a byte range -- the trailing frame checksum. Uses the same
/// primitive as util::digest_builder so the constant lives in one place.
std::uint64_t checksum_bytes(std::string_view bytes)
{
    util::digest_builder h;
    for (const char c : bytes) {
        h.byte(static_cast<std::uint8_t>(c));
    }
    return h.digest();
}

[[noreturn]] void fail(const char* what)
{
    throw serialize_error(std::string("storage frame: ") + what);
}

/// Range-checks a stored enum ordinal before casting.
template <typename Enum>
Enum checked_enum(std::uint64_t raw, std::uint64_t count, const char* what)
{
    if (raw >= count) {
        fail(what);
    }
    return static_cast<Enum>(raw);
}

} // namespace

// -- primitives -------------------------------------------------------------

void binary_writer::u32(std::uint32_t v)
{
    for (int i = 0; i < 4; ++i) {
        u8(static_cast<std::uint8_t>(v >> (8 * i)));
    }
}

void binary_writer::u64(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        u8(static_cast<std::uint8_t>(v >> (8 * i)));
    }
}

void binary_writer::f64(double v)
{
    u64(std::bit_cast<std::uint64_t>(v));
}

void binary_writer::str(std::string_view s)
{
    size(s.size());
    buffer_.append(s);
}

std::uint8_t binary_reader::u8()
{
    if (offset_ >= data_.size()) {
        fail("truncated (u8 past end)");
    }
    return static_cast<std::uint8_t>(data_[offset_++]);
}

std::uint32_t binary_reader::u32()
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
        v |= static_cast<std::uint32_t>(u8()) << (8 * i);
    }
    return v;
}

std::uint64_t binary_reader::u64()
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
        v |= static_cast<std::uint64_t>(u8()) << (8 * i);
    }
    return v;
}

std::size_t binary_reader::size()
{
    const std::uint64_t v = u64();
    if (v > std::numeric_limits<std::size_t>::max()) {
        fail("size field exceeds host size_t");
    }
    return static_cast<std::size_t>(v);
}

double binary_reader::f64()
{
    return std::bit_cast<double>(u64());
}

bool binary_reader::boolean()
{
    const std::uint8_t v = u8();
    if (v > 1) {
        fail("boolean field is neither 0 nor 1");
    }
    return v == 1;
}

std::string binary_reader::str()
{
    const std::size_t length = size();
    if (length > remaining()) {
        fail("string length exceeds frame size");
    }
    std::string s(data_.substr(offset_, length));
    offset_ += length;
    return s;
}

// -- workload identity ------------------------------------------------------

void write(binary_writer& out, const workload::workload_key& key)
{
    out.u64(key.id);
    out.str(key.name);
}

workload::workload_key read_workload_key(binary_reader& in)
{
    workload::workload_key key;
    key.id = in.u64();
    key.name = in.str();
    if (key.name.empty()) {
        fail("empty workload name");
    }
    return key;
}

// -- core types -------------------------------------------------------------

void write(binary_writer& out, const core::pareto_point& point)
{
    out.f64(point.theta);
    out.f64(point.energy);
    out.f64(point.time);
}

core::pareto_point read_pareto_point(binary_reader& in)
{
    core::pareto_point point;
    point.theta = in.f64();
    point.energy = in.f64();
    point.time = in.f64();
    return point;
}

void write(binary_writer& out, const core::interval_outcome& outcome)
{
    const core::interval_solution& solution = outcome.solution;
    out.size(solution.assignments.size());
    for (const core::thread_assignment& a : solution.assignments) {
        out.size(a.voltage_index);
        out.size(a.tsr_index);
    }
    out.size(solution.metrics.size());
    for (const core::thread_metrics& m : solution.metrics) {
        out.f64(m.vdd);
        out.f64(m.tsr);
        out.f64(m.clock_period_ps);
        out.f64(m.error_probability);
        out.f64(m.time_ps);
        out.f64(m.energy);
    }
    out.f64(solution.exec_time_ps);
    out.f64(solution.total_energy);
    out.f64(solution.weighted_cost);
    out.f64(outcome.sampling_energy);
    out.f64(outcome.sampling_time_ps);
    out.f64(outcome.energy);
    out.f64(outcome.time_ps);
}

core::interval_outcome read_interval_outcome(binary_reader& in)
{
    core::interval_outcome outcome;
    const std::size_t assignment_count = in.size();
    if (assignment_count > in.remaining()) {
        throw serialize_error("storage frame: assignment count exceeds frame size");
    }
    outcome.solution.assignments.reserve(assignment_count);
    for (std::size_t i = 0; i < assignment_count; ++i) {
        core::thread_assignment a;
        a.voltage_index = in.size();
        a.tsr_index = in.size();
        outcome.solution.assignments.push_back(a);
    }
    const std::size_t metric_count = in.size();
    if (metric_count > in.remaining()) {
        throw serialize_error("storage frame: metric count exceeds frame size");
    }
    outcome.solution.metrics.reserve(metric_count);
    for (std::size_t i = 0; i < metric_count; ++i) {
        core::thread_metrics m;
        m.vdd = in.f64();
        m.tsr = in.f64();
        m.clock_period_ps = in.f64();
        m.error_probability = in.f64();
        m.time_ps = in.f64();
        m.energy = in.f64();
        outcome.solution.metrics.push_back(m);
    }
    outcome.solution.exec_time_ps = in.f64();
    outcome.solution.total_energy = in.f64();
    outcome.solution.weighted_cost = in.f64();
    outcome.sampling_energy = in.f64();
    outcome.sampling_time_ps = in.f64();
    outcome.energy = in.f64();
    outcome.time_ps = in.f64();
    return outcome;
}

void write(binary_writer& out, const core::benchmark_experiment::policy_run& run)
{
    out.u8(static_cast<std::uint8_t>(run.kind));
    out.size(run.intervals.size());
    for (const core::interval_outcome& outcome : run.intervals) {
        write(out, outcome);
    }
    out.f64(run.sum.energy);
    out.f64(run.sum.time_ps);
}

core::benchmark_experiment::policy_run read_policy_run(binary_reader& in)
{
    core::benchmark_experiment::policy_run run;
    run.kind = checked_enum<core::policy_kind>(in.u8(), core::policy_count,
                                               "policy_kind out of range");
    const std::size_t interval_count = in.size();
    if (interval_count > in.remaining()) {
        throw serialize_error("storage frame: interval count exceeds frame size");
    }
    run.intervals.reserve(interval_count);
    for (std::size_t i = 0; i < interval_count; ++i) {
        run.intervals.push_back(read_interval_outcome(in));
    }
    run.sum.energy = in.f64();
    run.sum.time_ps = in.f64();
    return run;
}

// -- runtime types ----------------------------------------------------------

void write(binary_writer& out, const runtime::sweep_cell& cell)
{
    write(out, cell.workload);
    out.u8(static_cast<std::uint8_t>(cell.stage));
    out.u8(static_cast<std::uint8_t>(cell.policy));
    out.f64(cell.theta_eq);
    out.u64(cell.task_seed);
    write(out, cell.equal_weight);
    out.size(cell.pareto.size());
    for (const core::pareto_point& point : cell.pareto) {
        write(out, point);
    }
}

runtime::sweep_cell read_sweep_cell(binary_reader& in)
{
    runtime::sweep_cell cell;
    cell.workload = read_workload_key(in);
    cell.stage = checked_enum<circuit::pipe_stage>(in.u8(), circuit::pipe_stage_count,
                                                   "pipe_stage out of range");
    cell.policy = checked_enum<core::policy_kind>(in.u8(), core::policy_count,
                                                  "policy_kind out of range");
    cell.theta_eq = in.f64();
    cell.task_seed = in.u64();
    cell.equal_weight = read_policy_run(in);
    const std::size_t pareto_count = in.size();
    if (pareto_count > in.remaining()) {
        throw serialize_error("storage frame: pareto count exceeds frame size");
    }
    cell.pareto.reserve(pareto_count);
    for (std::size_t i = 0; i < pareto_count; ++i) {
        cell.pareto.push_back(read_pareto_point(in));
    }
    return cell;
}

// -- framing ----------------------------------------------------------------

namespace {

/// Verifies framing and returns a reader positioned at the payload. The
/// checksum is verified FIRST: a frame that fails it is corrupt, and no
/// other field of it can be trusted (including the version word).
binary_reader open_frame(std::string_view frame, payload_kind expected)
{
    constexpr std::size_t header_size = 8 + 4 + 4;
    constexpr std::size_t checksum_size = 8;
    if (frame.size() < header_size + checksum_size) {
        fail("shorter than header + checksum");
    }
    // Guarded: the header+checksum length check above rejects short frames.
    const std::size_t body_size = frame.size() - checksum_size; // synts-lint: allow(unchecked-size)
    const std::string_view body = frame.substr(0, body_size);
    binary_reader trailer(frame.substr(body_size));
    if (trailer.u64() != checksum_bytes(body)) {
        fail("checksum mismatch");
    }
    binary_reader in(body);
    for (const char c : frame_magic) {
        if (in.u8() != static_cast<std::uint8_t>(c)) {
            fail("bad magic");
        }
    }
    if (in.u32() != format_version) {
        fail("format version mismatch");
    }
    if (in.u32() != static_cast<std::uint32_t>(expected)) {
        fail("payload kind mismatch");
    }
    return in;
}

} // namespace

std::string encode(const runtime::sweep_cell& cell)
{
    binary_writer out;
    for (const char c : frame_magic) {
        out.u8(static_cast<std::uint8_t>(c));
    }
    out.u32(format_version);
    out.u32(static_cast<std::uint32_t>(payload_kind::sweep_cell));
    write(out, cell);
    std::string frame = out.take();
    binary_writer trailer;
    trailer.u64(checksum_bytes(frame));
    frame += trailer.bytes();
    return frame;
}

runtime::sweep_cell decode_sweep_cell(std::string_view frame)
{
    binary_reader in = open_frame(frame, payload_kind::sweep_cell);
    runtime::sweep_cell cell = read_sweep_cell(in);
    if (!in.at_end()) {
        fail("trailing bytes after payload");
    }
    return cell;
}

} // namespace synts::storage
