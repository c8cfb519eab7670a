// Tests for storage/serialize: bit-exact round trips of sweep-cell frames,
// drift guards (perturbing any serialized field must change the encoded
// bytes -- a field the codec forgets fails here), a golden-bytes test
// pinning the v2 cell frame, and decode rejection of every corruption
// class (truncation, bit flips, version skew including well-formed v1
// frames, payload kind mismatch, trailing bytes, hostile lengths).

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "runtime/sweep.h"
#include "runtime/thread_pool.h"
#include "storage/serialize.h"
#include "util/hashing.h"

namespace {

using namespace synts;

// -- fixtures ---------------------------------------------------------------

/// A hand-specified sweep cell exercising every nested struct.
runtime::sweep_cell tiny_cell()
{
    runtime::sweep_cell cell;
    cell.workload = workload::benchmark_id::fmm;
    cell.stage = circuit::pipe_stage::simple_alu;
    cell.policy = core::policy_kind::synts_offline;
    cell.theta_eq = 1.5;
    cell.task_seed = 0xFEEDFACE12345678ull;

    core::interval_outcome outcome;
    outcome.solution.assignments = {{1, 2}, {3, 0}};
    outcome.solution.metrics = {{0.9, 0.8, 700.0, 1e-4, 1000.0, 50.0},
                                {1.0, 1.0, 650.0, 2e-5, 900.0, 60.0}};
    outcome.solution.exec_time_ps = 1000.0;
    outcome.solution.total_energy = 110.0;
    outcome.solution.weighted_cost = 1610.0;
    outcome.sampling_energy = 0.5;
    outcome.sampling_time_ps = 7.0;
    outcome.energy = 110.5;
    outcome.time_ps = 1007.0;

    cell.equal_weight.kind = core::policy_kind::synts_offline;
    cell.equal_weight.intervals = {outcome};
    cell.equal_weight.sum.energy = 110.5;
    cell.equal_weight.sum.time_ps = 1007.0;

    cell.pareto = {{0.75, 0.9, 1.1}, {1.5, 0.8, 1.3}};
    return cell;
}

bool same_cells(const runtime::sweep_cell& a, const runtime::sweep_cell& b)
{
    if (a.workload != b.workload || a.stage != b.stage || a.policy != b.policy ||
        a.theta_eq != b.theta_eq || a.task_seed != b.task_seed ||
        a.equal_weight.kind != b.equal_weight.kind ||
        a.equal_weight.sum.energy != b.equal_weight.sum.energy ||
        a.equal_weight.sum.time_ps != b.equal_weight.sum.time_ps ||
        a.equal_weight.intervals.size() != b.equal_weight.intervals.size() ||
        a.pareto.size() != b.pareto.size()) {
        return false;
    }
    for (std::size_t k = 0; k < a.equal_weight.intervals.size(); ++k) {
        const core::interval_outcome& x = a.equal_weight.intervals[k];
        const core::interval_outcome& y = b.equal_weight.intervals[k];
        if (x.solution.assignments != y.solution.assignments ||
            x.solution.exec_time_ps != y.solution.exec_time_ps ||
            x.solution.total_energy != y.solution.total_energy ||
            x.solution.weighted_cost != y.solution.weighted_cost ||
            x.sampling_energy != y.sampling_energy ||
            x.sampling_time_ps != y.sampling_time_ps || x.energy != y.energy ||
            x.time_ps != y.time_ps ||
            x.solution.metrics.size() != y.solution.metrics.size()) {
            return false;
        }
        for (std::size_t m = 0; m < x.solution.metrics.size(); ++m) {
            const core::thread_metrics& p = x.solution.metrics[m];
            const core::thread_metrics& q = y.solution.metrics[m];
            if (p.vdd != q.vdd || p.tsr != q.tsr ||
                p.clock_period_ps != q.clock_period_ps ||
                p.error_probability != q.error_probability || p.time_ps != q.time_ps ||
                p.energy != q.energy) {
                return false;
            }
        }
    }
    for (std::size_t i = 0; i < a.pareto.size(); ++i) {
        if (a.pareto[i].theta != b.pareto[i].theta ||
            a.pareto[i].energy != b.pareto[i].energy ||
            a.pareto[i].time != b.pareto[i].time) {
            return false;
        }
    }
    return true;
}

std::string to_hex(std::string_view bytes)
{
    static constexpr char digits[] = "0123456789abcdef";
    std::string out;
    out.reserve(bytes.size() * 2);
    for (const char c : bytes) {
        const auto b = static_cast<unsigned char>(c);
        out.push_back(digits[b >> 4]);
        out.push_back(digits[b & 0xF]);
    }
    return out;
}

/// Recomputes and patches the trailing checksum (for tests that corrupt a
/// header field but need the frame to get PAST the checksum gate).
std::string with_fixed_checksum(std::string frame)
{
    util::digest_builder h;
    for (std::size_t i = 0; i + 8 < frame.size(); ++i) {
        h.byte(static_cast<std::uint8_t>(frame[i]));
    }
    const std::uint64_t sum = h.digest();
    for (int i = 0; i < 8; ++i) {
        frame[frame.size() - 8 + static_cast<std::size_t>(i)] =
            static_cast<char>(static_cast<std::uint8_t>(sum >> (8 * i)));
    }
    return frame;
}

// -- round trips ------------------------------------------------------------

TEST(storage_serialize, tiny_cell_round_trip_bit_exact)
{
    const runtime::sweep_cell original = tiny_cell();
    const std::string frame = storage::encode(original);
    const runtime::sweep_cell decoded = storage::decode_sweep_cell(frame);
    EXPECT_TRUE(same_cells(original, decoded));
    EXPECT_EQ(storage::encode(decoded), frame);
}

TEST(storage_serialize, real_sweep_cell_round_trip_bit_exact)
{
    runtime::sweep_spec spec;
    spec.benchmarks = {workload::benchmark_id::radix};
    spec.stages = {circuit::pipe_stage::simple_alu};
    spec.policies = {core::policy_kind::synts_offline};
    spec.theta_multipliers = {0.5, 1.0};

    runtime::thread_pool pool(1);
    runtime::experiment_cache cache;
    const runtime::sweep_result result =
        runtime::sweep_scheduler(pool, cache).run(spec);
    ASSERT_EQ(result.cells.size(), 1u);

    const runtime::sweep_cell decoded =
        storage::decode_sweep_cell(storage::encode(result.cells[0]));
    EXPECT_TRUE(same_cells(result.cells[0], decoded));
}

// -- drift guards -----------------------------------------------------------
// Perturb exactly one field; the encoded bytes MUST change. A serializer
// that forgets the field (or a reader/writer pair that drops it) fails.

TEST(storage_serialize, every_cell_field_reaches_the_encoding)
{
    const std::string baseline = storage::encode(tiny_cell());

    const std::vector<std::pair<const char*, std::function<void(runtime::sweep_cell&)>>>
        perturbations = {
            {"workload.name", [](auto& c) { c.workload.name += "x"; }},
            {"workload.id", [](auto& c) { c.workload.id ^= 1; }},
            {"stage", [](auto& c) { c.stage = circuit::pipe_stage::decode; }},
            {"policy", [](auto& c) { c.policy = core::policy_kind::no_ts; }},
            {"theta_eq", [](auto& c) { c.theta_eq = 2.0; }},
            {"task_seed", [](auto& c) { c.task_seed ^= 1; }},
            {"equal_weight.kind",
             [](auto& c) { c.equal_weight.kind = core::policy_kind::nominal; }},
            {"sum.energy", [](auto& c) { c.equal_weight.sum.energy = 1.0; }},
            {"sum.time_ps", [](auto& c) { c.equal_weight.sum.time_ps = 1.0; }},
            {"assignment.voltage_index",
             [](auto& c) {
                 c.equal_weight.intervals[0].solution.assignments[0].voltage_index = 7;
             }},
            {"assignment.tsr_index",
             [](auto& c) {
                 c.equal_weight.intervals[0].solution.assignments[0].tsr_index = 7;
             }},
            {"metrics.vdd",
             [](auto& c) { c.equal_weight.intervals[0].solution.metrics[0].vdd = 1.1; }},
            {"metrics.tsr",
             [](auto& c) { c.equal_weight.intervals[0].solution.metrics[0].tsr = 0.7; }},
            {"metrics.clock_period_ps",
             [](auto& c) {
                 c.equal_weight.intervals[0].solution.metrics[0].clock_period_ps = 1.0;
             }},
            {"metrics.error_probability",
             [](auto& c) {
                 c.equal_weight.intervals[0].solution.metrics[0].error_probability = 0.5;
             }},
            {"metrics.time_ps",
             [](auto& c) {
                 c.equal_weight.intervals[0].solution.metrics[0].time_ps = 1.0;
             }},
            {"metrics.energy",
             [](auto& c) {
                 c.equal_weight.intervals[0].solution.metrics[0].energy = 1.0;
             }},
            {"solution.exec_time_ps",
             [](auto& c) { c.equal_weight.intervals[0].solution.exec_time_ps = 1.0; }},
            {"solution.total_energy",
             [](auto& c) { c.equal_weight.intervals[0].solution.total_energy = 1.0; }},
            {"solution.weighted_cost",
             [](auto& c) { c.equal_weight.intervals[0].solution.weighted_cost = 1.0; }},
            {"outcome.sampling_energy",
             [](auto& c) { c.equal_weight.intervals[0].sampling_energy = 1.0; }},
            {"outcome.sampling_time_ps",
             [](auto& c) { c.equal_weight.intervals[0].sampling_time_ps = 1.0; }},
            {"outcome.energy",
             [](auto& c) { c.equal_weight.intervals[0].energy = 1.0; }},
            {"outcome.time_ps",
             [](auto& c) { c.equal_weight.intervals[0].time_ps = 1.0; }},
            {"pareto.theta", [](auto& c) { c.pareto[0].theta = 9.0; }},
            {"pareto.energy", [](auto& c) { c.pareto[0].energy = 9.0; }},
            {"pareto.time", [](auto& c) { c.pareto[0].time = 9.0; }},
        };

    for (const auto& [name, perturb] : perturbations) {
        runtime::sweep_cell perturbed = tiny_cell();
        perturb(perturbed);
        EXPECT_NE(storage::encode(perturbed), baseline)
            << "field not serialized: " << name;
    }
}

// -- golden bytes -----------------------------------------------------------

/// The exact v2 frame of tiny_cell(), as hex: header ("SYNTSTOR",
/// version 2, kind 2 = sweep_cell), the workload key (u64 registry digest
/// + length-prefixed name "FMM"), stage and policy ordinals, theta_eq,
/// task_seed, the equal-weight policy run (kind, one interval outcome,
/// sums), the Pareto points, and the trailing FNV-1a checksum.
constexpr std::string_view kGoldenCellFrameHex =
    "53594e5453544f520200000002000000"
    "f19231c76d3507610300000000000000"
    "464d4d0103000000000000f83f785634"
    "12cefaedfe0301000000000000000200"
    "00000000000001000000000000000200"
    "00000000000003000000000000000000"
    "0000000000000200000000000000cdcc"
    "ccccccccec3f9a9999999999e93f0000"
    "000000e085402d431cebe2361a3f0000"
    "000000408f4000000000000049400000"
    "00000000f03f000000000000f03f0000"
    "000000508440f168e388b5f8f43e0000"
    "000000208c400000000000004e400000"
    "000000408f400000000000805b400000"
    "000000289940000000000000e03f0000"
    "000000001c400000000000a05b400000"
    "000000788f400000000000a05b400000"
    "000000788f4002000000000000000000"
    "00000000e83fcdccccccccccec3f9a99"
    "99999999f13f000000000000f83f9a99"
    "99999999e93fcdccccccccccf43fa046"
    "a6b70a686188";

std::string from_hex(std::string_view hex)
{
    const auto nibble = [](char c) -> int {
        if (c >= '0' && c <= '9') {
            return c - '0';
        }
        return 10 + (c - 'a');
    };
    std::string out;
    out.reserve(hex.size() / 2);
    for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
        out.push_back(static_cast<char>((nibble(hex[i]) << 4) | nibble(hex[i + 1])));
    }
    return out;
}

TEST(storage_serialize, golden_frame_pins_v2_format)
{
    // The exact v2 frame of tiny_cell(). If this test fails, the on-disk
    // format changed: bump storage::format_version (old store files become
    // invisible, not misread) and re-pin these bytes.
    ASSERT_EQ(storage::format_version, 2u);
    const std::string frame = storage::encode(tiny_cell());

    // Header: magic + version + payload kind, all fixed.
    ASSERT_GE(frame.size(), 16u);
    EXPECT_EQ(frame.substr(0, 8), "SYNTSTOR");
    EXPECT_EQ(to_hex(frame.substr(8, 4)), "02000000");  // version 2, LE
    EXPECT_EQ(to_hex(frame.substr(12, 4)), "02000000"); // kind: sweep_cell

    EXPECT_EQ(to_hex(frame), std::string(kGoldenCellFrameHex));
    EXPECT_TRUE(same_cells(storage::decode_sweep_cell(from_hex(kGoldenCellFrameHex)),
                           tiny_cell()));
}

/// Writes a frame header with an arbitrary version and kind.
storage::binary_writer frame_header(std::uint32_t version, std::uint32_t kind)
{
    storage::binary_writer out;
    for (const char c : storage::frame_magic) {
        out.u8(static_cast<std::uint8_t>(c));
    }
    out.u32(version);
    out.u32(kind);
    return out;
}

/// Appends a placeholder checksum to `out`'s bytes and fixes it up.
std::string seal(storage::binary_writer& out)
{
    std::string frame = out.take();
    frame.append(8, '\0');
    return with_fixed_checksum(std::move(frame));
}

/// Encodes `cell` as a well-formed v1 frame: the pre-registry layout, with
/// a benchmark_id ordinal (u8) where v2 stores the workload key.
std::string encode_v1_cell(const runtime::sweep_cell& cell, std::uint8_t benchmark_ordinal)
{
    storage::binary_writer out =
        frame_header(1, static_cast<std::uint32_t>(storage::payload_kind::sweep_cell));
    out.u8(benchmark_ordinal);
    out.u8(static_cast<std::uint8_t>(cell.stage));
    out.u8(static_cast<std::uint8_t>(cell.policy));
    out.f64(cell.theta_eq);
    out.u64(cell.task_seed);
    storage::write(out, cell.equal_weight);
    out.size(cell.pareto.size());
    for (const core::pareto_point& point : cell.pareto) {
        storage::write(out, point);
    }
    return seal(out);
}

TEST(storage_serialize, well_formed_v1_frame_is_rejected)
{
    // v1 decoding is retired: a checksum-valid v1 cell frame of any
    // built-in benchmark is a version mismatch, never a decoded cell.
    for (const workload::benchmark_id id : workload::all_benchmarks()) {
        const std::string frame =
            encode_v1_cell(tiny_cell(), static_cast<std::uint8_t>(id));
        EXPECT_THROW((void)storage::decode_sweep_cell(frame), storage::serialize_error)
            << workload::benchmark_name(id);
    }
}

// -- corruption rejection ---------------------------------------------------

TEST(storage_serialize, truncation_is_rejected_at_every_length)
{
    const std::string frame = storage::encode(tiny_cell());
    for (std::size_t len = 0; len < frame.size(); ++len) {
        EXPECT_THROW((void)storage::decode_sweep_cell(frame.substr(0, len)),
                     storage::serialize_error)
            << "accepted a frame truncated to " << len << " bytes";
    }
}

TEST(storage_serialize, any_single_bit_flip_is_rejected)
{
    const std::string frame = storage::encode(tiny_cell());
    // Every byte, one bit each (bit index varies to cover all positions).
    for (std::size_t i = 0; i < frame.size(); ++i) {
        std::string corrupt = frame;
        corrupt[i] = static_cast<char>(corrupt[i] ^ (1 << (i % 8)));
        EXPECT_THROW((void)storage::decode_sweep_cell(corrupt), storage::serialize_error)
            << "accepted a bit flip in byte " << i;
    }
}

TEST(storage_serialize, wrong_version_is_rejected_even_with_valid_checksum)
{
    // Only format_version decodes: the next version, the retired v1 and
    // the never-valid 0 are all rejected.
    for (const std::uint32_t version : {storage::format_version + 1, 1u, 0u}) {
        std::string frame = storage::encode(tiny_cell());
        frame[8] = static_cast<char>(version); // LE low byte
        EXPECT_THROW((void)storage::decode_sweep_cell(with_fixed_checksum(frame)),
                     storage::serialize_error)
            << "accepted version " << version;
    }
}

TEST(storage_serialize, wrong_magic_is_rejected_even_with_valid_checksum)
{
    std::string frame = storage::encode(tiny_cell());
    frame[0] = 'X';
    EXPECT_THROW((void)storage::decode_sweep_cell(with_fixed_checksum(frame)),
                 storage::serialize_error);
}

TEST(storage_serialize, payload_kind_mismatch_is_rejected)
{
    // A checksum-valid frame labeled with a retired kind (1 = program
    // artifacts, 3 = shard manifest, 4 = shard progress) or an unknown one
    // is not a sweep cell, whatever its payload.
    for (const std::uint32_t kind : {0u, 1u, 3u, 4u, 5u}) {
        std::string frame = storage::encode(tiny_cell());
        frame[12] = static_cast<char>(kind); // LE low byte
        EXPECT_THROW((void)storage::decode_sweep_cell(with_fixed_checksum(frame)),
                     storage::serialize_error)
            << "accepted payload kind " << kind;
    }
}

TEST(storage_serialize, trailing_bytes_are_rejected)
{
    std::string frame = storage::encode(tiny_cell());
    frame.insert(frame.size() - 8, 1, '\0'); // extra payload byte
    EXPECT_THROW((void)storage::decode_sweep_cell(with_fixed_checksum(frame)),
                 storage::serialize_error);
}

TEST(storage_serialize, hostile_length_fields_cannot_force_huge_allocations)
{
    // Claim 2^60 Pareto points (and, separately, 2^60 intervals) in a tiny
    // cell frame; the decoder must reject from the length bound, not die
    // attempting the allocation.
    runtime::sweep_cell cell = tiny_cell();
    cell.equal_weight.intervals.clear();
    const auto hostile_frame = [&cell](bool hostile_intervals) {
        storage::binary_writer out = frame_header(
            storage::format_version,
            static_cast<std::uint32_t>(storage::payload_kind::sweep_cell));
        storage::write(out, cell.workload);
        out.u8(static_cast<std::uint8_t>(cell.stage));
        out.u8(static_cast<std::uint8_t>(cell.policy));
        out.f64(cell.theta_eq);
        out.u64(cell.task_seed);
        out.u8(static_cast<std::uint8_t>(cell.equal_weight.kind));
        if (hostile_intervals) {
            out.size(1ull << 60); // interval count: hostile
        } else {
            out.size(0);
            out.f64(cell.equal_weight.sum.energy);
            out.f64(cell.equal_weight.sum.time_ps);
            out.size(1ull << 60); // pareto count: hostile
        }
        return seal(out);
    };
    EXPECT_THROW((void)storage::decode_sweep_cell(hostile_frame(false)),
                 storage::serialize_error);
    EXPECT_THROW((void)storage::decode_sweep_cell(hostile_frame(true)),
                 storage::serialize_error);
}

TEST(storage_serialize, hostile_workload_name_length_is_rejected)
{
    // A cell frame whose workload-name length claims 2^60 bytes: the string
    // read must reject against the remaining frame size, never allocate.
    storage::binary_writer out = frame_header(
        storage::format_version, static_cast<std::uint32_t>(storage::payload_kind::sweep_cell));
    out.u64(0x1234);      // workload id
    out.size(1ull << 60); // workload name length: hostile
    EXPECT_THROW((void)storage::decode_sweep_cell(seal(out)), storage::serialize_error);
}

} // namespace
