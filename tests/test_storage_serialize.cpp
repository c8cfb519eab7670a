// Tests for storage/serialize: bit-exact round trips of every persisted
// type, PR-2-style drift guards (perturbing any serialized field must
// change the encoded bytes -- a field the codec forgets fails here), a
// golden-bytes test pinning the v1 on-disk format, and decode rejection of
// every corruption class (truncation, bit flips, version skew, payload
// kind mismatch, trailing bytes).

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "runtime/sweep.h"
#include "runtime/thread_pool.h"
#include "storage/serialize.h"
#include "util/hashing.h"

namespace {

using namespace synts;

// -- fixtures ---------------------------------------------------------------

/// A small, fully hand-specified artifact set: every field non-default so
/// a dropped field cannot hide behind a zero.
core::program_artifacts tiny_artifacts()
{
    core::program_artifacts artifacts;
    artifacts.workload = workload::benchmark_id::radix;
    artifacts.thread_count = 2;
    artifacts.seed = 42;
    artifacts.workload_digest = 0x0123456789ABCDEFull;

    arch::thread_trace thread0;
    thread0.ops.push_back({arch::op_class::int_add, 0xDEADBEEFu, 1, 2, 3, false});
    thread0.barrier_points = {1};
    arch::thread_trace thread1;
    thread1.ops.push_back({arch::op_class::branch, 0x12345678u, 4, 5, 6, true});
    thread1.barrier_points = {1};
    artifacts.trace.threads = {thread0, thread1};

    artifacts.arch_profiles = {
        {{10, 20, 2.0, 0.25, 0.125}},
        {{11, 22, 2.5, 0.5, 0.0625}},
    };
    return artifacts;
}

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

bool same_artifacts(const core::program_artifacts& a, const core::program_artifacts& b)
{
    if (a.workload != b.workload || a.thread_count != b.thread_count ||
        a.seed != b.seed || a.workload_digest != b.workload_digest ||
        a.trace.thread_count() != b.trace.thread_count() ||
        a.arch_profiles.size() != b.arch_profiles.size()) {
        return false;
    }
    for (std::size_t t = 0; t < a.trace.thread_count(); ++t) {
        const arch::thread_trace& x = a.trace.threads[t];
        const arch::thread_trace& y = b.trace.threads[t];
        if (x.barrier_points != y.barrier_points || x.ops.size() != y.ops.size()) {
            return false;
        }
        for (std::size_t n = 0; n < x.ops.size(); ++n) {
            if (x.ops[n].cls != y.ops[n].cls || x.ops[n].encoding != y.ops[n].encoding ||
                x.ops[n].operand_a != y.ops[n].operand_a ||
                x.ops[n].operand_b != y.ops[n].operand_b ||
                x.ops[n].address != y.ops[n].address ||
                x.ops[n].branch_taken != y.ops[n].branch_taken) {
                return false;
            }
        }
    }
    for (std::size_t t = 0; t < a.arch_profiles.size(); ++t) {
        if (a.arch_profiles[t].size() != b.arch_profiles[t].size()) {
            return false;
        }
        for (std::size_t k = 0; k < a.arch_profiles[t].size(); ++k) {
            const arch::interval_profile& x = a.arch_profiles[t][k];
            const arch::interval_profile& y = b.arch_profiles[t][k];
            if (x.instruction_count != y.instruction_count ||
                x.base_cycles != y.base_cycles || x.cpi_base != y.cpi_base ||
                x.dcache_miss_rate != y.dcache_miss_rate ||
                x.branch_misprediction_rate != y.branch_misprediction_rate) {
                return false;
            }
        }
    }
    return true;
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

TEST(storage_serialize, tiny_artifacts_round_trip_bit_exact)
{
    const core::program_artifacts original = tiny_artifacts();
    const std::string frame = storage::encode(original);
    const core::program_artifacts decoded = storage::decode_program_artifacts(frame);
    EXPECT_TRUE(same_artifacts(original, decoded));
    // Re-encoding the decoded struct reproduces the frame byte for byte.
    EXPECT_EQ(storage::encode(decoded), frame);
}

TEST(storage_serialize, real_pipeline_artifacts_round_trip_bit_exact)
{
    const auto original = core::make_program_artifacts(workload::benchmark_id::radix);
    const std::string frame = storage::encode(*original);
    const core::program_artifacts decoded = storage::decode_program_artifacts(frame);
    EXPECT_TRUE(same_artifacts(*original, decoded));
    EXPECT_NO_THROW(decoded.validate());
    EXPECT_TRUE(decoded.provenance_matches(workload::benchmark_id::radix,
                                           original->thread_count,
                                           original->workload_digest));
    EXPECT_FALSE(decoded.provenance_matches(workload::benchmark_id::fmm,
                                            original->thread_count,
                                            original->workload_digest));
}

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

TEST(storage_serialize, every_artifact_field_reaches_the_encoding)
{
    const std::string baseline = storage::encode(tiny_artifacts());

    const std::vector<
        std::pair<const char*, std::function<void(core::program_artifacts&)>>>
        perturbations = {
            {"workload.name", [](auto& a) { a.workload.name += "x"; }},
            {"workload.id", [](auto& a) { a.workload.id ^= 1; }},
            {"thread_count", [](auto& a) { a.thread_count = 3; }},
            {"seed", [](auto& a) { a.seed = 43; }},
            {"workload_digest", [](auto& a) { a.workload_digest ^= 1; }},
            {"op.cls",
             [](auto& a) { a.trace.threads[0].ops[0].cls = arch::op_class::int_sub; }},
            {"op.encoding", [](auto& a) { a.trace.threads[0].ops[0].encoding ^= 1; }},
            {"op.operand_a", [](auto& a) { a.trace.threads[0].ops[0].operand_a ^= 1; }},
            {"op.operand_b", [](auto& a) { a.trace.threads[0].ops[0].operand_b ^= 1; }},
            {"op.address", [](auto& a) { a.trace.threads[0].ops[0].address ^= 1; }},
            {"op.branch_taken",
             [](auto& a) { a.trace.threads[0].ops[0].branch_taken = true; }},
            {"barrier_points",
             [](auto& a) {
                 a.trace.threads[0].ops.push_back(a.trace.threads[0].ops[0]);
                 a.trace.threads[0].barrier_points = {2};
             }},
            {"profile.instruction_count",
             [](auto& a) { a.arch_profiles[0][0].instruction_count ^= 1; }},
            {"profile.base_cycles",
             [](auto& a) { a.arch_profiles[0][0].base_cycles ^= 1; }},
            {"profile.cpi_base", [](auto& a) { a.arch_profiles[0][0].cpi_base = 3.0; }},
            {"profile.dcache_miss_rate",
             [](auto& a) { a.arch_profiles[0][0].dcache_miss_rate = 0.375; }},
            {"profile.branch_misprediction_rate",
             [](auto& a) { a.arch_profiles[0][0].branch_misprediction_rate = 0.75; }},
        };

    for (const auto& [name, perturb] : perturbations) {
        core::program_artifacts perturbed = tiny_artifacts();
        perturb(perturbed);
        EXPECT_NE(storage::encode(perturbed), baseline)
            << "field not serialized: " << name;
    }
}

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

/// Re-encodes tiny_artifacts() as a v1 frame: the pre-registry layout with
/// a benchmark_id ordinal (u8) where v2 stores the workload key. Used to
/// prove v1 store frames of the built-in ten still decode after the bump.
std::string encode_v1_artifacts(const core::program_artifacts& artifacts,
                                std::uint8_t benchmark_ordinal)
{
    storage::binary_writer out;
    for (const char c : storage::frame_magic) {
        out.u8(static_cast<std::uint8_t>(c));
    }
    out.u32(1); // v1
    out.u32(static_cast<std::uint32_t>(storage::payload_kind::program_artifacts));
    out.u8(benchmark_ordinal);
    out.size(artifacts.thread_count);
    out.u64(artifacts.seed);
    out.u64(artifacts.workload_digest);
    storage::write(out, artifacts.trace);
    out.size(artifacts.arch_profiles.size());
    for (const auto& thread : artifacts.arch_profiles) {
        out.size(thread.size());
        for (const auto& interval : thread) {
            storage::write(out, interval);
        }
    }
    std::string frame = out.take();
    frame.append(8, '\0');
    return with_fixed_checksum(std::move(frame));
}

/// The exact 269-byte v1 frame of tiny_artifacts(), as hex: header
/// ("SYNTSTOR", version 1, kind 1), the payload field by field in little
/// endian (benchmark as a u8 ordinal), and the trailing FNV-1a checksum.
/// These bytes were produced by the PR-3 v1 encoder and are frozen here:
/// they are what a pre-registry store actually contains.
constexpr std::string_view kGoldenV1FrameHex =
    "53594e5453544f520100000001000000"
    "0102000000000000002a000000000000"
    "00efcdab896745230102000000000000"
    "00010000000000000000efbeadde0100"
    "00000000000002000000000000000300"
    "00000000000000010000000000000001"
    "00000000000000010000000000000006"
    "78563412040000000000000005000000"
    "00000000060000000000000001010000"
    "00000000000100000000000000020000"
    "000000000001000000000000000a0000"
    "00000000001400000000000000000000"
    "0000000040000000000000d03f000000"
    "000000c03f01000000000000000b0000"
    "00000000001600000000000000000000"
    "0000000440000000000000e03f000000"
    "000000b03f3dea736deece9031";

/// The exact v2 frame of tiny_artifacts(): as v1, but the benchmark
/// ordinal is replaced by the workload key (u64 registry digest + length-
/// prefixed name "Radix") and the header says version 2.
constexpr std::string_view kGoldenV2FrameHex =
    "53594e5453544f520200000001000000"
    "d04842bc646e0c42050000000000000052616469780200000000000000"
    "2a00000000000000efcdab8967452301"
    "0200000000000000010000000000000000efbeadde0100000000000000"
    "02000000000000000300000000000000"
    "00010000000000000001000000000000"
    "00010000000000000006785634120400"
    "00000000000005000000000000000600"
    "00000000000001010000000000000001"
    "00000000000000020000000000000001"
    "000000000000000a0000000000000014"
    "00000000000000000000000000004000"
    "0000000000d03f000000000000c03f01"
    "000000000000000b0000000000000016"
    "00000000000000000000000000044000"
    "0000000000e03f000000000000b03f"
    "9c4c2e8fdb345eca";

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

TEST(storage_serialize, golden_v1_frame_still_decodes_after_version_bump)
{
    // The frozen PR-3 bytes: a v1 store frame of tiny_artifacts() with
    // benchmark_id::radix as a u8 ordinal. The v2 decoder must keep
    // accepting it, mapping the ordinal onto the built-in registry key.
    const core::program_artifacts decoded =
        storage::decode_program_artifacts(from_hex(kGoldenV1FrameHex));
    EXPECT_TRUE(same_artifacts(decoded, tiny_artifacts()));
    EXPECT_EQ(decoded.workload, workload::builtin_key(workload::benchmark_id::radix));
}

TEST(storage_serialize, v1_frames_of_every_builtin_benchmark_decode)
{
    for (const workload::benchmark_id id : workload::all_benchmarks()) {
        const std::string frame =
            encode_v1_artifacts(tiny_artifacts(), static_cast<std::uint8_t>(id));
        const core::program_artifacts decoded = storage::decode_program_artifacts(frame);
        EXPECT_EQ(decoded.workload, workload::builtin_key(id));
        EXPECT_EQ(decoded.seed, tiny_artifacts().seed);
    }
    // The golden hex and the re-encoder agree byte for byte (so the
    // re-encoder really is the v1 layout, not an approximation).
    EXPECT_EQ(to_hex(encode_v1_artifacts(
                  tiny_artifacts(),
                  static_cast<std::uint8_t>(workload::benchmark_id::radix))),
              std::string(kGoldenV1FrameHex));
}

TEST(storage_serialize, v1_out_of_range_benchmark_ordinal_is_rejected)
{
    const std::string frame = encode_v1_artifacts(
        tiny_artifacts(), static_cast<std::uint8_t>(workload::benchmark_count));
    EXPECT_THROW((void)storage::decode_program_artifacts(frame),
                 storage::serialize_error);
}

TEST(storage_serialize, golden_frame_pins_v2_format)
{
    // The exact v2 frame of tiny_artifacts(). If this test fails, the
    // on-disk format changed: bump storage::format_version (old store
    // files become invisible, not misread) and re-pin these bytes.
    ASSERT_EQ(storage::format_version, 2u);
    const std::string frame = storage::encode(tiny_artifacts());

    // Header: magic + version + payload kind, all fixed.
    ASSERT_GE(frame.size(), 16u);
    EXPECT_EQ(frame.substr(0, 8), "SYNTSTOR");
    EXPECT_EQ(to_hex(frame.substr(8, 4)), "02000000");  // version 2, LE
    EXPECT_EQ(to_hex(frame.substr(12, 4)), "01000000"); // kind: program_artifacts

    EXPECT_EQ(to_hex(frame), std::string(kGoldenV2FrameHex));
}

// -- corruption rejection ---------------------------------------------------

TEST(storage_serialize, truncation_is_rejected_at_every_length)
{
    const std::string frame = storage::encode(tiny_artifacts());
    for (std::size_t len = 0; len < frame.size(); ++len) {
        EXPECT_THROW((void)storage::decode_program_artifacts(frame.substr(0, len)),
                     storage::serialize_error)
            << "accepted a frame truncated to " << len << " bytes";
    }
}

TEST(storage_serialize, any_single_bit_flip_is_rejected)
{
    const std::string frame = storage::encode(tiny_artifacts());
    // Every byte, one bit each (bit index varies to cover all positions).
    for (std::size_t i = 0; i < frame.size(); ++i) {
        std::string corrupt = frame;
        corrupt[i] = static_cast<char>(corrupt[i] ^ (1 << (i % 8)));
        EXPECT_THROW((void)storage::decode_program_artifacts(corrupt),
                     storage::serialize_error)
            << "accepted a bit flip in byte " << i;
    }
}

TEST(storage_serialize, wrong_version_is_rejected_even_with_valid_checksum)
{
    // Future versions are rejected...
    std::string future = storage::encode(tiny_artifacts());
    future[8] = static_cast<char>(storage::format_version + 1); // LE low byte
    EXPECT_THROW((void)storage::decode_program_artifacts(with_fixed_checksum(future)),
                 storage::serialize_error);
    // ...and so is anything below min_format_version (0 was never valid).
    std::string ancient = storage::encode(tiny_artifacts());
    ancient[8] = 0;
    EXPECT_THROW((void)storage::decode_program_artifacts(with_fixed_checksum(ancient)),
                 storage::serialize_error);
}

TEST(storage_serialize, wrong_magic_is_rejected_even_with_valid_checksum)
{
    std::string frame = storage::encode(tiny_artifacts());
    frame[0] = 'X';
    EXPECT_THROW((void)storage::decode_program_artifacts(with_fixed_checksum(frame)),
                 storage::serialize_error);
}

TEST(storage_serialize, payload_kind_mismatch_is_rejected)
{
    // A perfectly valid artifact frame is not a sweep cell, and vice versa.
    EXPECT_THROW((void)storage::decode_sweep_cell(storage::encode(tiny_artifacts())),
                 storage::serialize_error);
    EXPECT_THROW((void)storage::decode_program_artifacts(storage::encode(tiny_cell())),
                 storage::serialize_error);
}

TEST(storage_serialize, trailing_bytes_are_rejected)
{
    std::string frame = storage::encode(tiny_artifacts());
    frame.insert(frame.size() - 8, 1, '\0'); // extra payload byte
    EXPECT_THROW((void)storage::decode_program_artifacts(with_fixed_checksum(frame)),
                 storage::serialize_error);
}

TEST(storage_serialize, hostile_length_fields_cannot_force_huge_allocations)
{
    // Claim 2^60 ops in a 100-byte v1 frame; the decoder must reject from
    // the length bound, not die attempting the allocation.
    storage::binary_writer out;
    for (const char c : storage::frame_magic) {
        out.u8(static_cast<std::uint8_t>(c));
    }
    out.u32(1); // v1 framing (u8 benchmark ordinal below)
    out.u32(static_cast<std::uint32_t>(storage::payload_kind::program_artifacts));
    out.u8(0);          // benchmark
    out.size(2);        // thread_count
    out.u64(42);        // seed
    out.u64(0);         // workload digest
    out.size(1ull << 60); // thread count of the trace: hostile
    std::string frame = out.take();
    frame.append(8, '\0');
    EXPECT_THROW((void)storage::decode_program_artifacts(with_fixed_checksum(frame)),
                 storage::serialize_error);
}

TEST(storage_serialize, hostile_workload_name_length_is_rejected)
{
    // A v2 frame whose workload-name length claims 2^60 bytes: the string
    // read must reject against the remaining frame size, never allocate.
    storage::binary_writer out;
    for (const char c : storage::frame_magic) {
        out.u8(static_cast<std::uint8_t>(c));
    }
    out.u32(storage::format_version);
    out.u32(static_cast<std::uint32_t>(storage::payload_kind::program_artifacts));
    out.u64(0x1234);      // workload id
    out.size(1ull << 60); // workload name length: hostile
    std::string frame = out.take();
    frame.append(8, '\0');
    EXPECT_THROW((void)storage::decode_program_artifacts(with_fixed_checksum(frame)),
                 storage::serialize_error);
}

} // namespace
