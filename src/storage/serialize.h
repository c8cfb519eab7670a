// serialize.h -- versioned binary serialization for sweep checkpoints.
//
// The artifact store persists finished runtime::sweep_cells across process
// lifetimes, so a killed or repeated sweep can restore them instead of
// recomputing. Everything here is explicit about bytes, because the files
// outlive any one build of the code:
//
//   * all integers are written little-endian, regardless of host order;
//     doubles go through their IEEE-754 bit pattern (bit-exactness is the
//     whole point: a resumed run must reproduce a cold run bit for bit);
//   * every frame starts with an 8-byte magic, the format version and a
//     payload kind, and ends with a trailing FNV-1a checksum over
//     everything before it -- so truncation, bit flips, version skew and
//     mislabeled payloads are all detected at decode time;
//   * decoders never trust a length field: each read is bounds-checked
//     against the remaining bytes and enum values are range-checked, so a
//     corrupt file raises serialize_error instead of undefined behavior.
//
// format_version MUST be bumped for any change to a serialized struct's
// fields or their order, AND for any result-affecting change to the
// pipeline that produces them (characterization, policy evaluation):
// stored cells are adopted verbatim on resume, so a behavioral change
// behind an unchanged layout would otherwise let a store keep serving
// pre-change results. The store keys its directory layout on the version,
// so a bump makes every old file invisible rather than misread. (CI
// additionally keys its persistent store on a hash of src/, catching a
// forgotten bump before it can taint a green build.)
// tests/test_storage_serialize.cpp perturbs every serialized field
// (encoded bytes must change) and pins the current frame bytes of a golden
// cell, so silent drift fails the suite.
//
// Version history:
//   v1  workload identity = benchmark_id ordinal (u8) -- the closed ten.
//   v2  workload identity = workload_key (u64 registry digest + name), so
//       frames can carry any registered workload, including parametric
//       scenario instances.
// Decoders accept exactly format_version. v1 decoding is retired: the
// store never served v1 files (its paths embed the version), and nothing
// else reads frames.

#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "runtime/sweep.h"

namespace synts::storage {

/// Bumped on ANY change to the framing or a serialized struct layout.
inline constexpr std::uint32_t format_version = 2;

/// First 8 bytes of every frame.
inline constexpr std::string_view frame_magic = "SYNTSTOR";

/// Raised by decoders on truncation, checksum/magic/version/kind mismatch,
/// out-of-range enum values, or trailing bytes. Callers treat it as "this
/// file is not a usable checkpoint" (recompute the cell), never as fatal.
class serialize_error : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// What a frame contains (encoded in the header, checked on decode).
/// Adding a kind does not change any existing frame's bytes, so it needs
/// no format_version bump -- old frames stay valid, and an old binary
/// rejects the new kind as a payload-kind mismatch. Retired values, never
/// to be reused (stores written before their removal still hold such
/// files): 1 = program artifacts (`program/`), 3 = shard manifest and
/// 4 = shard progress (`manifest/`).
enum class payload_kind : std::uint32_t {
    sweep_cell = 2,
};

/// Appends explicitly little-endian primitives to a byte buffer.
class binary_writer {
public:
    void u8(std::uint8_t v) { buffer_.push_back(static_cast<char>(v)); }
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    /// std::size_t is serialized as u64 so 32- and 64-bit hosts agree.
    void size(std::size_t v) { u64(static_cast<std::uint64_t>(v)); }
    /// IEEE-754 bit pattern (bit-exact round trip, including -0.0 / NaN).
    void f64(double v);
    void boolean(bool v) { u8(v ? 1 : 0); }
    /// Length-prefixed byte string (u64 length + raw bytes).
    void str(std::string_view s);

    [[nodiscard]] const std::string& bytes() const noexcept { return buffer_; }
    [[nodiscard]] std::string take() noexcept { return std::move(buffer_); }

private:
    std::string buffer_;
};

/// Bounds-checked little-endian reads over a byte view. Throws
/// serialize_error on underflow; never reads past the view.
class binary_reader {
public:
    explicit binary_reader(std::string_view data) noexcept : data_(data) {}

    [[nodiscard]] std::uint8_t u8();
    [[nodiscard]] std::uint32_t u32();
    [[nodiscard]] std::uint64_t u64();
    /// u64 narrowed to size_t; throws serialize_error if it does not fit.
    [[nodiscard]] std::size_t size();
    [[nodiscard]] double f64();
    [[nodiscard]] bool boolean();
    /// Length-prefixed byte string; the length is bounds-checked against
    /// the remaining bytes, so a hostile length cannot force an allocation
    /// larger than the frame itself.
    [[nodiscard]] std::string str();

    [[nodiscard]] std::size_t remaining() const noexcept
    {
        // Invariant: every advance bounds-checks, so offset_ <= size().
        return data_.size() - offset_; // synts-lint: allow(unchecked-size)
    }
    [[nodiscard]] bool at_end() const noexcept { return offset_ == data_.size(); }

private:
    std::string_view data_;
    std::size_t offset_ = 0;
};

// -- struct codecs (payload only, no framing) -------------------------------
// write/read pairs must mirror each other exactly; the drift tests guard
// every field. Readers range-check enums and validate invariants cheap
// enough to check inline (deep structural validation is the caller's call).

void write(binary_writer& out, const workload::workload_key& key);
[[nodiscard]] workload::workload_key read_workload_key(binary_reader& in);

void write(binary_writer& out, const core::pareto_point& point);
[[nodiscard]] core::pareto_point read_pareto_point(binary_reader& in);

void write(binary_writer& out, const core::interval_outcome& outcome);
[[nodiscard]] core::interval_outcome read_interval_outcome(binary_reader& in);

void write(binary_writer& out, const core::benchmark_experiment::policy_run& run);
[[nodiscard]] core::benchmark_experiment::policy_run
read_policy_run(binary_reader& in);

void write(binary_writer& out, const runtime::sweep_cell& cell);
[[nodiscard]] runtime::sweep_cell read_sweep_cell(binary_reader& in);

// -- framed envelopes -------------------------------------------------------
// encode produces a complete self-verifying frame:
//   magic(8) | format_version(u32) | payload_kind(u32) | payload |
//   checksum(u64, FNV-1a over everything before it)
// decode_sweep_cell verifies checksum, magic, version (exactly
// format_version) and kind, and requires the frame to end exactly at the
// checksum (no trailing bytes).

[[nodiscard]] std::string encode(const runtime::sweep_cell& cell);
[[nodiscard]] runtime::sweep_cell decode_sweep_cell(std::string_view frame);

} // namespace synts::storage
