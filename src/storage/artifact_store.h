// artifact_store.h -- on-disk sweep-cell checkpoints.
//
// A content-addressed blob store for serialized frames, shared by every
// process pointed at the same root directory. Layout:
//
//   root/v<format_version>/<bucket>/<hh>/<16-hex-digest>.bin
//
// where <bucket> groups payload kinds (today only "cell", for finished
// sweep cells; stores written by older builds may also hold "program" and
// "manifest" directories, which nothing reads), <hh> is the digest's top
// byte in hex (256-way directory sharding, so huge stores never
// degenerate into one flat directory), and the file is a self-verifying
// storage::serialize frame. The format version is part of the PATH: bumping it makes every
// old file invisible instead of rejected one by one.
//
// Concurrency contract: writers stage into a per-store tmp/ directory and
// publish with an atomic rename, so a reader (same process or another
// runner sharing the directory) either sees a complete frame or no file --
// never a torn one. Duplicate concurrent writers of one key are benign:
// both frames are identical by construction (deterministic pipeline), and
// rename-over-existing simply replaces like with like. The store itself is
// dumb on purpose -- it moves bytes and never decodes them; typed
// validation (checksum, cell identity) lives with the callers, which treat
// every failure as a miss and recompute.
//
// All filesystem errors are absorbed into "miss" (load) or "false" (store):
// a read-only or vanished directory degrades checkpointing to a no-op
// rather than failing the sweep.

#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>

namespace synts::obs {
class counter;
class latency_histogram;
} // namespace synts::obs

namespace synts::storage {

/// Bucket of sweep-cell checkpoints (kept here so every writer/reader pair
/// agrees; the store accepts any bucket token).
inline constexpr std::string_view cell_bucket = "cell";

class artifact_store {
public:
    /// Opens (and creates, if needed) the store rooted at `root`. Throws
    /// std::runtime_error when the versioned root cannot be created at all
    /// -- a store that can never work is a configuration error, unlike the
    /// transient I/O failures absorbed by load/store.
    explicit artifact_store(std::filesystem::path root);

    artifact_store(const artifact_store&) = delete;
    artifact_store& operator=(const artifact_store&) = delete;

    /// The directory given at construction (not the versioned subdir).
    [[nodiscard]] const std::filesystem::path& root() const noexcept { return root_; }

    /// Full path of (bucket, digest) -- exposed for tests and diagnostics.
    [[nodiscard]] std::filesystem::path entry_path(std::string_view bucket,
                                                   std::uint64_t digest) const;

    /// The raw frame of (bucket, digest), or nullopt when absent or
    /// unreadable. Returned bytes are NOT validated -- decode them.
    [[nodiscard]] std::optional<std::string> load(std::string_view bucket,
                                                  std::uint64_t digest) const;

    /// Atomically publishes `frame` as (bucket, digest): temp file in the
    /// store's tmp/ dir, then rename over the final path. Returns false
    /// (leaving no partial file behind) on any I/O failure.
    bool store(std::string_view bucket, std::uint64_t digest,
               std::string_view frame) const;

    /// Lifetime I/O counters (loads that returned bytes / came up empty,
    /// successful stores, absorbed store failures).
    [[nodiscard]] std::uint64_t load_hit_count() const noexcept
    {
        return load_hits_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t load_miss_count() const noexcept
    {
        return load_misses_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t store_count() const noexcept
    {
        return stores_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t store_failure_count() const noexcept
    {
        return store_failures_.load(std::memory_order_relaxed);
    }

private:
    std::filesystem::path root_;
    std::filesystem::path versioned_root_;
    std::filesystem::path tmp_dir_;
    mutable std::atomic<std::uint64_t> load_hits_{0};
    mutable std::atomic<std::uint64_t> load_misses_{0};
    mutable std::atomic<std::uint64_t> stores_{0};
    mutable std::atomic<std::uint64_t> store_failures_{0};

    // Registry instruments (store.* taxonomy), resolved once at
    // construction; counters aggregate every store instance in the
    // process, the latency histograms are gated on obs::enabled().
    obs::counter* obs_load_hits_;
    obs::counter* obs_load_misses_;
    obs::counter* obs_stores_;
    obs::counter* obs_store_failures_;
    obs::counter* obs_bytes_read_;
    obs::counter* obs_bytes_written_;
    obs::latency_histogram* obs_load_ns_;
    obs::latency_histogram* obs_store_ns_;
};

} // namespace synts::storage
