#include "storage/artifact_store.h"

#include <cerrno>
#include <csignal>
#include <fstream>
#include <stdexcept>
#include <system_error>
#include <unistd.h>

#include "obs/metrics.h"
#include "storage/serialize.h"

namespace synts::storage {

namespace fs = std::filesystem;

namespace {

/// 16 lowercase hex digits, fixed width (file names sort and shard stably).
std::string hex16(std::uint64_t v)
{
    static constexpr char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[v & 0xF];
        v >>= 4;
    }
    return out;
}

/// Reaps staging files orphaned by killed writers. A tmp name embeds its
/// writer's pid (<hex16>.<pid>.<n>.tmp); files whose pid is no longer
/// alive on this machine, or that cannot be parsed, are dead weight --
/// frames a kill -9 mid-publish left behind, which nothing else ever
/// deletes. Files of live pids are kept. (A writer on
/// ANOTHER machine sharing the store could lose its staging file to a
/// pid-number coincidence in the other direction only -- we KEEP anything
/// that looks alive -- and losing a tmp file merely fails that writer's
/// rename, which is absorbed as a store failure; published entries are
/// never touched.)
void reap_stale_tmp_files(const fs::path& tmp_dir)
{
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(tmp_dir, ec)) {
        if (!entry.is_regular_file(ec)) {
            continue;
        }
        const std::string name = entry.path().filename().string();
        // <hex16> '.' <pid> '.' <counter> ".tmp"
        bool alive = false;
        const std::size_t pid_begin = name.find('.');
        if (pid_begin != std::string::npos) {
            const std::size_t pid_end = name.find('.', pid_begin + 1);
            if (pid_end != std::string::npos) {
                try {
                    const int pid =
                        std::stoi(name.substr(pid_begin + 1, pid_end - pid_begin - 1));
                    alive = pid > 0 && (::kill(pid, 0) == 0 || errno != ESRCH);
                } catch (const std::exception&) {
                    alive = false; // unparseable == not one of ours, reap
                }
            }
        }
        if (!alive) {
            fs::remove(entry.path(), ec);
        }
    }
}

} // namespace

artifact_store::artifact_store(fs::path root)
    : root_(std::move(root)),
      obs_load_hits_(&obs::metrics_registry::global().counter_at("store.load_hits")),
      obs_load_misses_(&obs::metrics_registry::global().counter_at("store.load_misses")),
      obs_stores_(&obs::metrics_registry::global().counter_at("store.stores")),
      obs_store_failures_(
          &obs::metrics_registry::global().counter_at("store.store_failures")),
      obs_bytes_read_(&obs::metrics_registry::global().counter_at("store.bytes_read")),
      obs_bytes_written_(
          &obs::metrics_registry::global().counter_at("store.bytes_written")),
      obs_load_ns_(&obs::metrics_registry::global().histogram_at("store.load_ns")),
      obs_store_ns_(&obs::metrics_registry::global().histogram_at("store.store_ns"))
{
    std::string version_dir = "v";
    version_dir += std::to_string(format_version);
    versioned_root_ = root_ / version_dir;
    tmp_dir_ = versioned_root_ / "tmp";
    std::error_code ec;
    fs::create_directories(tmp_dir_, ec);
    if (ec || !fs::is_directory(tmp_dir_)) {
        throw std::runtime_error("artifact_store: cannot create store at " +
                                 root_.string() + ": " + ec.message());
    }
    reap_stale_tmp_files(tmp_dir_);
}

fs::path artifact_store::entry_path(std::string_view bucket, std::uint64_t digest) const
{
    const std::string name = hex16(digest);
    return versioned_root_ / std::string(bucket) / name.substr(0, 2) /
           (name + ".bin");
}

std::optional<std::string> artifact_store::load(std::string_view bucket,
                                                std::uint64_t digest) const
{
    // One sized block read. A frame swapped by a concurrent publish
    // between the stat and the read just comes up short or long -- the
    // decoder's checksum treats either as a miss.
    const obs::scoped_timer timer(*obs_load_ns_);
    const fs::path path = entry_path(bucket, digest);
    std::error_code ec;
    const std::uintmax_t size = fs::file_size(path, ec);
    std::ifstream in(path, std::ios::binary);
    if (ec || !in) {
        load_misses_.fetch_add(1, std::memory_order_relaxed);
        obs_load_misses_->add(1);
        return std::nullopt;
    }
    std::string frame(static_cast<std::size_t>(size), '\0');
    in.read(frame.data(), static_cast<std::streamsize>(frame.size()));
    if (in.gcount() != static_cast<std::streamsize>(frame.size()) || in.bad()) {
        load_misses_.fetch_add(1, std::memory_order_relaxed);
        obs_load_misses_->add(1);
        return std::nullopt;
    }
    load_hits_.fetch_add(1, std::memory_order_relaxed);
    obs_load_hits_->add(1);
    obs_bytes_read_->add(frame.size());
    return frame;
}

bool artifact_store::store(std::string_view bucket, std::uint64_t digest,
                           std::string_view frame) const
{
    const obs::scoped_timer timer(*obs_store_ns_);
    const fs::path target = entry_path(bucket, digest);
    // Temp name unique per (process, call): the counter is process-wide,
    // not per-instance, so even two store instances opened on one root in
    // one process (two caches sharing a directory) never collide on the
    // staging file. Cross-process uniqueness comes from the pid.
    static std::atomic<std::uint64_t> tmp_counter{0};
    const fs::path tmp =
        tmp_dir_ / (hex16(digest) + "." + std::to_string(::getpid()) + "." +
                    std::to_string(tmp_counter.fetch_add(1, std::memory_order_relaxed)) +
                    ".tmp");
    std::error_code ec;
    fs::create_directories(target.parent_path(), ec);
    if (ec) {
        store_failures_.fetch_add(1, std::memory_order_relaxed);
        obs_store_failures_->add(1);
        return false;
    }
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out.write(frame.data(), static_cast<std::streamsize>(frame.size())) ||
            !out.flush()) {
            out.close();
            fs::remove(tmp, ec);
            store_failures_.fetch_add(1, std::memory_order_relaxed);
            obs_store_failures_->add(1);
            return false;
        }
    }
    // POSIX rename: atomic publish; replaces an existing entry whole.
    fs::rename(tmp, target, ec);
    if (ec) {
        fs::remove(tmp, ec);
        store_failures_.fetch_add(1, std::memory_order_relaxed);
        obs_store_failures_->add(1);
        return false;
    }
    stores_.fetch_add(1, std::memory_order_relaxed);
    obs_stores_->add(1);
    obs_bytes_written_->add(frame.size());
    return true;
}

} // namespace synts::storage
