// Tests for storage/artifact_store and the sweep checkpoints it holds:
// sharded layout and atomic publish, every corruption class of a
// checkpoint (truncated, bit-flipped, wrong-version, misfiled frames)
// degrading to a recompute -- never a crash, never stale data -- --resume
// semantics, the single bucket a store-backed sweep writes, and two sweeps
// racing on one shared store directory (the TSan job runs this suite).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <unistd.h>

#include "obs/metrics.h"
#include "runtime/experiment_cache.h"
#include "runtime/sweep.h"
#include "runtime/thread_pool.h"
#include "storage/artifact_store.h"
#include "storage/serialize.h"

namespace {

using namespace synts;
namespace fs = std::filesystem;

constexpr auto kBenchmark = workload::benchmark_id::radix;

/// Self-cleaning unique directory under the system temp dir.
struct temp_dir {
    fs::path path;

    temp_dir()
    {
        static std::atomic<std::uint64_t> counter{0};
        path = fs::temp_directory_path() /
               ("synts_store_test_" + std::to_string(::getpid()) + "_" +
                std::to_string(counter.fetch_add(1)));
        fs::create_directories(path);
    }
    ~temp_dir()
    {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
};

void corrupt_file(const fs::path& path, std::size_t byte, std::uint8_t mask)
{
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(file) << path;
    file.seekg(static_cast<std::streamoff>(byte));
    char c = 0;
    file.get(c);
    file.seekp(static_cast<std::streamoff>(byte));
    file.put(static_cast<char>(static_cast<std::uint8_t>(c) ^ mask));
}

void truncate_file(const fs::path& path, std::size_t keep_bytes)
{
    fs::resize_file(path, keep_bytes);
}

bool same_cells(const runtime::sweep_cell& a, const runtime::sweep_cell& b)
{
    return storage::encode(a) == storage::encode(b);
}

/// Removes a checkpoint file, as if its sweep was killed before writing it.
void erase_entry(const storage::artifact_store& store, std::uint64_t digest)
{
    std::error_code ec;
    fs::remove(store.entry_path(storage::cell_bucket, digest), ec);
}

// -- raw store behavior -----------------------------------------------------

TEST(storage_store, blob_round_trip_layout_and_counters)
{
    temp_dir dir;
    storage::artifact_store store(dir.path);
    EXPECT_EQ(store.root(), dir.path);

    const std::uint64_t key = 0xABCDEF0011223344ull;
    const fs::path entry = store.entry_path(storage::cell_bucket, key);
    EXPECT_FALSE(fs::exists(entry));
    EXPECT_EQ(store.load(storage::cell_bucket, key), std::nullopt);
    EXPECT_EQ(store.load_miss_count(), 1u);

    ASSERT_TRUE(store.store(storage::cell_bucket, key, "some frame bytes"));
    EXPECT_EQ(store.load(storage::cell_bucket, key), "some frame bytes");
    EXPECT_EQ(store.load_hit_count(), 1u);
    EXPECT_EQ(store.store_count(), 1u);

    // Sharded, versioned layout: v<format_version>/<bucket>/<top byte>/<hex16>.bin.
    const fs::path version_dir = "v" + std::to_string(storage::format_version);
    EXPECT_EQ(entry, dir.path / version_dir / "cell" / "ab" / "abcdef0011223344.bin");
    EXPECT_TRUE(fs::is_regular_file(entry));

    // Overwrite is a whole-file replace; no tmp files linger.
    ASSERT_TRUE(store.store(storage::cell_bucket, key, "updated"));
    EXPECT_EQ(store.load(storage::cell_bucket, key), "updated");
    EXPECT_TRUE(fs::is_empty(dir.path / version_dir / "tmp"));

    // Distinct buckets do not collide on one key.
    ASSERT_TRUE(store.store("other", key, "other bytes"));
    EXPECT_EQ(store.load("other", key), "other bytes");
    EXPECT_EQ(store.load(storage::cell_bucket, key), "updated");
}

TEST(storage_store, orphaned_tmp_files_are_reaped_on_open)
{
    temp_dir dir;
    {
        storage::artifact_store seed(dir.path); // create the layout
    }
    const fs::path tmp = dir.path / ("v" + std::to_string(storage::format_version)) / "tmp";
    // A staging file of a writer that can no longer exist (pid far above
    // any Linux pid_max), one with an unparseable name, and one of OURS.
    std::ofstream(tmp / "aaaa.999999999.0.tmp").put('x');
    std::ofstream(tmp / "garbage.tmp").put('x');
    const fs::path mine = tmp / ("bbbb." + std::to_string(::getpid()) + ".0.tmp");
    std::ofstream(mine).put('x');

    storage::artifact_store store(dir.path); // reaps stale entries on open
    EXPECT_FALSE(fs::exists(tmp / "aaaa.999999999.0.tmp"));
    EXPECT_FALSE(fs::exists(tmp / "garbage.tmp"));
    EXPECT_TRUE(fs::exists(mine)) << "a live writer's staging file was reaped";
}

TEST(storage_store, unusable_root_is_a_constructor_error)
{
    // A root that exists as a FILE can never become a store directory.
    temp_dir dir;
    const fs::path blocked = dir.path / "blocked";
    std::ofstream(blocked).put('x');
    EXPECT_THROW(storage::artifact_store{blocked}, std::runtime_error);
}

// -- sweep checkpointing and resume -----------------------------------------

runtime::sweep_spec checkpoint_spec()
{
    runtime::sweep_spec spec;
    spec.benchmarks = {kBenchmark};
    spec.stages = {circuit::pipe_stage::simple_alu};
    spec.policies = {core::policy_kind::nominal, core::policy_kind::synts_offline};
    spec.theta_multipliers = {0.5, 1.0};
    return spec;
}

/// One sweep of `spec` in a fresh cache against a fresh store handle on
/// `root` -- what a separate runner process sharing the directory does.
runtime::sweep_result run_on_store(runtime::thread_pool& pool, const fs::path& root,
                                   const runtime::sweep_spec& spec, bool resume)
{
    runtime::experiment_cache cache;
    storage::artifact_store store(root);
    return runtime::sweep_scheduler(pool, cache).run(spec, {&store, resume});
}

TEST(storage_store, warm_sweep_re_run_computes_nothing_and_matches_bit_for_bit)
{
    temp_dir dir;
    const runtime::sweep_spec spec = checkpoint_spec();
    runtime::thread_pool pool(2);

    // Cold run: everything computed and persisted.
    const runtime::sweep_result cold = run_on_store(pool, dir.path, spec, false);
    EXPECT_TRUE(cold.checkpointing);
    EXPECT_EQ(cold.program_computes, 1u);
    EXPECT_EQ(cold.cells_stored, 2u);
    EXPECT_EQ(cold.cells_loaded, 0u);

    // Re-run WITHOUT resume: every cell is recomputed (the store holds no
    // artifacts) and re-persisted, bit-identical to the cold run.
    const runtime::sweep_result again = run_on_store(pool, dir.path, spec, false);
    EXPECT_EQ(again.program_computes, 1u);
    EXPECT_EQ(again.cells_loaded, 0u);
    EXPECT_EQ(again.cells_stored, 2u);
    ASSERT_EQ(again.cells.size(), cold.cells.size());
    for (std::size_t i = 0; i < cold.cells.size(); ++i) {
        EXPECT_TRUE(same_cells(cold.cells[i], again.cells[i])) << "cell " << i;
    }

    // Warm run WITH resume: cells restored outright; no cache traffic at
    // all, so nothing is characterized or computed.
    const runtime::sweep_result resumed = run_on_store(pool, dir.path, spec, true);
    EXPECT_EQ(resumed.cells_loaded, 2u);
    EXPECT_EQ(resumed.cells_stored, 0u);
    EXPECT_EQ(resumed.cells_missed(), 0u);
    EXPECT_EQ(resumed.program_cache_misses, 0u);
    EXPECT_EQ(resumed.program_computes, 0u);
    EXPECT_EQ(resumed.cache_misses, 0u);
    for (std::size_t i = 0; i < cold.cells.size(); ++i) {
        EXPECT_TRUE(same_cells(cold.cells[i], resumed.cells[i])) << "cell " << i;
    }
}

TEST(storage_store, resume_recomputes_only_the_missing_cells)
{
    temp_dir dir;
    const runtime::sweep_spec spec = checkpoint_spec();
    runtime::thread_pool pool(2);
    const runtime::sweep_result cold = run_on_store(pool, dir.path, spec, false);

    // Simulate a sweep killed mid-run: cell 1's checkpoint never landed.
    const storage::artifact_store store(dir.path);
    erase_entry(store, runtime::sweep_cell_digest(spec.digest(), 1));

    const runtime::sweep_result resumed = run_on_store(pool, dir.path, spec, true);
    EXPECT_EQ(resumed.cells_loaded, 1u);      // cell 0 restored
    EXPECT_EQ(resumed.cells_stored, 1u);      // cell 1 recomputed and re-persisted
    EXPECT_EQ(resumed.cells_missed(), 1u);
    EXPECT_EQ(resumed.program_computes, 1u);  // its pair was characterized again
    for (std::size_t i = 0; i < cold.cells.size(); ++i) {
        EXPECT_TRUE(same_cells(cold.cells[i], resumed.cells[i])) << "cell " << i;
    }
}

TEST(storage_store, every_corruption_class_is_a_miss_and_gets_rebuilt)
{
    const runtime::sweep_spec spec = checkpoint_spec();
    runtime::thread_pool pool(2);

    struct corruption {
        const char* name;
        void (*apply)(const fs::path&);
    };
    const corruption corruptions[] = {
        {"truncated", [](const fs::path& p) { truncate_file(p, 40); }},
        {"truncated to zero", [](const fs::path& p) { truncate_file(p, 0); }},
        {"bit-flipped payload", [](const fs::path& p) { corrupt_file(p, 60, 0x10); }},
        {"bit-flipped checksum",
         [](const fs::path& p) {
             corrupt_file(p, fs::file_size(p) - 1, 0x01);
         }},
        {"wrong version", [](const fs::path& p) { corrupt_file(p, 8, 0x02); }},
        {"bad magic", [](const fs::path& p) { corrupt_file(p, 0, 0xFF); }},
    };

    temp_dir pristine;
    const runtime::sweep_result cold = run_on_store(pool, pristine.path, spec, false);
    for (const corruption& c : corruptions) {
        SCOPED_TRACE(c.name);
        temp_dir dir;
        fs::copy(pristine.path, dir.path, fs::copy_options::recursive);
        const storage::artifact_store probe(dir.path);
        const fs::path entry = probe.entry_path(
            storage::cell_bucket, runtime::sweep_cell_digest(spec.digest(), 0));
        ASSERT_TRUE(fs::is_regular_file(entry));
        c.apply(entry);

        // The corrupt checkpoint is a miss: recomputed, never crashed,
        // never served.
        const runtime::sweep_result victim = run_on_store(pool, dir.path, spec, true);
        EXPECT_EQ(victim.cells_loaded, 1u);
        EXPECT_EQ(victim.cells_stored, 1u);
        EXPECT_EQ(victim.program_computes, 1u);
        EXPECT_TRUE(same_cells(cold.cells[0], victim.cells[0]));

        // ... and the recompute repaired the store: the next resume
        // restores every cell.
        const runtime::sweep_result repaired = run_on_store(pool, dir.path, spec, true);
        EXPECT_EQ(repaired.cells_loaded, 2u);
        EXPECT_EQ(repaired.program_computes, 0u);
    }
}

TEST(storage_store, wrong_digest_entry_is_a_miss_never_stale_data)
{
    // A VALID frame filed under the wrong key (here: the synts_offline
    // cell parked where the nominal cell belongs) must be rejected by the
    // identity check against its slot -- never adopted as that cell.
    temp_dir dir;
    const runtime::sweep_spec spec = checkpoint_spec();
    runtime::thread_pool pool(2);
    const runtime::sweep_result cold = run_on_store(pool, dir.path, spec, false);

    const storage::artifact_store store(dir.path);
    const std::uint64_t nominal_key = runtime::sweep_cell_digest(spec.digest(), 0);
    const std::uint64_t offline_key = runtime::sweep_cell_digest(spec.digest(), 1);
    const auto offline_frame = store.load(storage::cell_bucket, offline_key);
    ASSERT_TRUE(offline_frame.has_value());
    ASSERT_TRUE(store.store(storage::cell_bucket, nominal_key, *offline_frame));

    const runtime::sweep_result resumed = run_on_store(pool, dir.path, spec, true);
    EXPECT_EQ(resumed.cells_loaded, 1u);
    EXPECT_EQ(resumed.cells_stored, 1u);
    EXPECT_EQ(resumed.cells[0].policy, core::policy_kind::nominal);
    EXPECT_TRUE(same_cells(cold.cells[0], resumed.cells[0]));
}

TEST(storage_store, resume_keys_on_the_spec_a_different_sweep_shares_nothing)
{
    temp_dir dir;
    runtime::thread_pool pool(2);
    const runtime::sweep_spec spec = checkpoint_spec();
    (void)run_on_store(pool, dir.path, spec, false);

    // Same pair, different theta ladder: every cell key changes, so resume
    // must restore nothing (stale checkpoints cannot leak across specs).
    runtime::sweep_spec changed = spec;
    changed.theta_multipliers = {0.25, 4.0};
    ASSERT_NE(changed.digest(), spec.digest());

    const runtime::sweep_result result = run_on_store(pool, dir.path, changed, true);
    EXPECT_EQ(result.cells_loaded, 0u);
    EXPECT_EQ(result.cells_stored, 2u);
}

TEST(storage_store, detached_cache_never_touches_disk)
{
    // Without a checkpoint store a sweep performs no store I/O at all: the
    // cache tiers live in memory only.
    obs::metrics_registry& registry = obs::metrics_registry::global();
    const auto io_count = [&registry] {
        return registry.counter_at("store.load_hits").value() +
               registry.counter_at("store.load_misses").value() +
               registry.counter_at("store.stores").value() +
               registry.counter_at("store.store_failures").value();
    };
    const std::uint64_t before = io_count();

    runtime::thread_pool pool(2);
    runtime::experiment_cache cache;
    const runtime::sweep_result result =
        runtime::sweep_scheduler(pool, cache).run(checkpoint_spec());
    EXPECT_FALSE(result.checkpointing);
    EXPECT_EQ(result.cells_loaded, 0u);
    EXPECT_EQ(result.cells_stored, 0u);
    EXPECT_EQ(result.cells_missed(), 0u);
    EXPECT_EQ(result.program_computes, 1u);
    EXPECT_EQ(io_count(), before);
}

// -- concurrent runners sharing one store directory -------------------------

TEST(storage_store, two_runners_race_on_one_store_directory)
{
    // Two independent sweeps (separate caches, separate store handles, one
    // directory) run the same spec concurrently -- the worst case for
    // write-back racing: both compute every cell and both publish the same
    // keys. Atomic rename makes the race benign; both must end with
    // identical cells. Run under TSan by the CI storage job.
    temp_dir dir;
    const runtime::sweep_spec spec = checkpoint_spec();
    runtime::sweep_result results[2];
    std::thread runners[2];
    for (int i = 0; i < 2; ++i) {
        runners[i] = std::thread([&, i] {
            runtime::thread_pool pool(2);
            results[i] = run_on_store(pool, dir.path, spec, false);
        });
    }
    for (std::thread& runner : runners) {
        runner.join();
    }

    ASSERT_EQ(results[0].cells.size(), 2u);
    ASSERT_EQ(results[1].cells.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_TRUE(same_cells(results[0].cells[i], results[1].cells[i])) << "cell " << i;
    }
    EXPECT_EQ(results[0].cells_stored + results[1].cells_stored, 4u);

    // Whoever lost the publish race left fully valid entries behind.
    runtime::thread_pool pool(2);
    const runtime::sweep_result after = run_on_store(pool, dir.path, spec, true);
    EXPECT_EQ(after.cells_loaded, 2u);
    EXPECT_EQ(after.program_computes, 0u);
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_TRUE(same_cells(results[0].cells[i], after.cells[i])) << "cell " << i;
    }
}

/// Bucket directories present under the store's versioned root (the tmp/
/// staging directory is not a bucket).
std::set<std::string> bucket_names(const fs::path& root)
{
    std::set<std::string> names;
    const fs::path versioned = root / ("v" + std::to_string(storage::format_version));
    for (const auto& entry : fs::directory_iterator(versioned)) {
        if (entry.is_directory() && entry.path().filename() != "tmp") {
            names.insert(entry.path().filename().string());
        }
    }
    return names;
}

TEST(storage_store, store_backed_sweeps_write_only_the_cell_bucket)
{
    // A checkpointing sweep's only durable products are finished cells --
    // with and without resume, nothing else (in particular no `program`
    // artifact bucket) lands in the store.
    temp_dir dir;
    const runtime::sweep_spec spec = checkpoint_spec();
    runtime::thread_pool pool(2);
    const std::set<std::string> expected{std::string(storage::cell_bucket)};

    const runtime::sweep_result cold = run_on_store(pool, dir.path, spec, false);
    EXPECT_EQ(cold.cells_stored, 2u);
    EXPECT_EQ(bucket_names(dir.path), expected);

    // Resume with one checkpoint missing: one cell restored, one recomputed
    // and persisted.
    erase_entry(storage::artifact_store(dir.path),
                runtime::sweep_cell_digest(spec.digest(), 1));
    const runtime::sweep_result resumed = run_on_store(pool, dir.path, spec, true);
    EXPECT_EQ(resumed.cells_loaded, 1u);
    EXPECT_EQ(resumed.cells_stored, 1u);
    EXPECT_EQ(bucket_names(dir.path), expected);
}

} // namespace
