// Tests for storage/artifact_store and the disk tier it provides: sharded
// layout and atomic publish, the experiment cache's memory -> disk ->
// compute fall-through, every corruption class (truncated, bit-flipped,
// wrong-version, wrong-digest files) degrading to a rebuild -- never a
// crash, never stale data -- sweep checkpointing with --resume semantics,
// the closed set of buckets a store-backed sweep writes, and two caches
// racing on one shared store directory (the TSan job runs
// this suite with two concurrent runners).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "core/experiment.h"
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

/// The program-tier store key the cache uses for (benchmark, config).
std::uint64_t program_key_digest(workload::benchmark_id benchmark,
                                 const core::experiment_config& config)
{
    return runtime::program_key{benchmark, config.workload_digest()}.digest();
}

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

bool same_artifacts(const core::program_artifacts& a, const core::program_artifacts& b)
{
    if (a.workload != b.workload || a.thread_count != b.thread_count ||
        a.seed != b.seed || a.workload_digest != b.workload_digest) {
        return false;
    }
    // Frames are canonical (field-by-field little-endian), so byte equality
    // of the encodings IS bit equality of every field.
    return storage::encode(a) == storage::encode(b);
}

bool same_cells(const runtime::sweep_cell& a, const runtime::sweep_cell& b)
{
    return storage::encode(a) == storage::encode(b);
}

// -- raw store behavior -----------------------------------------------------

TEST(storage_store, blob_round_trip_layout_and_counters)
{
    temp_dir dir;
    storage::artifact_store store(dir.path);
    EXPECT_EQ(store.root(), dir.path);

    const std::uint64_t key = 0xABCDEF0011223344ull;
    EXPECT_FALSE(store.contains(storage::program_bucket, key));
    EXPECT_EQ(store.load(storage::program_bucket, key), std::nullopt);
    EXPECT_EQ(store.load_miss_count(), 1u);

    ASSERT_TRUE(store.store(storage::program_bucket, key, "some frame bytes"));
    EXPECT_TRUE(store.contains(storage::program_bucket, key));
    EXPECT_EQ(store.load(storage::program_bucket, key), "some frame bytes");
    EXPECT_EQ(store.load_hit_count(), 1u);
    EXPECT_EQ(store.store_count(), 1u);

    // Sharded, versioned layout: v<format_version>/<bucket>/<top byte>/<hex16>.bin.
    const fs::path version_dir = "v" + std::to_string(storage::format_version);
    const fs::path expected = dir.path / version_dir / "program" / "ab" /
                              "abcdef0011223344.bin";
    EXPECT_EQ(store.entry_path(storage::program_bucket, key), expected);
    EXPECT_TRUE(fs::is_regular_file(expected));

    // Overwrite is a whole-file replace; no tmp files linger.
    ASSERT_TRUE(store.store(storage::program_bucket, key, "updated"));
    EXPECT_EQ(store.load(storage::program_bucket, key), "updated");
    EXPECT_TRUE(fs::is_empty(dir.path / version_dir / "tmp"));

    store.erase(storage::program_bucket, key);
    EXPECT_FALSE(store.contains(storage::program_bucket, key));

    // Distinct buckets do not collide on one key.
    ASSERT_TRUE(store.store(storage::cell_bucket, key, "cell bytes"));
    EXPECT_FALSE(store.contains(storage::program_bucket, key));
    EXPECT_TRUE(store.contains(storage::cell_bucket, key));
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

// -- disk tier of the experiment cache --------------------------------------

TEST(storage_store, warm_cache_restores_artifacts_without_computing)
{
    temp_dir dir;
    const core::experiment_config config;

    // Cold process: computes, writes back.
    runtime::experiment_cache cold;
    cold.attach_store(std::make_shared<storage::artifact_store>(dir.path));
    const auto computed = cold.get_or_create_program(kBenchmark, config);
    EXPECT_EQ(cold.disk_hit_count(), 0u);
    EXPECT_EQ(cold.disk_miss_count(), 1u);
    EXPECT_EQ(cold.program_compute_count(), 1u);
    EXPECT_TRUE(cold.store()->contains(storage::program_bucket,
                                       program_key_digest(kBenchmark, config)));

    // Warm "process" (fresh cache, fresh store handle, same directory):
    // the artifacts come off disk -- zero trace generations -- and are bit
    // identical to the computed ones.
    runtime::experiment_cache warm;
    warm.attach_store(std::make_shared<storage::artifact_store>(dir.path));
    const auto restored = warm.get_or_create_program(kBenchmark, config);
    EXPECT_EQ(warm.disk_hit_count(), 1u);
    EXPECT_EQ(warm.disk_miss_count(), 0u);
    EXPECT_EQ(warm.program_compute_count(), 0u);
    EXPECT_TRUE(same_artifacts(*computed, *restored));
    EXPECT_NO_THROW(restored->validate());

    // The acceptance pin: disk-tier hits cover every program-tier lookup
    // that memory could not serve.
    EXPECT_EQ(warm.disk_hit_count(), warm.program_miss_count());
}

TEST(storage_store, full_experiment_from_disk_artifacts_is_bit_identical)
{
    temp_dir dir;
    runtime::experiment_cache cold;
    cold.attach_store(std::make_shared<storage::artifact_store>(dir.path));
    const auto from_compute =
        cold.get_or_create(kBenchmark, circuit::pipe_stage::simple_alu);

    runtime::experiment_cache warm;
    warm.attach_store(std::make_shared<storage::artifact_store>(dir.path));
    const auto from_disk =
        warm.get_or_create(kBenchmark, circuit::pipe_stage::simple_alu);
    EXPECT_EQ(warm.program_compute_count(), 0u);

    const double theta = from_compute->equal_weight_theta();
    EXPECT_EQ(from_disk->equal_weight_theta(), theta);
    for (const core::policy_kind kind : core::all_policies()) {
        const auto a = from_compute->run_policy(kind, theta);
        const auto b = from_disk->run_policy(kind, theta);
        EXPECT_EQ(a.sum.energy, b.sum.energy);
        EXPECT_EQ(a.sum.time_ps, b.sum.time_ps);
    }
}

TEST(storage_store, every_corruption_class_is_a_miss_and_gets_rebuilt)
{
    const core::experiment_config config;

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

    for (const corruption& c : corruptions) {
        SCOPED_TRACE(c.name);
        temp_dir dir;
        {
            runtime::experiment_cache seeder;
            seeder.attach_store(std::make_shared<storage::artifact_store>(dir.path));
            (void)seeder.get_or_create_program(kBenchmark, config);
        }
        storage::artifact_store probe(dir.path);
        const fs::path entry = probe.entry_path(
            storage::program_bucket, program_key_digest(kBenchmark, config));
        ASSERT_TRUE(fs::is_regular_file(entry));
        c.apply(entry);

        // The corrupt file is a miss: rebuilt, never crashed, never served.
        runtime::experiment_cache victim;
        victim.attach_store(std::make_shared<storage::artifact_store>(dir.path));
        const auto rebuilt = victim.get_or_create_program(kBenchmark, config);
        EXPECT_EQ(victim.disk_hit_count(), 0u);
        EXPECT_EQ(victim.disk_miss_count(), 1u);
        EXPECT_EQ(victim.program_compute_count(), 1u);
        EXPECT_NO_THROW(rebuilt->validate());
        EXPECT_EQ(rebuilt->seed, config.seed);
        EXPECT_EQ(rebuilt->workload_digest, config.workload_digest());

        // ... and the rebuild repaired the store: the next fresh cache hits.
        runtime::experiment_cache repaired;
        repaired.attach_store(std::make_shared<storage::artifact_store>(dir.path));
        (void)repaired.get_or_create_program(kBenchmark, config);
        EXPECT_EQ(repaired.disk_hit_count(), 1u);
        EXPECT_EQ(repaired.program_compute_count(), 0u);
    }
}

TEST(storage_store, wrong_digest_entry_is_a_miss_never_stale_data)
{
    // A VALID frame parked under the wrong key (here: seed-43 artifacts
    // where seed-42 artifacts belong) must be rejected by the provenance
    // stamp -- the invalidation contract is digest mismatch => miss.
    temp_dir dir;
    core::experiment_config seed42;
    seed42.seed = 42;
    core::experiment_config seed43;
    seed43.seed = 43;

    {
        runtime::experiment_cache seeder;
        seeder.attach_store(std::make_shared<storage::artifact_store>(dir.path));
        (void)seeder.get_or_create_program(kBenchmark, seed43);
    }
    storage::artifact_store probe(dir.path);
    const auto frame43 =
        probe.load(storage::program_bucket, program_key_digest(kBenchmark, seed43));
    ASSERT_TRUE(frame43.has_value());
    ASSERT_TRUE(probe.store(storage::program_bucket,
                            program_key_digest(kBenchmark, seed42), *frame43));

    runtime::experiment_cache victim;
    victim.attach_store(std::make_shared<storage::artifact_store>(dir.path));
    const auto rebuilt = victim.get_or_create_program(kBenchmark, seed42);
    EXPECT_EQ(victim.disk_hit_count(), 0u);
    EXPECT_EQ(victim.program_compute_count(), 1u);
    EXPECT_EQ(rebuilt->seed, 42u); // the request's workload, not the file's
    EXPECT_EQ(rebuilt->workload_digest, seed42.workload_digest());
}

TEST(storage_store, detached_cache_never_touches_disk)
{
    runtime::experiment_cache cache;
    (void)cache.get_or_create_program(kBenchmark);
    EXPECT_EQ(cache.store(), nullptr);
    EXPECT_EQ(cache.disk_hit_count(), 0u);
    EXPECT_EQ(cache.disk_miss_count(), 0u);
    EXPECT_EQ(cache.program_compute_count(), 1u);
}

// -- concurrent runners sharing one store directory -------------------------

TEST(storage_store, two_runners_race_on_one_store_directory)
{
    // Two independent caches (separate store handles, one directory) pull
    // the same workloads concurrently -- the worst case for write-back
    // racing: both miss, both compute, both publish the same key. Atomic
    // rename makes the race benign; both must end with valid, identical
    // artifacts. Run under TSan by the CI storage job.
    temp_dir dir;
    const core::experiment_config config;

    runtime::experiment_cache caches[2];
    std::shared_ptr<const core::program_artifacts> results[2];
    std::thread runners[2];
    for (int i = 0; i < 2; ++i) {
        caches[i].attach_store(std::make_shared<storage::artifact_store>(dir.path));
        runners[i] = std::thread([&, i] {
            results[i] = caches[i].get_or_create_program(kBenchmark, config);
        });
    }
    for (std::thread& runner : runners) {
        runner.join();
    }

    ASSERT_NE(results[0], nullptr);
    ASSERT_NE(results[1], nullptr);
    EXPECT_TRUE(same_artifacts(*results[0], *results[1]));
    EXPECT_NO_THROW(results[0]->validate());

    // Whoever lost the publish race left a fully valid entry behind.
    runtime::experiment_cache after;
    after.attach_store(std::make_shared<storage::artifact_store>(dir.path));
    (void)after.get_or_create_program(kBenchmark, config);
    EXPECT_EQ(after.disk_hit_count(), 1u);
    EXPECT_EQ(after.program_compute_count(), 0u);
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

TEST(storage_store, warm_sweep_re_run_computes_nothing_and_matches_bit_for_bit)
{
    temp_dir dir;
    const runtime::sweep_spec spec = checkpoint_spec();
    runtime::thread_pool pool(2);

    // Cold run: store attached, everything computed and persisted.
    runtime::experiment_cache cold_cache;
    auto cold_store = std::make_shared<storage::artifact_store>(dir.path);
    cold_cache.attach_store(cold_store);
    const runtime::sweep_result cold = runtime::sweep_scheduler(pool, cold_cache)
                                           .run(spec, {cold_store.get(), false});
    EXPECT_EQ(cold.program_computes, 1u);
    EXPECT_EQ(cold.cells_stored, 2u);
    EXPECT_EQ(cold.cells_loaded, 0u);

    // Warm run, NO resume: cells recomputed from disk-tier artifacts --
    // zero trace generations, disk hits covering every program miss, and
    // cell-for-cell bit-identical results.
    runtime::experiment_cache warm_cache;
    auto warm_store = std::make_shared<storage::artifact_store>(dir.path);
    warm_cache.attach_store(warm_store);
    const runtime::sweep_result warm = runtime::sweep_scheduler(pool, warm_cache)
                                           .run(spec, {warm_store.get(), false});
    EXPECT_EQ(warm.program_computes, 0u);
    EXPECT_EQ(warm.disk_hits, warm.program_cache_misses);
    EXPECT_EQ(warm.disk_misses, 0u);
    EXPECT_EQ(warm.cells_loaded, 0u);
    ASSERT_EQ(warm.cells.size(), cold.cells.size());
    for (std::size_t i = 0; i < cold.cells.size(); ++i) {
        EXPECT_TRUE(same_cells(cold.cells[i], warm.cells[i])) << "cell " << i;
    }

    // Resumed run: cells restored outright; no cache traffic at all.
    runtime::experiment_cache resumed_cache;
    auto resumed_store = std::make_shared<storage::artifact_store>(dir.path);
    resumed_cache.attach_store(resumed_store);
    const runtime::sweep_result resumed =
        runtime::sweep_scheduler(pool, resumed_cache)
            .run(spec, {resumed_store.get(), true});
    EXPECT_EQ(resumed.cells_loaded, 2u);
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

    runtime::experiment_cache cold_cache;
    auto store = std::make_shared<storage::artifact_store>(dir.path);
    cold_cache.attach_store(store);
    const runtime::sweep_result cold =
        runtime::sweep_scheduler(pool, cold_cache).run(spec, {store.get(), false});

    // Simulate a sweep killed mid-run: cell 1's checkpoint never landed.
    store->erase(storage::cell_bucket, runtime::sweep_cell_digest(spec.digest(), 1));

    runtime::experiment_cache resumed_cache;
    auto resumed_store = std::make_shared<storage::artifact_store>(dir.path);
    resumed_cache.attach_store(resumed_store);
    const runtime::sweep_result resumed =
        runtime::sweep_scheduler(pool, resumed_cache)
            .run(spec, {resumed_store.get(), true});

    EXPECT_EQ(resumed.cells_loaded, 1u);  // cell 0 restored
    EXPECT_EQ(resumed.cells_stored, 1u);  // cell 1 recomputed and re-persisted
    EXPECT_EQ(resumed.program_computes, 0u); // artifacts still come off disk
    for (std::size_t i = 0; i < cold.cells.size(); ++i) {
        EXPECT_TRUE(same_cells(cold.cells[i], resumed.cells[i])) << "cell " << i;
    }

    // A corrupt checkpoint is equivalent to a missing one.
    corrupt_file(resumed_store->entry_path(storage::cell_bucket,
                                           runtime::sweep_cell_digest(spec.digest(), 0)),
                 20, 0x40);
    runtime::experiment_cache again_cache;
    auto again_store = std::make_shared<storage::artifact_store>(dir.path);
    again_cache.attach_store(again_store);
    const runtime::sweep_result again =
        runtime::sweep_scheduler(pool, again_cache)
            .run(spec, {again_store.get(), true});
    EXPECT_EQ(again.cells_loaded, 1u);
    EXPECT_EQ(again.cells_stored, 1u);
    EXPECT_TRUE(same_cells(cold.cells[0], again.cells[0]));
}

TEST(storage_store, resume_keys_on_the_spec_a_different_sweep_shares_nothing)
{
    temp_dir dir;
    runtime::thread_pool pool(2);

    runtime::experiment_cache first_cache;
    auto store = std::make_shared<storage::artifact_store>(dir.path);
    first_cache.attach_store(store);
    const runtime::sweep_spec spec = checkpoint_spec();
    (void)runtime::sweep_scheduler(pool, first_cache).run(spec, {store.get(), false});

    // Same pair, different theta ladder: every cell key changes, so resume
    // must restore nothing (stale checkpoints cannot leak across specs) --
    // while the program artifacts, keyed on workload alone, still hit.
    runtime::sweep_spec changed = spec;
    changed.theta_multipliers = {0.25, 4.0};
    ASSERT_NE(changed.digest(), spec.digest());

    runtime::experiment_cache second_cache;
    auto second_store = std::make_shared<storage::artifact_store>(dir.path);
    second_cache.attach_store(second_store);
    const runtime::sweep_result result =
        runtime::sweep_scheduler(pool, second_cache)
            .run(changed, {second_store.get(), true});
    EXPECT_EQ(result.cells_loaded, 0u);
    EXPECT_EQ(result.cells_stored, 2u);
    EXPECT_EQ(result.program_computes, 0u);
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

TEST(storage_store, store_backed_sweeps_write_only_program_and_cell_buckets)
{
    // A checkpointing sweep's only durable products are program artifacts
    // and finished cells -- with and without resume, nothing else lands in
    // the store.
    temp_dir dir;
    const runtime::sweep_spec spec = checkpoint_spec();
    runtime::thread_pool pool(2);
    const std::set<std::string> expected{std::string(storage::program_bucket),
                                         std::string(storage::cell_bucket)};

    runtime::experiment_cache cold_cache;
    auto cold_store = std::make_shared<storage::artifact_store>(dir.path);
    cold_cache.attach_store(cold_store);
    const runtime::sweep_result cold = runtime::sweep_scheduler(pool, cold_cache)
                                           .run(spec, {cold_store.get(), false});
    EXPECT_EQ(cold.cells_stored, 2u);
    EXPECT_EQ(bucket_names(dir.path), expected);

    // Resume with one checkpoint missing: one cell restored, one recomputed
    // and persisted.
    cold_store->erase(storage::cell_bucket, runtime::sweep_cell_digest(spec.digest(), 1));
    runtime::experiment_cache resumed_cache;
    auto resumed_store = std::make_shared<storage::artifact_store>(dir.path);
    resumed_cache.attach_store(resumed_store);
    const runtime::sweep_result resumed =
        runtime::sweep_scheduler(pool, resumed_cache)
            .run(spec, {resumed_store.get(), true});
    EXPECT_EQ(resumed.cells_loaded, 1u);
    EXPECT_EQ(resumed.cells_stored, 1u);
    EXPECT_EQ(bucket_names(dir.path), expected);
}

} // namespace
