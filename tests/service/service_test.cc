// SkycubeService behaviour: request validation, cache hit/miss/eviction
// accounting, batch fan-out correctness, and — the property the snapshot
// design exists for — that a Reload racing a query storm never produces an
// answer that is inconsistent with the snapshot version it reports.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/subspace.h"
#include "core/cube.h"
#include "core/maintenance.h"
#include "core/stellar.h"
#include "datagen/synthetic.h"
#include "dataset/dataset.h"
#include "service/service.h"

namespace skycube {
namespace {

Dataset MakeData(size_t objects, int dims, uint64_t seed) {
  SyntheticSpec spec;
  spec.distribution = Distribution::kIndependent;
  spec.num_dims = dims;
  spec.num_objects = objects;
  spec.seed = seed;
  spec.truncate_decimals = 2;
  return GenerateSynthetic(spec);
}

std::shared_ptr<const CompressedSkylineCube> MakeCube(const Dataset& data) {
  return std::make_shared<const CompressedSkylineCube>(
      data.num_dims(), data.num_objects(), ComputeStellar(data));
}

TEST(SkycubeServiceTest, AnswersMatchCube) {
  const Dataset data = MakeData(200, 4, 3);
  auto cube = MakeCube(data);
  SkycubeService service(cube);
  ForEachNonEmptySubset(data.full_mask(), [&](DimMask subspace) {
    const QueryResponse skyline =
        service.Execute(QueryRequest::SubspaceSkyline(subspace));
    ASSERT_TRUE(skyline.ok);
    ASSERT_NE(skyline.ids, nullptr);
    EXPECT_EQ(*skyline.ids, cube->SubspaceSkyline(subspace));
    EXPECT_EQ(skyline.snapshot_version, 1u);

    const QueryResponse card =
        service.Execute(QueryRequest::SkylineCardinality(subspace));
    EXPECT_EQ(card.count, cube->SkylineCardinality(subspace));
  });
  for (ObjectId id = 0; id < data.num_objects(); id += 17) {
    const QueryResponse member =
        service.Execute(QueryRequest::Membership(id, data.full_mask()));
    EXPECT_EQ(member.member,
              cube->IsInSubspaceSkyline(id, data.full_mask()));
    const QueryResponse count =
        service.Execute(QueryRequest::MembershipCount(id));
    EXPECT_EQ(count.count, cube->CountSubspacesWhereSkyline(id));
  }
  EXPECT_EQ(service.Execute(QueryRequest::SkycubeSize()).count,
            cube->TotalSubspaceSkylineObjects());
}

TEST(SkycubeServiceTest, RejectsMalformedRequests) {
  const Dataset data = MakeData(50, 4, 5);
  SkycubeService service(MakeCube(data));

  // Empty subspace.
  QueryResponse response = service.Execute(QueryRequest::SubspaceSkyline(0));
  EXPECT_FALSE(response.ok);
  EXPECT_FALSE(response.error.empty());

  // Dimensions beyond the cube.
  response = service.Execute(
      QueryRequest::SubspaceSkyline(DimMask{1} << data.num_dims()));
  EXPECT_FALSE(response.ok);

  // Object id out of range.
  response = service.Execute(QueryRequest::Membership(
      static_cast<ObjectId>(data.num_objects()), data.full_mask()));
  EXPECT_FALSE(response.ok);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.invalid_requests, 3u);
  // Invalid requests are neither cached nor counted as misses.
  EXPECT_EQ(stats.cache_misses + stats.cache_hits, 0u);
}

TEST(SkycubeServiceTest, CacheHitMissAndEvictionCounters) {
  const Dataset data = MakeData(200, 5, 9);
  SkycubeServiceOptions options;
  options.cache.capacity = 8;
  options.cache.num_shards = 1;  // deterministic eviction order
  SkycubeService service(MakeCube(data), options);

  const QueryRequest request = QueryRequest::SubspaceSkyline(0b11);
  const QueryResponse miss = service.Execute(request);
  EXPECT_FALSE(miss.cache_hit);
  const QueryResponse hit = service.Execute(request);
  EXPECT_TRUE(hit.cache_hit);
  ASSERT_NE(hit.ids, nullptr);
  EXPECT_EQ(*hit.ids, *miss.ids);

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_evictions, 0u);

  // Flood with distinct keys: the single 8-entry shard must evict.
  for (DimMask subspace = 1; subspace <= 20; ++subspace) {
    service.Execute(QueryRequest::SkylineCardinality(subspace));
  }
  stats = service.stats();
  EXPECT_GT(stats.cache_evictions, 0u);
  EXPECT_LE(stats.cache_entries, 8u);

  // The original entry was evicted long ago: a re-issue misses again.
  EXPECT_FALSE(service.Execute(request).cache_hit);
}

TEST(SkycubeServiceTest, DisabledCacheNeverHits) {
  const Dataset data = MakeData(100, 4, 2);
  SkycubeServiceOptions options;
  options.cache.capacity = 0;
  SkycubeService service(MakeCube(data), options);
  const QueryRequest request = QueryRequest::SkylineCardinality(0b101);
  service.Execute(request);
  EXPECT_FALSE(service.Execute(request).cache_hit);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_entries, 0u);
}

TEST(SkycubeServiceTest, BatchMatchesSequentialExecution) {
  const Dataset data = MakeData(300, 5, 13);
  auto cube = MakeCube(data);
  SkycubeServiceOptions options;
  options.batch_threads = 4;
  SkycubeService service(cube, options);

  std::vector<QueryRequest> batch;
  Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    const DimMask subspace =
        static_cast<DimMask>(1 + rng.NextBounded(data.full_mask()));
    switch (rng.NextBounded(4)) {
      case 0:
        batch.push_back(QueryRequest::SubspaceSkyline(subspace));
        break;
      case 1:
        batch.push_back(QueryRequest::SkylineCardinality(subspace));
        break;
      case 2:
        batch.push_back(QueryRequest::Membership(
            static_cast<ObjectId>(rng.NextBounded(data.num_objects())),
            subspace));
        break;
      default:
        batch.push_back(QueryRequest::MembershipCount(
            static_cast<ObjectId>(rng.NextBounded(data.num_objects()))));
        break;
    }
  }
  batch.push_back(QueryRequest::SubspaceSkyline(0));  // invalid mid-batch

  const std::vector<QueryResponse> responses = service.ExecuteBatch(batch);
  ASSERT_EQ(responses.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    const QueryRequest& request = batch[i];
    const QueryResponse& response = responses[i];
    ASSERT_EQ(response.kind, request.kind);
    if (request.subspace == 0 &&
        (request.kind == QueryKind::kSubspaceSkyline ||
         request.kind == QueryKind::kSkylineCardinality ||
         request.kind == QueryKind::kMembership)) {
      EXPECT_FALSE(response.ok);
      continue;
    }
    ASSERT_TRUE(response.ok);
    switch (request.kind) {
      case QueryKind::kSubspaceSkyline:
        ASSERT_NE(response.ids, nullptr);
        EXPECT_EQ(*response.ids, cube->SubspaceSkyline(request.subspace));
        break;
      case QueryKind::kSkylineCardinality:
        EXPECT_EQ(response.count,
                  cube->SkylineCardinality(request.subspace));
        break;
      case QueryKind::kMembership:
        EXPECT_EQ(response.member, cube->IsInSubspaceSkyline(
                                       request.object, request.subspace));
        break;
      case QueryKind::kMembershipCount:
        EXPECT_EQ(response.count,
                  cube->CountSubspacesWhereSkyline(request.object));
        break;
      case QueryKind::kSkycubeSize:
        EXPECT_EQ(response.count, cube->TotalSubspaceSkylineObjects());
        break;
      case QueryKind::kInsert:
      case QueryKind::kDelete:
      case QueryKind::kEpochDiff:
        FAIL() << "batch generator never emits mutations or epoch diffs";
        break;
    }
  }
  EXPECT_EQ(service.stats().batches, 1u);
}

TEST(SkycubeServiceTest, ReloadBumpsVersionAndInvalidatesCache) {
  IncrementalCubeMaintainer maintainer(MakeData(150, 4, 21));
  SkycubeService service(std::make_shared<const CompressedSkylineCube>(
      maintainer.MakeCube()));
  const QueryRequest request = QueryRequest::SkycubeSize();
  const QueryResponse before = service.Execute(request);
  EXPECT_TRUE(service.Execute(request).cache_hit);

  // Insert a dominating-everything row: the skycube must change.
  maintainer.Insert(std::vector<double>(4, 0.0));
  service.Reload(std::make_shared<const CompressedSkylineCube>(
      maintainer.MakeCube()));

  const QueryResponse after = service.Execute(request);
  EXPECT_FALSE(after.cache_hit);  // version key ⇒ old entry unreachable
  EXPECT_EQ(after.snapshot_version, 2u);
  EXPECT_NE(after.count, before.count);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.snapshot_version, 2u);
  EXPECT_EQ(stats.snapshot_swaps, 1u);
}

TEST(SkycubeServiceTest, SnapshotSwapMidStormIsConsistent) {
  // Readers hammer the service while a writer repeatedly swaps snapshots
  // between two known cubes. Every response must (a) carry a version that
  // never exceeds the published one, and (b) be byte-identical to the
  // answer of the cube that owned the version it reports — i.e. no torn or
  // mixed-snapshot answers. TSan-clean by construction.
  const Dataset base = MakeData(150, 4, 31);
  IncrementalCubeMaintainer maintainer(base);
  auto cube_v1 = std::make_shared<const CompressedSkylineCube>(
      maintainer.MakeCube());
  maintainer.Insert(std::vector<double>(4, 0.0));
  auto cube_v2 = std::make_shared<const CompressedSkylineCube>(
      maintainer.MakeCube());
  const std::vector<const CompressedSkylineCube*> cube_of_version{
      nullptr, cube_v1.get(), cube_v2.get()};

  SkycubeService service(cube_v1);

  constexpr int kSwaps = 40;
  constexpr int kReaders = 6;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> inconsistencies{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(500 + static_cast<uint64_t>(t));
      while (!stop.load(std::memory_order_acquire)) {
        const DimMask subspace =
            static_cast<DimMask>(1 + rng.NextBounded(base.full_mask()));
        const QueryResponse response =
            service.Execute(QueryRequest::SubspaceSkyline(subspace));
        if (!response.ok || response.ids == nullptr) {
          ++inconsistencies;
          continue;
        }
        // The version alternates 1,2,1,2,... but cube content only has two
        // states; map version parity back to the cube that produced it.
        const CompressedSkylineCube* expected_cube =
            cube_of_version[1 + (response.snapshot_version + 1) % 2];
        if (*response.ids != expected_cube->SubspaceSkyline(subspace)) {
          ++inconsistencies;
        }
      }
    });
  }
  uint64_t last_version = 1;
  for (int swap = 0; swap < kSwaps; ++swap) {
    service.Reload(swap % 2 == 0 ? cube_v2 : cube_v1);
    const uint64_t version = service.snapshot_version();
    if (version != last_version + 1) ++inconsistencies;
    last_version = version;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(inconsistencies.load(), 0u);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.snapshot_swaps, static_cast<uint64_t>(kSwaps));
  EXPECT_EQ(stats.snapshot_version, 1u + kSwaps);
}

// --- Live ingest through the service -------------------------------------

TEST(SkycubeServiceTest, InsertWithoutHandlerIsRejected) {
  const Dataset data = MakeData(40, 3, 9);
  SkycubeService service(MakeCube(data));
  const QueryResponse response =
      service.Execute(QueryRequest::Insert({0.5, 0.5, 0.5}));
  EXPECT_FALSE(response.ok);
  EXPECT_NE(response.error.find("read-only"), std::string::npos);
  EXPECT_EQ(service.stats().inserts_applied, 0u);
}

TEST(SkycubeServiceTest, InsertAppliesBumpsVersionAndReportsPath) {
  const Dataset data = MakeData(40, 3, 9);
  IncrementalCubeMaintainer maintainer(data);
  MaintainerInsertHandler handler(&maintainer);
  SkycubeService service(
      std::make_shared<const CompressedSkylineCube>(maintainer.MakeCube()));
  service.AttachInsertHandler(&handler);

  // Width mismatch is a validation error, not an apply failure.
  const QueryResponse bad = service.Execute(QueryRequest::Insert({0.5}));
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(service.stats().invalid_requests, 1u);

  const QueryResponse applied =
      service.Execute(QueryRequest::Insert({0.001, 0.001, 0.001}));
  ASSERT_TRUE(applied.ok) << applied.error;
  EXPECT_EQ(applied.kind, QueryKind::kInsert);
  EXPECT_EQ(applied.insert_path, "recompute");
  EXPECT_EQ(applied.count, data.num_objects() + 1);
  EXPECT_EQ(applied.snapshot_version, 2u);  // post-insert snapshot
  EXPECT_EQ(service.snapshot_version(), 2u);
  EXPECT_EQ(service.stats().inserts_applied, 1u);

  // The new snapshot answers queries over the grown dataset.
  const ObjectId inserted = static_cast<ObjectId>(data.num_objects());
  const QueryResponse member = service.Execute(
      QueryRequest::Membership(inserted, data.full_mask()));
  ASSERT_TRUE(member.ok) << member.error;
  EXPECT_TRUE(member.member);
}

TEST(SkycubeServiceTest, InsertInvalidatesCachedAnswers) {
  // The staleness regression this PR fixes: a cached pre-insert answer
  // must never be served once an insert has changed the cube.
  const Dataset data = MakeData(60, 3, 11);
  IncrementalCubeMaintainer maintainer(data);
  MaintainerInsertHandler handler(&maintainer);
  SkycubeService service(
      std::make_shared<const CompressedSkylineCube>(maintainer.MakeCube()));
  service.AttachInsertHandler(&handler);

  const DimMask full = data.full_mask();
  const QueryResponse before =
      service.Execute(QueryRequest::SkylineCardinality(full));
  ASSERT_TRUE(before.ok);
  // Same query again: served from cache.
  service.Execute(QueryRequest::SkylineCardinality(full));
  EXPECT_EQ(service.stats().cache_hits, 1u);

  // A strictly dominating insert changes every subspace skyline.
  const QueryResponse applied =
      service.Execute(QueryRequest::Insert({-1.0, -1.0, -1.0}));
  ASSERT_TRUE(applied.ok) << applied.error;

  const QueryResponse after =
      service.Execute(QueryRequest::SkylineCardinality(full));
  ASSERT_TRUE(after.ok);
  EXPECT_EQ(after.snapshot_version, 2u);
  EXPECT_EQ(after.count, 1u);  // the dominator owns the skyline
  EXPECT_NE(after.count, before.count);
  // The post-insert probe missed: version-keyed cache cannot serve v1.
  EXPECT_EQ(service.stats().cache_hits, 1u);
}

TEST(SkycubeServiceTest, InsertResponsesAreNeverCached) {
  const Dataset data = MakeData(30, 3, 13);
  IncrementalCubeMaintainer maintainer(data);
  MaintainerInsertHandler handler(&maintainer);
  SkycubeService service(
      std::make_shared<const CompressedSkylineCube>(maintainer.MakeCube()));
  service.AttachInsertHandler(&handler);
  const std::vector<double> row = {0.4, 0.4, 0.4};
  const QueryResponse first = service.Execute(QueryRequest::Insert(row));
  const QueryResponse second = service.Execute(QueryRequest::Insert(row));
  ASSERT_TRUE(first.ok && second.ok);
  EXPECT_EQ(second.insert_path, "duplicate");  // actually applied twice
  EXPECT_EQ(second.snapshot_version, first.snapshot_version + 1);
  EXPECT_EQ(service.stats().cache_hits, 0u);
  EXPECT_EQ(service.stats().inserts_applied, 2u);
}

TEST(SkycubeServiceTest, DeleteInvalidatesCachedAnswers) {
  // The delete twin of the insert-staleness regression: once a delete has
  // changed the cube, no cached pre-delete answer may be served.
  const Dataset data = MakeData(60, 3, 17);
  IncrementalCubeMaintainer maintainer(data);
  MaintainerInsertHandler handler(&maintainer);
  SkycubeService service(
      std::make_shared<const CompressedSkylineCube>(maintainer.MakeCube()));
  service.AttachInsertHandler(&handler);
  const DimMask full = data.full_mask();

  const QueryResponse before =
      service.Execute(QueryRequest::SubspaceSkyline(full));
  ASSERT_TRUE(before.ok);
  ASSERT_FALSE(before.ids->empty());
  service.Execute(QueryRequest::SubspaceSkyline(full));
  EXPECT_EQ(service.stats().cache_hits, 1u);

  // Delete a row that is in the full-space skyline: the answer must change.
  const ObjectId victim = before.ids->front();
  const QueryResponse deleted = service.Execute(QueryRequest::Delete(victim));
  ASSERT_TRUE(deleted.ok) << deleted.error;
  EXPECT_EQ(deleted.kind, QueryKind::kDelete);
  EXPECT_EQ(deleted.count, data.num_objects() - 1);  // post-delete live rows
  EXPECT_EQ(deleted.snapshot_version, 2u);
  EXPECT_EQ(service.stats().deletes_applied, 1u);

  const QueryResponse after =
      service.Execute(QueryRequest::SubspaceSkyline(full));
  ASSERT_TRUE(after.ok);
  EXPECT_EQ(after.snapshot_version, 2u);
  EXPECT_EQ(std::count(after.ids->begin(), after.ids->end(), victim), 0);
  // The post-delete probe missed: the version-keyed cache cannot serve v1.
  EXPECT_EQ(service.stats().cache_hits, 1u);
  // And the fresh answer equals the maintainer's post-delete truth.
  EXPECT_EQ(*after.ids, maintainer.MakeCube().SubspaceSkyline(full));
}

TEST(SkycubeServiceTest, AlreadyDeadDeleteKeepsSnapshotAndCache) {
  const Dataset data = MakeData(40, 3, 19);
  IncrementalCubeMaintainer maintainer(data);
  MaintainerInsertHandler handler(&maintainer);
  SkycubeService service(
      std::make_shared<const CompressedSkylineCube>(maintainer.MakeCube()));
  service.AttachInsertHandler(&handler);

  ASSERT_TRUE(service.Execute(QueryRequest::Delete(7)).ok);
  const uint64_t version = service.snapshot_version();
  service.Execute(QueryRequest::SkylineCardinality(data.full_mask()));
  service.Execute(QueryRequest::SkylineCardinality(data.full_mask()));
  EXPECT_EQ(service.stats().cache_hits, 1u);

  // Deleting the same row again (and an out-of-range id — a replayed
  // delete) is an acked no-op: no snapshot swap, cached answers survive.
  const QueryResponse again = service.Execute(QueryRequest::Delete(7));
  ASSERT_TRUE(again.ok) << again.error;
  EXPECT_EQ(again.insert_path, "dead");
  const QueryResponse orphan = service.Execute(QueryRequest::Delete(9999));
  ASSERT_TRUE(orphan.ok) << orphan.error;
  EXPECT_EQ(orphan.insert_path, "dead");
  EXPECT_EQ(service.snapshot_version(), version);
  EXPECT_EQ(service.stats().deletes_applied, 1u);

  service.Execute(QueryRequest::SkylineCardinality(data.full_mask()));
  EXPECT_EQ(service.stats().cache_hits, 2u);  // still the same snapshot
}

TEST(SkycubeServiceTest, ExpiryInvalidatesCachedAnswers) {
  // Sliding-window twin of the same regression: an expiry pass that
  // tombstones rows must invalidate the result cache.
  const Dataset data = MakeData(40, 3, 23);
  IncrementalCubeMaintainer maintainer(data);
  MaintainerInsertHandler handler(&maintainer);
  uint64_t now_ms = 1000;
  SkycubeServiceOptions options;
  options.ingest_clock = [&now_ms] { return now_ms; };
  SkycubeService service(
      std::make_shared<const CompressedSkylineCube>(maintainer.MakeCube()),
      options);
  service.AttachInsertHandler(&handler);

  // A dominating row stamped at t=1000 takes over every skyline.
  ASSERT_TRUE(service.Execute(QueryRequest::Insert({0.0, 0.0, 0.0})).ok);
  const DimMask full = data.full_mask();
  const QueryResponse owned =
      service.Execute(QueryRequest::SkylineCardinality(full));
  ASSERT_TRUE(owned.ok);
  EXPECT_EQ(owned.count, 1u);
  service.Execute(QueryRequest::SkylineCardinality(full));
  EXPECT_EQ(service.stats().cache_hits, 1u);

  // The window slides past t=1000: the dominator expires, bootstrap rows
  // (timestamp 0) are immune, and the cached answer dies with the version.
  now_ms = 5000;
  Result<uint64_t> expired = service.ApplyExpiry(2000);
  ASSERT_TRUE(expired.ok()) << expired.status().ToString();
  EXPECT_EQ(expired.value(), 1u);
  EXPECT_EQ(service.stats().expiry_passes, 1u);
  EXPECT_EQ(service.stats().expired_rows, 1u);

  const QueryResponse after =
      service.Execute(QueryRequest::SkylineCardinality(full));
  ASSERT_TRUE(after.ok);
  EXPECT_GT(after.count, 1u);  // the bootstrap skyline is back
  EXPECT_EQ(service.stats().cache_hits, 1u);  // post-expiry probe missed

  // A pass that expires nothing keeps the snapshot (and the cache) alive.
  const uint64_t version = service.snapshot_version();
  expired = service.ApplyExpiry(2000);
  ASSERT_TRUE(expired.ok());
  EXPECT_EQ(expired.value(), 0u);
  EXPECT_EQ(service.snapshot_version(), version);
}

TEST(SkycubeServiceTest, EpochDiffTracksEnteredAndLeft) {
  const Dataset data = MakeData(50, 3, 27);
  IncrementalCubeMaintainer maintainer(data);
  MaintainerInsertHandler handler(&maintainer);
  SkycubeService service(
      std::make_shared<const CompressedSkylineCube>(maintainer.MakeCube()));
  service.AttachInsertHandler(&handler);
  const DimMask full = data.full_mask();

  const QueryResponse v1_sky =
      service.Execute(QueryRequest::SubspaceSkyline(full));
  ASSERT_TRUE(v1_sky.ok);

  // A dominating insert: everything leaves, only the new row enters.
  ASSERT_TRUE(service.Execute(QueryRequest::Insert({0.0, 0.0, 0.0})).ok);
  const ObjectId dominator = static_cast<ObjectId>(data.num_objects());
  const QueryResponse diff =
      service.Execute(QueryRequest::EpochDiff(full, 1));
  ASSERT_TRUE(diff.ok) << diff.error;
  EXPECT_EQ(diff.kind, QueryKind::kEpochDiff);
  ASSERT_NE(diff.ids, nullptr);
  ASSERT_NE(diff.left_ids, nullptr);
  EXPECT_EQ(*diff.ids, std::vector<ObjectId>{dominator});
  EXPECT_EQ(*diff.left_ids, *v1_sky.ids);
  EXPECT_EQ(diff.count, 1 + v1_sky.ids->size());

  // Deleting the dominator restores the v1 skyline: the diff drains.
  ASSERT_TRUE(service.Execute(QueryRequest::Delete(dominator)).ok);
  const QueryResponse undone =
      service.Execute(QueryRequest::EpochDiff(full, 1));
  ASSERT_TRUE(undone.ok) << undone.error;
  EXPECT_TRUE(undone.ids->empty());
  EXPECT_TRUE(undone.left_ids->empty());
  EXPECT_EQ(undone.count, 0u);

  // Diffing against the current version is always empty.
  const QueryResponse self = service.Execute(
      QueryRequest::EpochDiff(full, service.snapshot_version()));
  ASSERT_TRUE(self.ok);
  EXPECT_EQ(self.count, 0u);

  // Epoch-diff answers are cacheable — keyed by the version *pair*.
  const QueryResponse warm =
      service.Execute(QueryRequest::EpochDiff(full, 1));
  ASSERT_TRUE(warm.ok);
  EXPECT_TRUE(warm.cache_hit);
}

TEST(SkycubeServiceTest, EpochDiffOutsideRetainedHistoryIsNotFound) {
  const Dataset data = MakeData(30, 3, 29);
  IncrementalCubeMaintainer maintainer(data);
  MaintainerInsertHandler handler(&maintainer);
  SkycubeServiceOptions options;
  options.epoch_history = 2;  // tight ring: v1 falls out quickly
  SkycubeService service(
      std::make_shared<const CompressedSkylineCube>(maintainer.MakeCube()),
      options);
  service.AttachInsertHandler(&handler);
  const DimMask full = data.full_mask();

  // since_version == 0 is malformed, not merely unretained.
  const QueryResponse zero = service.Execute(QueryRequest::EpochDiff(full, 0));
  EXPECT_FALSE(zero.ok);
  EXPECT_EQ(zero.code, StatusCode::kInvalidArgument);

  // A future version was never retained.
  const QueryResponse future =
      service.Execute(QueryRequest::EpochDiff(full, 99));
  EXPECT_FALSE(future.ok);
  EXPECT_EQ(future.code, StatusCode::kNotFound);

  // Push v1 out of the 2-deep ring with two inserts (v2, v3).
  ASSERT_TRUE(service.Execute(QueryRequest::Insert({0.4, 0.4, 0.4})).ok);
  ASSERT_TRUE(service.Execute(QueryRequest::Insert({0.3, 0.3, 0.3})).ok);
  const QueryResponse evicted =
      service.Execute(QueryRequest::EpochDiff(full, 1));
  EXPECT_FALSE(evicted.ok);
  EXPECT_EQ(evicted.code, StatusCode::kNotFound);
  const QueryResponse retained =
      service.Execute(QueryRequest::EpochDiff(full, 2));
  EXPECT_TRUE(retained.ok) << retained.error;

  // Error responses are never cached: the same kNotFound repeats as a
  // computed answer, not a cache hit.
  const QueryResponse again =
      service.Execute(QueryRequest::EpochDiff(full, 1));
  EXPECT_FALSE(again.ok);
  EXPECT_FALSE(again.cache_hit);
}

TEST(SkycubeServiceTest, EpochHistoryDisabledAnswersNotFound) {
  const Dataset data = MakeData(20, 3, 31);
  SkycubeServiceOptions options;
  options.epoch_history = 0;
  SkycubeService service(MakeCube(data), options);
  const QueryResponse diff =
      service.Execute(QueryRequest::EpochDiff(data.full_mask(), 1));
  EXPECT_FALSE(diff.ok);
  EXPECT_EQ(diff.code, StatusCode::kNotFound);
}

TEST(SkycubeServiceTest, DrainRejectsAllTraffic) {
  const Dataset data = MakeData(30, 3, 15);
  IncrementalCubeMaintainer maintainer(data);
  MaintainerInsertHandler handler(&maintainer);
  SkycubeService service(
      std::make_shared<const CompressedSkylineCube>(maintainer.MakeCube()));
  service.AttachInsertHandler(&handler);
  ASSERT_FALSE(service.draining());

  service.BeginDrain();
  EXPECT_TRUE(service.draining());

  const QueryResponse query =
      service.Execute(QueryRequest::SkylineCardinality(data.full_mask()));
  EXPECT_FALSE(query.ok);
  EXPECT_NE(query.error.find("draining"), std::string::npos);
  const QueryResponse insert =
      service.Execute(QueryRequest::Insert({0.5, 0.5, 0.5}));
  EXPECT_FALSE(insert.ok);
  const std::vector<QueryResponse> batch = service.ExecuteBatch(
      {QueryRequest::SkycubeSize(), QueryRequest::SkycubeSize()});
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_FALSE(batch[0].ok);
  EXPECT_FALSE(batch[1].ok);

  const ServiceStats stats = service.stats();
  EXPECT_TRUE(stats.draining);
  EXPECT_EQ(stats.drained_rejects, 4u);
  EXPECT_EQ(stats.inserts_applied, 0u);
}

}  // namespace
}  // namespace skycube
