// Fault-tolerance behaviour of SkycubeService and CubeRebuilder, exercised
// end-to-end through the fault-injection registry: deadline propagation,
// admission control under saturation, per-item batch failure containment,
// a batch whose pool refuses every helper, resilient background rebuilds,
// and a TSan-targeted stress mix of all of the above. Test names start with
// "SkycubeService" so the CI sanitizer matrix (-R "...|SkycubeService")
// picks them up.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/deadline.h"
#include "common/fault_injection.h"
#include "common/status.h"
#include "core/stellar.h"
#include "datagen/synthetic.h"
#include "dataset/dataset.h"
#include "service/cube_rebuilder.h"
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

class SkycubeServiceRobustnessTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjection::Instance().Reset(); }
};

// --- Deadline propagation --------------------------------------------------

TEST_F(SkycubeServiceRobustnessTest, ExpiredDeadlineIsRejectedNotComputed) {
  const Dataset data = MakeData(100, 4, 7);
  SkycubeService service(MakeCube(data));
  const QueryRequest request =
      QueryRequest::SubspaceSkyline(data.full_mask())
          .WithDeadline(Deadline::ExpiredNow());
  const QueryResponse response = service.Execute(request);
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.code, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(service.stats().deadline_exceeded, 1u);
}

TEST_F(SkycubeServiceRobustnessTest, DeadlinedAnswerIsNeverCached) {
  const Dataset data = MakeData(100, 4, 7);
  SkycubeService service(MakeCube(data));
  const QueryRequest plain = QueryRequest::SubspaceSkyline(data.full_mask());
  // Deadline expires mid-compute (the delay straddles it): the partial
  // answer must be discarded, not cached.
  FaultInjection::Instance().ArmDelay("service.compute_delay", 30, 1);
  const QueryResponse deadlined =
      service.Execute(plain.WithDeadline(Deadline::AfterMillis(5)));
  EXPECT_FALSE(deadlined.ok);
  EXPECT_EQ(deadlined.code, StatusCode::kDeadlineExceeded);
  // The follow-up without a deadline must be a cache miss (nothing was
  // cached) and produce the real answer.
  const QueryResponse good = service.Execute(plain);
  ASSERT_TRUE(good.ok);
  EXPECT_FALSE(good.cache_hit);
  EXPECT_EQ(*good.ids, service.snapshot()->SubspaceSkyline(data.full_mask()));
  // And now it *is* cached.
  EXPECT_TRUE(service.Execute(plain).cache_hit);
}

TEST_F(SkycubeServiceRobustnessTest,
       DeadlinedQueryDoesNotBlockConcurrentQueries) {
  const Dataset data = MakeData(200, 5, 11);
  SkycubeService service(MakeCube(data));
  // One slow query (100 ms) carrying a 5 ms deadline, racing fast
  // deadline-free queries: the fast ones must all succeed while the slow
  // one is still sleeping.
  FaultInjection::Instance().ArmDelay("service.compute_delay", 100, 1);
  std::thread slow([&] {
    const QueryResponse response = service.Execute(
        QueryRequest::SubspaceSkyline(data.full_mask())
            .WithDeadline(Deadline::AfterMillis(5)));
    EXPECT_EQ(response.code, StatusCode::kDeadlineExceeded);
  });
  // Wait until the slow query has actually entered its sleep (its hit is
  // the one that consumed the armed delay).
  while (FaultInjection::Instance().HitCount("service.compute_delay") < 1) {
    std::this_thread::yield();
  }
  for (int i = 0; i < 50; ++i) {
    const QueryResponse response =
        service.Execute(QueryRequest::SkylineCardinality(1));
    EXPECT_TRUE(response.ok);
  }
  slow.join();
}

// --- Admission control -----------------------------------------------------

TEST_F(SkycubeServiceRobustnessTest, OverloadShedsWhileInFlightCompletes) {
  const Dataset data = MakeData(100, 4, 13);
  SkycubeServiceOptions options;
  options.cache.capacity = 0;  // every query takes the compute path
  options.max_in_flight = 2;
  SkycubeService service(MakeCube(data), options);

  // Two in-flight queries sleep 80 ms each, filling both slots.
  FaultInjection::Instance().ArmDelay("service.compute_delay", 80, 2);
  std::atomic<int> ok_count{0};
  std::vector<std::thread> holders;
  for (int i = 0; i < 2; ++i) {
    holders.emplace_back([&] {
      const QueryResponse response =
          service.Execute(QueryRequest::SkylineCardinality(1));
      if (response.ok) ok_count.fetch_add(1);
    });
  }
  // Wait until both slots are actually taken.
  while (service.stats().in_flight_high_water < 2) {
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  // Arrivals beyond the limit are shed immediately with kResourceExhausted.
  for (int i = 0; i < 5; ++i) {
    const QueryResponse shed =
        service.Execute(QueryRequest::SubspaceSkyline(1));
    EXPECT_FALSE(shed.ok);
    EXPECT_EQ(shed.code, StatusCode::kResourceExhausted);
  }
  for (std::thread& holder : holders) holder.join();
  // The in-flight queries were NOT victims: they completed normally.
  EXPECT_EQ(ok_count.load(), 2);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.shed_total, 5u);
  EXPECT_EQ(stats.shed_by_kind[static_cast<int>(
                QueryKind::kSubspaceSkyline)],
            5u);
  EXPECT_EQ(stats.in_flight_high_water, 2u);
}

TEST_F(SkycubeServiceRobustnessTest, QueueWaitTimeoutAdmitsWhenSlotFrees) {
  const Dataset data = MakeData(100, 4, 13);
  SkycubeServiceOptions options;
  options.cache.capacity = 0;
  options.max_in_flight = 1;
  options.queue_wait_timeout = std::chrono::milliseconds(2000);
  SkycubeService service(MakeCube(data), options);

  FaultInjection::Instance().ArmDelay("service.compute_delay", 50, 1);
  std::thread holder([&] {
    EXPECT_TRUE(service.Execute(QueryRequest::SkylineCardinality(1)).ok);
  });
  while (service.stats().in_flight_high_water < 1) {
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  // This arrival waits (within its generous timeout) instead of shedding.
  const QueryResponse waited =
      service.Execute(QueryRequest::SkylineCardinality(2));
  EXPECT_TRUE(waited.ok);
  holder.join();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.shed_total, 0u);
  EXPECT_GE(stats.admission_waits, 1u);
}

TEST_F(SkycubeServiceRobustnessTest, ShedBatchAnswersEveryItem) {
  const Dataset data = MakeData(100, 4, 13);
  SkycubeServiceOptions options;
  options.cache.capacity = 0;
  options.max_in_flight = 1;
  SkycubeService service(MakeCube(data), options);

  FaultInjection::Instance().ArmDelay("service.compute_delay", 80, 1);
  std::thread holder([&] {
    EXPECT_TRUE(service.Execute(QueryRequest::SkylineCardinality(1)).ok);
  });
  while (service.stats().in_flight_high_water < 1) {
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const std::vector<QueryResponse> responses = service.ExecuteBatch(
      {QueryRequest::SkylineCardinality(1), QueryRequest::SkycubeSize(),
       QueryRequest::MembershipCount(0)});
  ASSERT_EQ(responses.size(), 3u);
  for (const QueryResponse& response : responses) {
    EXPECT_FALSE(response.ok);
    EXPECT_EQ(response.code, StatusCode::kResourceExhausted);
  }
  holder.join();
}

// --- Batch failure containment ---------------------------------------------

TEST_F(SkycubeServiceRobustnessTest, ThrowingBatchItemBecomesErrorResponse) {
  const Dataset data = MakeData(100, 4, 17);
  SkycubeServiceOptions options;
  options.cache.capacity = 0;  // keep every item on the compute path
  SkycubeService service(MakeCube(data), options);

  // Exactly one computation throws std::bad_alloc; its siblings answer.
  FaultInjection::Instance().ArmFailure("service.compute_throw", 1);
  std::vector<QueryRequest> requests;
  for (int i = 0; i < 8; ++i) {
    requests.push_back(QueryRequest::SkylineCardinality(
        static_cast<DimMask>(i % 4 + 1)));
  }
  const std::vector<QueryResponse> responses = service.ExecuteBatch(requests);
  ASSERT_EQ(responses.size(), requests.size());
  int failed = 0;
  for (const QueryResponse& response : responses) {
    if (!response.ok) {
      ++failed;
      EXPECT_EQ(response.code, StatusCode::kInternal);
      EXPECT_NE(response.error.find("bad_alloc"), std::string::npos)
          << response.error;
    }
  }
  EXPECT_EQ(failed, 1);
  EXPECT_EQ(service.stats().internal_errors, 1u);
}

TEST_F(SkycubeServiceRobustnessTest, RefusedHelpersLeaveBatchToCaller) {
  const Dataset data = MakeData(200, 5, 31);
  SkycubeServiceOptions options;
  options.cache.capacity = 0;  // every answer below is computed
  options.batch_threads = 4;
  SkycubeService service(MakeCube(data), options);

  std::vector<QueryRequest> requests;
  for (DimMask subspace = 1; subspace <= data.full_mask(); ++subspace) {
    const auto object = static_cast<ObjectId>(subspace % data.num_objects());
    requests.push_back(QueryRequest::SubspaceSkyline(subspace));
    requests.push_back(QueryRequest::SkylineCardinality(subspace));
    requests.push_back(QueryRequest::Membership(object, subspace));
    requests.push_back(QueryRequest::MembershipCount(object));
  }
  requests.push_back(QueryRequest::SkycubeSize());
  requests.push_back(QueryRequest::SubspaceSkyline(0));  // invalid item

  // The pool refuses every helper for the whole batch, so the caller must
  // claim and answer every request itself.
  FaultInjection::Instance().ArmFailure("thread_pool.try_submit", -1);
  const std::vector<QueryResponse> responses = service.ExecuteBatch(requests);
  // The first refusal ends the helper loop.
  EXPECT_EQ(FaultInjection::Instance().HitCount("thread_pool.try_submit"),
            1u);
  EXPECT_EQ(service.stats().queue_depth_high_water, 0u);  // nothing queued
  FaultInjection::Instance().Reset();

  ASSERT_EQ(responses.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    const QueryResponse expected = service.Execute(requests[i]);
    const QueryResponse& got = responses[i];
    EXPECT_EQ(got.kind, expected.kind) << i;
    EXPECT_EQ(got.ok, expected.ok) << i;
    EXPECT_EQ(got.code, expected.code) << i;
    EXPECT_EQ(got.error, expected.error) << i;
    EXPECT_EQ(got.count, expected.count) << i;
    EXPECT_EQ(got.member, expected.member) << i;
    EXPECT_EQ(got.snapshot_version, expected.snapshot_version) << i;
    ASSERT_EQ(got.ids == nullptr, expected.ids == nullptr) << i;
    if (got.ids != nullptr) {
      EXPECT_EQ(*got.ids, *expected.ids) << i;
    }
  }
}

TEST_F(SkycubeServiceRobustnessTest, ThrowingSingleQueryIsContained) {
  const Dataset data = MakeData(50, 4, 17);
  SkycubeServiceOptions options;
  options.cache.capacity = 0;
  SkycubeService service(MakeCube(data), options);
  FaultInjection::Instance().ArmFailure("service.compute_throw", 1);
  const QueryResponse response =
      service.Execute(QueryRequest::SkycubeSize());
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.code, StatusCode::kInternal);
  // The service survives: the next query answers normally.
  EXPECT_TRUE(service.Execute(QueryRequest::SkycubeSize()).ok);
}

// --- Cache fault points ----------------------------------------------------

TEST_F(SkycubeServiceRobustnessTest, SurvivesCacheLookupAndInsertFaults) {
  const Dataset data = MakeData(100, 4, 19);
  SkycubeService service(MakeCube(data));
  const QueryRequest request = QueryRequest::SubspaceSkyline(1);
  const auto expected = service.snapshot()->SubspaceSkyline(1);

  // Dropped insert: the answer is still correct, just never memoized.
  FaultInjection::Instance().ArmFailure("result_cache.insert", 1);
  const QueryResponse dropped = service.Execute(request);
  EXPECT_FALSE(dropped.cache_hit);
  EXPECT_EQ(*dropped.ids, expected);
  // Because the insert was dropped, this is a genuine miss — and its insert
  // goes through.
  const QueryResponse recomputed = service.Execute(request);
  EXPECT_FALSE(recomputed.cache_hit);
  EXPECT_EQ(*recomputed.ids, expected);
  // A forced lookup miss still recomputes the right answer.
  FaultInjection::Instance().ArmFailure("result_cache.lookup", 1);
  const QueryResponse forced_miss = service.Execute(request);
  EXPECT_FALSE(forced_miss.cache_hit);
  EXPECT_EQ(*forced_miss.ids, expected);
  // Unarmed again: back to hitting.
  const QueryResponse warm = service.Execute(request);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(*warm.ids, expected);
}

// --- Resilient reload ------------------------------------------------------

TEST_F(SkycubeServiceRobustnessTest, RebuilderBacksOffThenSwapsIn) {
  const Dataset data = MakeData(100, 4, 23);
  const Dataset next_data = MakeData(120, 4, 29);
  SkycubeService service(MakeCube(data));
  const uint64_t baseline = service.snapshot()->num_objects();

  CubeRebuilderOptions options;
  options.initial_backoff = std::chrono::milliseconds(5);
  options.max_backoff = std::chrono::milliseconds(20);
  CubeRebuilder rebuilder(
      &service, [&] { return Result(MakeCube(next_data)); }, options);

  // The first 3 build attempts fail; the service must keep serving the old
  // snapshot (version 1) throughout, then swap exactly once.
  FaultInjection::Instance().ArmFailure("rebuilder.build", 3);
  rebuilder.TriggerRebuild();
  // While the rebuilder is failing and backing off, queries answer from the
  // last good snapshot.
  while (!rebuilder.WaitUntilIdle(std::chrono::milliseconds(1))) {
    const QueryResponse response =
        service.Execute(QueryRequest::SkylineCardinality(1));
    EXPECT_TRUE(response.ok);
    // A version-1 answer can only have come from the original cube.
    if (response.snapshot_version == 1 && response.count > 0) {
      EXPECT_LE(response.count, baseline);
    }
  }
  ASSERT_TRUE(rebuilder.WaitUntilIdle(std::chrono::milliseconds(5000)));
  EXPECT_EQ(service.snapshot_version(), 2u);
  EXPECT_EQ(service.snapshot()->num_objects(), next_data.num_objects());
  const CubeRebuilderStats stats = rebuilder.stats();
  EXPECT_EQ(stats.builds_attempted, 4u);
  EXPECT_EQ(stats.builds_failed, 3u);
  EXPECT_EQ(stats.builds_succeeded, 1u);
  EXPECT_EQ(stats.gave_up, 0u);
}

TEST_F(SkycubeServiceRobustnessTest, RebuilderNeverSwapsInABrokenCube) {
  const Dataset data = MakeData(100, 4, 23);
  SkycubeService service(MakeCube(data));

  CubeRebuilderOptions options;
  options.initial_backoff = std::chrono::milliseconds(2);
  options.max_attempts = 3;  // give up instead of retrying forever
  CubeRebuilder rebuilder(
      &service,
      []() -> Result<std::shared_ptr<const CompressedSkylineCube>> {
        return Status::Internal("refresh source is corrupt");
      },
      options);
  rebuilder.TriggerRebuild();
  ASSERT_TRUE(rebuilder.WaitUntilIdle(std::chrono::milliseconds(5000)));
  // Every attempt failed: no swap, still serving snapshot 1.
  EXPECT_EQ(service.snapshot_version(), 1u);
  EXPECT_TRUE(service.Execute(QueryRequest::SkylineCardinality(1)).ok);
  const CubeRebuilderStats stats = rebuilder.stats();
  EXPECT_EQ(stats.builds_attempted, 3u);
  EXPECT_EQ(stats.builds_failed, 3u);
  EXPECT_EQ(stats.builds_succeeded, 0u);
  EXPECT_EQ(stats.gave_up, 1u);
}

TEST_F(SkycubeServiceRobustnessTest, RebuilderContainsAThrowingBuilder) {
  const Dataset data = MakeData(50, 4, 23);
  SkycubeService service(MakeCube(data));
  CubeRebuilderOptions options;
  options.initial_backoff = std::chrono::milliseconds(1);
  options.max_attempts = 2;
  CubeRebuilder rebuilder(
      &service,
      []() -> Result<std::shared_ptr<const CompressedSkylineCube>> {
        throw std::runtime_error("loader exploded");
      },
      options);
  rebuilder.TriggerRebuild();
  ASSERT_TRUE(rebuilder.WaitUntilIdle(std::chrono::milliseconds(5000)));
  EXPECT_EQ(service.snapshot_version(), 1u);
  EXPECT_EQ(rebuilder.stats().builds_failed, 2u);
}

TEST_F(SkycubeServiceRobustnessTest, RebuilderRejectsNullCube) {
  const Dataset data = MakeData(50, 4, 23);
  SkycubeService service(MakeCube(data));
  CubeRebuilderOptions options;
  options.initial_backoff = std::chrono::milliseconds(1);
  options.max_attempts = 1;
  CubeRebuilder rebuilder(
      &service,
      []() -> Result<std::shared_ptr<const CompressedSkylineCube>> {
        return std::shared_ptr<const CompressedSkylineCube>();
      },
      options);
  rebuilder.TriggerRebuild();
  ASSERT_TRUE(rebuilder.WaitUntilIdle(std::chrono::milliseconds(5000)));
  EXPECT_EQ(service.snapshot_version(), 1u);
  EXPECT_EQ(rebuilder.stats().builds_failed, 1u);
}

// --- Stress: deadlines + sheds + reloads under TSan ------------------------

TEST_F(SkycubeServiceRobustnessTest, StressDeadlinesShedsAndReloads) {
  const Dataset data_a = MakeData(150, 5, 31);
  const Dataset data_b = MakeData(170, 5, 37);
  auto cube_a = MakeCube(data_a);
  auto cube_b = MakeCube(data_b);

  SkycubeServiceOptions options;
  options.cache.capacity = 1024;
  options.max_in_flight = 3;
  options.queue_wait_timeout = std::chrono::milliseconds(1);
  SkycubeService service(cube_a, options);

  // Sustained slowness: every compute sleeps 1 ms so the admission gate and
  // the deadline checks are genuinely contended.
  FaultInjection::Instance().ArmDelay("service.compute_delay", 1, -1);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> answered{0};
  const DimMask full = data_a.full_mask();

  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      uint64_t i = 0;
      while (!stop.load(std::memory_order_acquire)) {
        QueryRequest request = QueryRequest::SkylineCardinality(
            static_cast<DimMask>((i % full) + 1));
        // Every third request carries a tiny deadline that often expires
        // mid-compute; the rest are unbounded.
        if ((i + t) % 3 == 0) {
          request =
              request.WithDeadline(Deadline::After(
                  std::chrono::microseconds(500)));
        }
        const QueryResponse response = service.Execute(request);
        // Whatever the outcome, it must be one of the defined codes and a
        // consistent (ok, code) pairing.
        EXPECT_EQ(response.ok, response.code == StatusCode::kOk);
        if (response.ok) {
          answered.fetch_add(1, std::memory_order_relaxed);
          EXPECT_GE(response.snapshot_version, 1u);
        } else {
          EXPECT_TRUE(response.code == StatusCode::kDeadlineExceeded ||
                      response.code == StatusCode::kResourceExhausted)
              << StatusCodeName(response.code);
        }
        ++i;
      }
    });
  }
  // Reloader: flips between the two cubes as fast as it can.
  std::thread reloader([&] {
    bool use_b = true;
    while (!stop.load(std::memory_order_acquire)) {
      service.Reload(use_b ? cube_b : cube_a);
      use_b = !use_b;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  // Stats sampler: shed counters must be monotone under concurrency.
  std::thread sampler([&] {
    uint64_t last_shed = 0;
    uint64_t last_deadline = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const ServiceStats stats = service.stats();
      EXPECT_GE(stats.shed_total, last_shed);
      EXPECT_GE(stats.deadline_exceeded, last_deadline);
      EXPECT_LE(stats.in_flight_high_water, options.max_in_flight);
      last_shed = stats.shed_total;
      last_deadline = stats.deadline_exceeded;
      std::this_thread::yield();
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  stop.store(true, std::memory_order_release);
  for (std::thread& client : clients) client.join();
  reloader.join();
  sampler.join();

  // The service made real progress despite the chaos, and never hung.
  EXPECT_GT(answered.load(), 0u);
  const ServiceStats stats = service.stats();
  EXPECT_GT(stats.queries_total, 0u);
  EXPECT_GT(stats.snapshot_swaps, 0u);
}

}  // namespace
}  // namespace skycube
