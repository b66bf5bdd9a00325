// WindowExpiry behaviour: the sliding-window pass with an injected clock
// (deterministic cutoffs, no real sleeps for correctness); a failing or
// throwing pass that leaves the snapshot serving and is retried by the next
// tick; ticks folding into one follow-up pass at the furthest cutoff; and —
// the case TSan exists for — an expiry timer racing concurrent queries and
// inserts without a data race or a stale answer labeled with a fresh
// version. The failure cases script the insert handler rather than arm a
// fault point, so they also run with fault injection compiled out.
#include "service/window_expiry.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/cube.h"
#include "core/maintenance.h"
#include "datagen/synthetic.h"
#include "dataset/dataset.h"
#include "service/ingest.h"
#include "service/request.h"
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

/// Maintainer-backed service whose ingest clock is a settable fake.
struct Harness {
  explicit Harness(Dataset data, uint64_t epoch_history = 32)
      : maintainer(std::move(data)), handler(&maintainer) {
    SkycubeServiceOptions options;
    options.epoch_history = epoch_history;
    options.ingest_clock = [this] {
      return now_ms.load(std::memory_order_relaxed);
    };
    service = std::make_unique<SkycubeService>(
        std::make_shared<const CompressedSkylineCube>(maintainer.MakeCube()),
        options);
    service->AttachInsertHandler(&handler);
  }

  std::atomic<uint64_t> now_ms{1000};
  IncrementalCubeMaintainer maintainer;
  MaintainerInsertHandler handler;
  std::unique_ptr<SkycubeService> service;
};

/// Forwards every mutation to the harness's handler, except that
/// ApplyExpire can be made to fail, throw, or block until Release(). It
/// records the cutoff of every ApplyExpire call.
class ScriptedExpireHandler : public InsertHandler {
 public:
  enum class Mode { kForward, kFail, kThrow, kBlockOnce };

  explicit ScriptedExpireHandler(InsertHandler* inner) : inner_(inner) {}

  Result<Applied> ApplyInsert(const std::vector<double>& values,
                              uint64_t timestamp_ms) override {
    return inner_->ApplyInsert(values, timestamp_ms);
  }
  Result<Applied> ApplyDelete(ObjectId id) override {
    return inner_->ApplyDelete(id);
  }
  Result<Applied> ApplyExpire(uint64_t cutoff_ms) override {
    std::unique_lock<std::mutex> lock(mu_);
    cutoffs_.push_back(cutoff_ms);
    switch (mode_) {
      case Mode::kForward:
        break;
      case Mode::kFail:
        return Status::Unavailable("scripted expiry failure");
      case Mode::kThrow:
        throw std::runtime_error("scripted expiry throw");
      case Mode::kBlockOnce:
        mode_ = Mode::kForward;
        entered_ = true;
        cv_.notify_all();
        cv_.wait(lock, [this] { return released_; });
        break;
    }
    lock.unlock();
    return inner_->ApplyExpire(cutoff_ms);
  }
  int num_dims() const override { return inner_->num_dims(); }

  void SetMode(Mode mode) {
    std::lock_guard<std::mutex> lock(mu_);
    mode_ = mode;
  }
  /// Waits until a kBlockOnce pass is blocked inside ApplyExpire.
  void WaitEntered() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return entered_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }
  std::vector<uint64_t> cutoffs() {
    std::lock_guard<std::mutex> lock(mu_);
    return cutoffs_;
  }

 private:
  InsertHandler* inner_;
  std::mutex mu_;
  std::condition_variable cv_;
  Mode mode_ = Mode::kForward;
  bool entered_ = false;
  bool released_ = false;
  std::vector<uint64_t> cutoffs_;
};

TEST(WindowExpiryTest, ManualTickExpiresExactlyTheWindow) {
  Harness harness(MakeData(40, 3, 3));
  // Three rows at distinct times; bootstrap rows carry timestamp 0.
  ASSERT_TRUE(harness.service->Execute(QueryRequest::Insert({0.3, 0.3, 0.3}))
                  .ok);
  harness.now_ms = 2000;
  ASSERT_TRUE(harness.service->Execute(QueryRequest::Insert({0.2, 0.2, 0.2}))
                  .ok);
  harness.now_ms = 3000;
  ASSERT_TRUE(harness.service->Execute(QueryRequest::Insert({0.1, 0.1, 0.1}))
                  .ok);

  WindowExpiryOptions options;  // window_ms = 0: timer off, manual ticks
  WindowExpiry expiry(harness.service.get(), options,
                      [&harness] { return harness.now_ms.load(); });
  expiry.TickAt(2500);  // rows stamped 1000 and 2000 age out
  ASSERT_TRUE(expiry.WaitUntilIdle(std::chrono::milliseconds(5000)));

  const WindowExpiryStats stats = expiry.stats();
  EXPECT_EQ(stats.ticks, 1u);
  EXPECT_EQ(stats.passes_ok, 1u);
  EXPECT_EQ(stats.passes_failed, 0u);
  EXPECT_EQ(stats.rows_expired, 2u);
  EXPECT_EQ(stats.last_cutoff_ms, 2500u);
  EXPECT_EQ(harness.maintainer.num_live(), 41u);
  EXPECT_FALSE(harness.maintainer.IsLive(40));
  EXPECT_FALSE(harness.maintainer.IsLive(41));
  EXPECT_TRUE(harness.maintainer.IsLive(42));
  EXPECT_EQ(harness.maintainer.groups(),
            StellarOverLive(harness.maintainer.data(),
                            harness.maintainer.live()));
}

TEST(WindowExpiryTest, TimerSlidesTheWindowWithTheClock) {
  Harness harness(MakeData(30, 3, 5));
  ASSERT_TRUE(harness.service->Execute(QueryRequest::Insert({0.4, 0.4, 0.4}))
                  .ok);  // stamped 1000

  WindowExpiryOptions options;
  options.window_ms = 500;
  options.interval = std::chrono::milliseconds(5);
  WindowExpiry expiry(harness.service.get(), options,
                      [&harness] { return harness.now_ms.load(); });

  // While now stays at 1000 the cutoff is 500: nothing expires no matter
  // how many times the timer fires.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(expiry.stats().rows_expired, 0u);
  EXPECT_TRUE(harness.maintainer.IsLive(30));

  // Advance the clock past 1000 + window: the next tick expires the row.
  harness.now_ms = 2000;
  for (int i = 0; i < 500 && expiry.stats().rows_expired == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(expiry.WaitUntilIdle(std::chrono::milliseconds(5000)));
  EXPECT_EQ(expiry.stats().rows_expired, 1u);
  EXPECT_FALSE(harness.maintainer.IsLive(30));
  EXPECT_GT(expiry.stats().ticks, 0u);
}

TEST(WindowExpiryTest, FailedPassKeepsServingAndTheNextTickRetries) {
  Harness harness(MakeData(40, 3, 3));
  ASSERT_TRUE(harness.service->Execute(QueryRequest::Insert({0.3, 0.3, 0.3}))
                  .ok);  // stamped 1000
  ScriptedExpireHandler scripted(&harness.handler);
  harness.service->AttachInsertHandler(&scripted);
  const uint64_t version = harness.service->snapshot_version();

  WindowExpiry expiry(harness.service.get(), WindowExpiryOptions{},
                      [&harness] { return harness.now_ms.load(); });
  scripted.SetMode(ScriptedExpireHandler::Mode::kFail);
  expiry.TickAt(1500);
  ASSERT_TRUE(expiry.WaitUntilIdle(std::chrono::milliseconds(5000)));
  WindowExpiryStats stats = expiry.stats();
  EXPECT_EQ(stats.passes_failed, 1u);
  EXPECT_EQ(stats.passes_ok, 0u);
  EXPECT_EQ(stats.rows_expired, 0u);
  EXPECT_EQ(stats.last_cutoff_ms, 0u);
  // The failed pass published nothing: the last snapshot keeps serving.
  EXPECT_EQ(harness.service->snapshot_version(), version);
  EXPECT_TRUE(harness.maintainer.IsLive(40));
  const QueryResponse sky =
      harness.service->Execute(QueryRequest::SubspaceSkyline(0b111));
  ASSERT_TRUE(sky.ok);
  EXPECT_EQ(sky.snapshot_version, version);

  // The handler recovers: the next tick runs the pass that failed.
  scripted.SetMode(ScriptedExpireHandler::Mode::kForward);
  expiry.TickAt(1500);
  ASSERT_TRUE(expiry.WaitUntilIdle(std::chrono::milliseconds(5000)));
  stats = expiry.stats();
  EXPECT_EQ(stats.ticks, 2u);
  EXPECT_EQ(stats.passes_failed, 1u);
  EXPECT_EQ(stats.passes_ok, 1u);
  EXPECT_EQ(stats.rows_expired, 1u);
  EXPECT_EQ(stats.last_cutoff_ms, 1500u);
  EXPECT_FALSE(harness.maintainer.IsLive(40));
  EXPECT_EQ(harness.service->snapshot_version(), version + 1);
}

TEST(WindowExpiryTest, ThrowingPassIsCountedAndTheThreadSurvives) {
  Harness harness(MakeData(40, 3, 5));
  ASSERT_TRUE(harness.service->Execute(QueryRequest::Insert({0.3, 0.3, 0.3}))
                  .ok);  // stamped 1000
  ScriptedExpireHandler scripted(&harness.handler);
  harness.service->AttachInsertHandler(&scripted);
  const uint64_t version = harness.service->snapshot_version();

  WindowExpiry expiry(harness.service.get(), WindowExpiryOptions{},
                      [&harness] { return harness.now_ms.load(); });
  scripted.SetMode(ScriptedExpireHandler::Mode::kThrow);
  expiry.TickAt(1500);
  ASSERT_TRUE(expiry.WaitUntilIdle(std::chrono::milliseconds(5000)));
  EXPECT_EQ(expiry.stats().passes_failed, 1u);
  EXPECT_EQ(expiry.stats().passes_ok, 0u);
  EXPECT_EQ(harness.service->snapshot_version(), version);
  // The throw released the service's ingest lock: inserts still apply.
  harness.now_ms = 2000;
  ASSERT_TRUE(harness.service->Execute(QueryRequest::Insert({0.2, 0.2, 0.2}))
                  .ok);

  scripted.SetMode(ScriptedExpireHandler::Mode::kForward);
  expiry.TickAt(2500);
  ASSERT_TRUE(expiry.WaitUntilIdle(std::chrono::milliseconds(5000)));
  const WindowExpiryStats stats = expiry.stats();
  EXPECT_EQ(stats.passes_failed, 1u);
  EXPECT_EQ(stats.passes_ok, 1u);
  EXPECT_EQ(stats.rows_expired, 2u);
  EXPECT_EQ(stats.last_cutoff_ms, 2500u);
  EXPECT_FALSE(harness.maintainer.IsLive(40));
  EXPECT_FALSE(harness.maintainer.IsLive(41));
}

TEST(WindowExpiryTest, TicksDuringAPassFoldIntoOnePassAtTheFurthestCutoff) {
  Harness harness(MakeData(40, 3, 11));
  for (int i = 1; i <= 3; ++i) {  // rows 40-42, stamped 1000-3000
    harness.now_ms = 1000 * i;
    const double v = 0.1 * i;
    ASSERT_TRUE(harness.service->Execute(QueryRequest::Insert({v, v, v})).ok);
  }
  ScriptedExpireHandler scripted(&harness.handler);
  harness.service->AttachInsertHandler(&scripted);

  WindowExpiry expiry(harness.service.get(), WindowExpiryOptions{},
                      [&harness] { return harness.now_ms.load(); });
  scripted.SetMode(ScriptedExpireHandler::Mode::kBlockOnce);
  expiry.TickAt(1500);
  scripted.WaitEntered();  // the first pass is blocked inside ApplyExpire
  // Cutoffs only move forward: the later 2500 must not pull the folded
  // pass back from 3500.
  expiry.TickAt(3500);
  expiry.TickAt(2500);
  // Neither tick waits behind the blocked pass, and stats() answers.
  EXPECT_EQ(expiry.stats().ticks, 3u);
  EXPECT_EQ(expiry.stats().passes_ok, 0u);
  EXPECT_FALSE(expiry.WaitUntilIdle(std::chrono::milliseconds(1)));
  scripted.Release();
  ASSERT_TRUE(expiry.WaitUntilIdle(std::chrono::milliseconds(5000)));

  EXPECT_EQ(scripted.cutoffs(), (std::vector<uint64_t>{1500, 3500}));
  const WindowExpiryStats stats = expiry.stats();
  EXPECT_EQ(stats.ticks, 3u);
  EXPECT_EQ(stats.passes_ok, 2u);
  EXPECT_EQ(stats.passes_failed, 0u);
  EXPECT_EQ(stats.rows_expired, 3u);
  EXPECT_EQ(stats.last_cutoff_ms, 3500u);
  EXPECT_EQ(harness.maintainer.num_live(), 40u);
}

TEST(WindowExpiryTest, ExpiryRacesQueriesAndInserts) {
  // The TSan target: an aggressive expiry timer against concurrent Q1/Q3
  // readers and an insert writer. Correctness bar: every response is
  // well-formed, versions are monotone per thread, and the final state
  // equals the live-set oracle.
  Harness harness(MakeData(80, 3, 7));
  WindowExpiryOptions options;
  options.window_ms = 1;  // everything with a timestamp ages out instantly
  options.interval = std::chrono::milliseconds(1);
  auto expiry = std::make_unique<WindowExpiry>(
      harness.service.get(), options,
      [&harness] { return harness.now_ms.load(); });

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> bad_answers{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&harness, &stop, &bad_answers, t] {
      uint64_t last_version = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const QueryResponse sky = harness.service->Execute(
            QueryRequest::SubspaceSkyline(0b111));
        const QueryResponse count = harness.service->Execute(
            QueryRequest::MembershipCount(static_cast<ObjectId>(t)));
        if (!sky.ok || sky.ids == nullptr || !count.ok) {
          bad_answers.fetch_add(1, std::memory_order_relaxed);
        }
        // Versions never move backwards under a reader's feet.
        if (sky.snapshot_version < last_version) {
          bad_answers.fetch_add(1, std::memory_order_relaxed);
        }
        last_version = sky.snapshot_version;
      }
    });
  }
  std::thread writer([&harness, &stop, &bad_answers] {
    for (int i = 0; i < 60 && !stop.load(std::memory_order_acquire); ++i) {
      harness.now_ms.fetch_add(10, std::memory_order_relaxed);
      const QueryResponse applied = harness.service->Execute(
          QueryRequest::Insert({0.5 + 0.001 * i, 0.5, 0.5}));
      if (!applied.ok) bad_answers.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  writer.join();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stop.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();

  // Stop the timer (the destructor lets a pass in flight finish) before
  // touching the maintainer — its structures are only safe to read once no
  // expiry pass can be mutating them.
  const WindowExpiryStats stats = expiry->stats();
  expiry.reset();
  EXPECT_EQ(bad_answers.load(), 0u);
  EXPECT_EQ(stats.passes_failed, 0u);
  EXPECT_EQ(harness.maintainer.groups(),
            StellarOverLive(harness.maintainer.data(),
                            harness.maintainer.live()));
  // Bootstrap rows (timestamp 0) never expire, no matter how hard the
  // 1ms-window timer hammered the dataset.
  for (ObjectId id = 0; id < 80; ++id) {
    EXPECT_TRUE(harness.maintainer.IsLive(id)) << id;
  }
}

}  // namespace
}  // namespace skycube
