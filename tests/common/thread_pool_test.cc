// Tests for the ThreadPool behind SkycubeService and NetServer.
#include <atomic>
#include <chrono>
#include <functional>
#include <thread>

#include <gtest/gtest.h>

#include "common/thread_pool.h"

namespace skycube {
namespace {

TEST(ThreadPoolTest, ExecutesEveryTask) {
  ThreadPool pool(ThreadPoolOptions{4, 64});
  std::atomic<int> executed{0};
  for (int i = 0; i < 1000; ++i) {
    pool.Submit([&executed] { ++executed; });
  }
  // The destructor drains the queue before joining, so after scope exit
  // every task must have run; poll to also cover the pre-shutdown path.
  while (executed.load() < 1000) std::this_thread::yield();
  EXPECT_EQ(executed.load(), 1000);
  EXPECT_EQ(pool.stats().tasks_submitted, 1000u);
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> executed{0};
  {
    ThreadPool pool(ThreadPoolOptions{2, 512});
    for (int i = 0; i < 200; ++i) {
      pool.Submit([&executed] { ++executed; });
    }
  }  // ~ThreadPool must not drop queued work
  EXPECT_EQ(executed.load(), 200);
}

TEST(ThreadPoolTest, BoundedQueueBlocksSubmitUntilDrained) {
  ThreadPool pool(ThreadPoolOptions{1, 2});
  std::atomic<bool> release{false};
  std::atomic<int> executed{0};
  // Occupy the single worker, then fill the queue past capacity: the extra
  // Submits must block (and eventually complete) rather than grow a backlog.
  pool.Submit([&] {
    while (!release.load()) std::this_thread::yield();
    ++executed;
  });
  std::thread producer([&] {
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&executed] { ++executed; });
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_LE(pool.QueueDepth(), 2u);
  release.store(true);
  producer.join();
  while (executed.load() < 11) std::this_thread::yield();
  EXPECT_EQ(executed.load(), 11);
  const ThreadPoolStats stats = pool.stats();
  EXPECT_GE(stats.submit_waits, 1u);
  EXPECT_LE(stats.queue_depth_high_water, 2u);
}

TEST(ThreadPoolTest, TrySubmitRefusesWhenFull) {
  ThreadPool pool(ThreadPoolOptions{1, 1});
  std::atomic<bool> release{false};
  pool.Submit([&] {
    while (!release.load()) std::this_thread::yield();
  });
  // Fill the one queue slot, then TrySubmit must refuse without blocking.
  std::function<void()> filler = [] {};
  while (!pool.TrySubmit(filler)) std::this_thread::yield();
  std::function<void()> refused = [] {};
  bool accepted = true;
  for (int i = 0; i < 100 && accepted; ++i) {
    accepted = pool.TrySubmit(refused);
  }
  EXPECT_FALSE(accepted);
  release.store(true);
}

}  // namespace
}  // namespace skycube
