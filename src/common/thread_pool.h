// A fixed-size worker pool over a bounded MPMC task queue — the execution
// substrate for the query service's batch fan-out (SkycubeService) and the
// network server's dispatch (NetServer).
//
// Design constraints, in order:
//  - workers are created once and reused: the serving path must not pay a
//    thread spawn per request;
//  - the queue is bounded: a producer that outruns the workers blocks in
//    Submit() instead of growing an unbounded backlog (use TrySubmit for
//    best-effort helpers that would rather run the work themselves);
//  - tasks must never block waiting for *other pool tasks* to be scheduled —
//    that is the classic fixed-pool deadlock. SkycubeService::ExecuteBatch
//    obeys this by having the caller claim requests too, so a batch
//    completes even when no helper task was queued.
#ifndef SKYCUBE_COMMON_THREAD_POOL_H_
#define SKYCUBE_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace skycube {

/// Lifetime counters of a ThreadPool; all values are cumulative.
struct ThreadPoolStats {
  uint64_t tasks_submitted = 0;
  uint64_t tasks_executed = 0;
  uint64_t submit_waits = 0;  // Submit() calls that blocked on a full queue
  /// Largest queue length ever observed right after an enqueue — the
  /// backlog high-water mark of the serving path.
  size_t queue_depth_high_water = 0;
};

/// Construction knobs for a ThreadPool.
struct ThreadPoolOptions {
  /// 0 = std::hardware_concurrency (min 1).
  int num_threads = 0;
  /// Maximum queued (not yet running) tasks before Submit() blocks.
  size_t queue_capacity = 1024;
};

class ThreadPool {
 public:
  using Options = ThreadPoolOptions;

  explicit ThreadPool(Options options = {});

  /// Drains every queued task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `task`; blocks while the queue is at capacity. Must not be
  /// called after the destructor has started.
  void Submit(std::function<void()> task) EXCLUDES(mu_);

  /// Enqueues `task` if the queue has room; returns false (task untouched)
  /// otherwise. Never blocks.
  bool TrySubmit(std::function<void()>& task) EXCLUDES(mu_);

  int num_threads() const { return static_cast<int>(workers_.size()); }
  size_t queue_capacity() const { return options_.queue_capacity; }

  /// Queued-but-not-running tasks right now (racy by nature; for stats).
  size_t QueueDepth() const EXCLUDES(mu_);

  ThreadPoolStats stats() const EXCLUDES(mu_);

 private:
  void WorkerLoop() EXCLUDES(mu_);

  /// Records an enqueue in the cumulative counters.
  void NoteEnqueuedLocked() REQUIRES(mu_);

  Options options_;
  mutable Mutex mu_;
  CondVar not_empty_;
  CondVar not_full_;
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  bool shutting_down_ GUARDED_BY(mu_) = false;
  ThreadPoolStats stats_ GUARDED_BY(mu_);
  std::vector<std::thread> workers_;
};

}  // namespace skycube

#endif  // SKYCUBE_COMMON_THREAD_POOL_H_
