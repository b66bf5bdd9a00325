#include "common/thread_pool.h"

#include <algorithm>
#include <utility>

#include "common/fault_injection.h"
#include "common/macros.h"

namespace skycube {

ThreadPool::ThreadPool(Options options) : options_(options) {
  int threads = options_.num_threads;
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 1;
  }
  options_.queue_capacity = std::max<size_t>(options_.queue_capacity, 1);
  workers_.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    shutting_down_ = true;
  }
  not_empty_.NotifyAll();
  not_full_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
  // Workers drain before exiting; taking the lock here is cheap (they are
  // all joined) and keeps the guarded read honest.
  MutexLock lock(&mu_);
  SKYCUBE_CHECK(queue_.empty());
}

void ThreadPool::NoteEnqueuedLocked() {
  ++stats_.tasks_submitted;
  stats_.queue_depth_high_water =
      std::max(stats_.queue_depth_high_water, queue_.size());
}

void ThreadPool::Submit(std::function<void()> task) {
  SKYCUBE_CHECK_MSG(static_cast<bool>(task), "Submit of an empty task");
  {
    MutexLock lock(&mu_);
    SKYCUBE_CHECK_MSG(!shutting_down_, "Submit after shutdown began");
    if (queue_.size() >= options_.queue_capacity) {
      ++stats_.submit_waits;
      while (queue_.size() >= options_.queue_capacity && !shutting_down_) {
        not_full_.Wait(&mu_);
      }
      SKYCUBE_CHECK_MSG(!shutting_down_, "Submit raced pool shutdown");
    }
    queue_.push_back(std::move(task));
    NoteEnqueuedLocked();
  }
  not_empty_.NotifyOne();
}

bool ThreadPool::TrySubmit(std::function<void()>& task) {
  SKYCUBE_CHECK_MSG(static_cast<bool>(task), "TrySubmit of an empty task");
  // Simulates a saturated queue: callers must degrade to running the work
  // themselves (the batch fan-out contract).
  if (SKYCUBE_FAULT_POINT("thread_pool.try_submit")) return false;
  {
    MutexLock lock(&mu_);
    SKYCUBE_CHECK_MSG(!shutting_down_, "TrySubmit after shutdown began");
    if (queue_.size() >= options_.queue_capacity) return false;
    queue_.push_back(std::move(task));
    NoteEnqueuedLocked();
  }
  not_empty_.NotifyOne();
  return true;
}

size_t ThreadPool::QueueDepth() const {
  MutexLock lock(&mu_);
  return queue_.size();
}

ThreadPoolStats ThreadPool::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(&mu_);
      while (queue_.empty() && !shutting_down_) not_empty_.Wait(&mu_);
      if (queue_.empty()) return;  // shutting down with nothing left
      task = std::move(queue_.front());
      queue_.pop_front();
      ++stats_.tasks_executed;
    }
    not_full_.NotifyOne();
    task();
  }
}

}  // namespace skycube
