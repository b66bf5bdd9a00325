// A single-threaded non-blocking epoll event loop — the reactor under
// NetServer (docs/NET.md).
//
// Threading contract:
//  - Run() executes on exactly one thread (the "loop thread"); every
//    registered IoCallback, posted task, and tick callback runs there, so
//    connection state needs no locks;
//  - Post() and Stop() are safe from any thread: they enqueue under an
//    annotated Mutex and wake the loop through an eventfd (never a blocking
//    write on a data fd — the loop thread must not block on I/O);
//  - Add/Modify/Remove are loop-thread-only once Run() has started (the
//    caller may also use them before Run(), during setup).
//
// Callbacks must tolerate spurious invocation: when a callback closes fd A
// and a later event in the same epoll_wait batch targets a fresh accept
// that reused A's number, that new callback can observe an event it did not
// ask for. Non-blocking handlers simply see EAGAIN and return.
#ifndef SKYCUBE_NET_EVENT_LOOP_H_
#define SKYCUBE_NET_EVENT_LOOP_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace skycube::net {

class EventLoop {
 public:
  /// `events` is the epoll event mask that fired (EPOLLIN | EPOLLOUT | ...).
  using IoCallback = std::function<void(uint32_t events)>;

  EventLoop() = default;
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Creates the epoll instance and the wakeup eventfd. Must succeed before
  /// anything else is called.
  Status Init();

  /// Registers `fd` for `events`; the callback fires on the loop thread.
  Status Add(int fd, uint32_t events, IoCallback callback);
  /// Changes the event mask of a registered fd.
  Status Modify(int fd, uint32_t events);
  /// Deregisters `fd` (does not close it). Safe on an fd never added.
  void Remove(int fd);

  /// Runs the loop on the calling thread until Stop(). `on_tick`, when set,
  /// runs after every wakeup and at least every `tick_millis` (and on
  /// EINTR, so a signal handler setting a flag is observed promptly);
  /// tick_millis < 0 blocks indefinitely between events.
  void Run(const std::function<void()>& on_tick = nullptr,
           int tick_millis = -1);

  /// Requests Run() to return once the current dispatch round finishes.
  /// Thread-safe, idempotent.
  void Stop();

  /// Enqueues `task` to run on the loop thread (after the current dispatch
  /// round). Thread-safe; the loop is woken if blocked in epoll_wait. Tasks
  /// posted after Stop() still run before Run() returns.
  void Post(std::function<void()> task) EXCLUDES(mu_);

 private:
  void Wake();
  /// Swaps out and runs every posted task.
  void DrainPosted() EXCLUDES(mu_);

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::atomic<bool> stop_{false};

  /// Registered callbacks; loop-thread-only (plus pre-Run setup).
  std::unordered_map<int, IoCallback> callbacks_;

  Mutex mu_;
  std::vector<std::function<void()>> posted_ GUARDED_BY(mu_);
  /// True while a wakeup byte is pending on wake_fd_ — collapses redundant
  /// eventfd writes from Post storms.
  bool wake_armed_ GUARDED_BY(mu_) = false;
};

}  // namespace skycube::net

#endif  // SKYCUBE_NET_EVENT_LOOP_H_
