// WindowExpiry: sliding-window retention as a background pass.
//
// One thread owned by the WindowExpiry runs every pass. It wakes on a
// TickAt, on each `interval` when window_ms > 0 (the cutoff is then
// clock() - window_ms), or on shutdown. Cutoffs only move forward, and
// ticks that land while a pass runs fold into one follow-up pass at the
// furthest cutoff. A pass that fails (WAL error, a throwing handler) is
// counted and retried by the next timer tick or TickAt, while the service
// keeps answering from its last good snapshot.
//
// The pass itself is SkycubeService::ApplyExpiry: it serializes with
// inserts and deletes under the service's ingest mutex, logs one delete
// record per expiring row (durable handlers), tombstones them in one
// batch, and publishes the post-expiry snapshot. Rows with timestamp 0
// (bootstrap rows, and inserts made without one) never expire.
#ifndef SKYCUBE_SERVICE_WINDOW_EXPIRY_H_
#define SKYCUBE_SERVICE_WINDOW_EXPIRY_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "service/service.h"

namespace skycube {

/// Construction knobs for a WindowExpiry pass.
struct WindowExpiryOptions {
  /// Retention window: rows whose ingest timestamp is older than
  /// now - window_ms are expired. 0 disables the timer (TickAt still
  /// works, for tests and manual REPL passes).
  uint64_t window_ms = 0;
  /// Timer period between automatic passes.
  std::chrono::milliseconds interval{1000};
};

/// Counters of a WindowExpiry (plain data, copyable).
struct WindowExpiryStats {
  uint64_t ticks = 0;          // timer firings + manual TickAt calls
  uint64_t passes_ok = 0;      // ApplyExpiry calls that returned OK
  uint64_t passes_failed = 0;  // ApplyExpiry calls that failed or threw
  uint64_t rows_expired = 0;   // cumulative rows tombstoned by this timer
  uint64_t last_cutoff_ms = 0;
};

class WindowExpiry {
 public:
  /// Injectable wall clock (milliseconds since epoch) so tests control
  /// time. The default reads the system clock.
  using Clock = std::function<uint64_t()>;

  /// `service` must outlive this object and have an insert handler
  /// attached. The pass thread starts here; its timer runs only when
  /// window_ms > 0 and interval > 0.
  WindowExpiry(SkycubeService* service, WindowExpiryOptions options,
               Clock clock = {});

  /// Stops and joins the pass thread; a pass in flight finishes first.
  ~WindowExpiry();

  WindowExpiry(const WindowExpiry&) = delete;
  WindowExpiry& operator=(const WindowExpiry&) = delete;

  /// Schedules one pass with an explicit cutoff (bypasses the clock and
  /// window). Returns immediately; the pass runs on the pass thread.
  void TickAt(uint64_t cutoff_ms) EXCLUDES(mu_);

  /// Blocks until no pass is running or pending, or until `timeout`.
  /// Returns true iff the thread went idle in time.
  bool WaitUntilIdle(std::chrono::milliseconds timeout) EXCLUDES(mu_);

  WindowExpiryStats stats() const EXCLUDES(mu_);

 private:
  /// The pass thread's body: waits for a tick, the timer or shutdown, and
  /// runs each pass with mu_ released.
  void Loop() EXCLUDES(mu_);
  /// Counts one tick and raises the pending cutoff to `cutoff_ms`.
  void TickLocked(uint64_t cutoff_ms) REQUIRES(mu_);
  /// One ApplyExpiry call; a thrown exception becomes an error.
  Result<uint64_t> RunPass(uint64_t cutoff_ms);

  SkycubeService* service_;
  WindowExpiryOptions options_;
  Clock clock_;

  mutable Mutex mu_;
  CondVar wake_cv_;  // wakes the pass thread (tick, shutdown)
  CondVar idle_cv_;  // wakes WaitUntilIdle waiters
  /// Furthest requested cutoff; the next pass runs at it, so folded ticks
  /// lose nothing.
  uint64_t cutoff_ms_ GUARDED_BY(mu_) = 0;
  bool pending_ GUARDED_BY(mu_) = false;
  bool running_ GUARDED_BY(mu_) = false;
  bool shutting_down_ GUARDED_BY(mu_) = false;
  WindowExpiryStats stats_ GUARDED_BY(mu_);

  std::thread thread_;  // last: it uses every member above
};

}  // namespace skycube

#endif  // SKYCUBE_SERVICE_WINDOW_EXPIRY_H_
