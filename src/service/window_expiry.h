// WindowExpiry: sliding-window retention as a background pass.
//
// A timer thread computes the expiry cutoff (now - window_ms) every
// `interval` and triggers one expiry pass through a CubeRebuilder worker —
// reusing its coalescing and backoff machinery, so a pass that fails (WAL
// error, fault injection) retries with exponential backoff while the
// service keeps answering from the last good snapshot, and ticks arriving
// while a pass runs fold into a single follow-up pass.
//
// The pass itself is SkycubeService::ApplyExpiry: it serializes with
// inserts and deletes under the service's ingest mutex, logs one delete
// record per expiring row (durable handlers), tombstones them in one
// batch, and publishes the post-expiry snapshot. Rows with timestamp 0
// (bootstrap rows, and inserts made without one) never expire.
#ifndef SKYCUBE_SERVICE_WINDOW_EXPIRY_H_
#define SKYCUBE_SERVICE_WINDOW_EXPIRY_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>

#include "common/mutex.h"
#include "common/status.h"
#include "service/cube_rebuilder.h"
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
  uint64_t passes_failed = 0;  // ApplyExpiry calls that returned an error
  uint64_t rows_expired = 0;   // cumulative rows tombstoned by this timer
  uint64_t last_cutoff_ms = 0;
};

class WindowExpiry {
 public:
  /// Injectable wall clock (milliseconds since epoch) so tests control
  /// time. The default reads the system clock.
  using Clock = std::function<uint64_t()>;

  /// `service` must outlive this object and have an insert handler
  /// attached. The timer starts immediately when window_ms > 0.
  WindowExpiry(SkycubeService* service, WindowExpiryOptions options,
               Clock clock = {});

  /// Stops the timer and the worker; a pass in flight finishes.
  ~WindowExpiry();

  WindowExpiry(const WindowExpiry&) = delete;
  WindowExpiry& operator=(const WindowExpiry&) = delete;

  /// Schedules one pass with an explicit cutoff (bypasses the clock and
  /// window). Returns immediately; the pass runs on the worker.
  void TickAt(uint64_t cutoff_ms);

  /// Blocks until no pass is running or pending, or until `timeout`.
  bool WaitUntilIdle(std::chrono::milliseconds timeout);

  WindowExpiryStats stats() const;

 private:
  void TimerLoop();
  /// The CubeRebuilder job: one ApplyExpiry pass at the latest cutoff.
  Status RunPass();

  SkycubeService* service_;
  WindowExpiryOptions options_;
  Clock clock_;

  /// Latest requested cutoff; the coalesced pass always reads the freshest
  /// value, so folded ticks lose nothing.
  std::atomic<uint64_t> cutoff_ms_{0};

  mutable Mutex mu_;
  CondVar cv_;  // wakes the timer (shutdown)
  bool shutting_down_ GUARDED_BY(mu_) = false;
  WindowExpiryStats stats_ GUARDED_BY(mu_);

  /// Worker that runs the passes; constructed before timer_ so a tick can
  /// never observe a null runner.
  std::unique_ptr<CubeRebuilder> runner_;
  std::thread timer_;
};

}  // namespace skycube

#endif  // SKYCUBE_SERVICE_WINDOW_EXPIRY_H_
