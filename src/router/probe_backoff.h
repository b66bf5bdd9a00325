// ProbeBackoff: the down-shard probing schedule of the router backends
// (docs/SHARDING.md, "Failover").
//
// A down-marked shard used to be probed every fixed retry_after_millis; a
// long outage then costs one doomed connect per interval per backend, and
// a fleet of routers probes in lock-step. This class replaces the fixed
// interval with jittered exponential backoff: delays start at
// `initial_millis`, grow by `multiplier` up to `max_millis`, each sleep is
// scaled by U[1 - jitter, 1 + jitter] to decorrelate probe storms, and a
// single success fully resets the schedule.
//
// Time is injected: every mutation takes the caller's `now`, so tests step
// a fake clock through the schedule deterministically (the jitter RNG is
// seeded, also deterministic). Not thread-safe — the owning backend guards
// its instance with its own mutex.
#ifndef SKYCUBE_ROUTER_PROBE_BACKOFF_H_
#define SKYCUBE_ROUTER_PROBE_BACKOFF_H_

#include <algorithm>
#include <chrono>
#include <cstdint>

#include "common/rng.h"

namespace skycube::router {

/// Jittered exponential backoff between probes of a down shard.
struct ProbeBackoffOptions {
  int64_t initial_millis = 100;
  int64_t max_millis = 30000;
  double multiplier = 2.0;
  /// Actual delay = base * U[1 - jitter, 1 + jitter].
  double jitter = 0.2;
  /// Seed for the jitter RNG (deterministic tests).
  uint64_t jitter_seed = 42;
};

class ProbeBackoff {
 public:
  using Clock = std::chrono::steady_clock;
  using TimePoint = Clock::time_point;

  explicit ProbeBackoff(ProbeBackoffOptions options = {})
      : options_(options),
        delay_millis_(options.initial_millis),
        jitter_state_(options.jitter_seed) {}

  /// Records a failed call at `now`: grows the base delay one exponential
  /// step (capped) and schedules the next probe a jittered delay out.
  void NoteFailure(TimePoint now) {
    ++consecutive_failures_;
    double base = static_cast<double>(options_.initial_millis);
    for (int i = 1; i < consecutive_failures_; ++i) {
      base *= options_.multiplier;
      if (base >= static_cast<double>(options_.max_millis)) break;
    }
    base = std::min(base, static_cast<double>(options_.max_millis));
    delay_millis_ = Jittered(base);
    next_probe_ = now + std::chrono::milliseconds(delay_millis_);
  }

  /// A success fully revives the shard: the schedule resets to the initial
  /// delay and the next failure starts the ramp from scratch.
  void Reset() {
    consecutive_failures_ = 0;
    delay_millis_ = options_.initial_millis;
    next_probe_ = TimePoint::min();
  }

  /// True when a probe is due at `now`.
  bool ProbeDue(TimePoint now) const { return now >= next_probe_; }

  /// Claims the due probe: pushes the next one out by the current delay
  /// (without growing it — growth belongs to NoteFailure) so exactly one
  /// concurrent caller lets a probe through per interval.
  void ClaimProbe(TimePoint now) {
    next_probe_ = now + std::chrono::milliseconds(Jittered(
                            static_cast<double>(delay_millis_)));
  }

  int consecutive_failures() const { return consecutive_failures_; }
  int64_t current_delay_millis() const { return delay_millis_; }
  TimePoint next_probe() const { return next_probe_; }

 private:
  int64_t Jittered(double base) {
    double factor = 1.0;
    if (options_.jitter > 0.0) {
      Rng rng(jitter_state_++);
      factor = 1.0 + options_.jitter * (2.0 * rng.NextDouble() - 1.0);
    }
    return std::max<int64_t>(static_cast<int64_t>(base * factor), 1);
  }

  ProbeBackoffOptions options_;
  int consecutive_failures_ = 0;
  int64_t delay_millis_;
  uint64_t jitter_state_;
  TimePoint next_probe_ = TimePoint::min();
};

}  // namespace skycube::router

#endif  // SKYCUBE_ROUTER_PROBE_BACKOFF_H_
