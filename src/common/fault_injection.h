// Deterministic fault injection for robustness tests.
//
// Production and library code marks interesting failure sites with
//
//     if (SKYCUBE_FAULT_POINT("result_cache.lookup")) { ...fail path... }
//
// which compiles to the constant `false` (zero overhead, no registry
// reference) unless the build enables SKYCUBE_FAULT_INJECTION (CMake option
// of the same name; default follows SKYCUBE_BUILD_TESTS). With injection
// compiled in, a test arms a point by name:
//
//     FaultInjection::Instance().ArmFailure("serialization.load", 3);
//     FaultInjection::Instance().ArmDelay("service.compute_delay", 50);
//
// and the next `count` traversals of that point take the failure (or sleep)
// path. Unarmed points cost one relaxed atomic load. The registry is
// process-global and thread-safe; tests must Reset() what they arm.
//
// The wired points are catalogued in docs/ROBUSTNESS.md.
#ifndef SKYCUBE_COMMON_FAULT_INJECTION_H_
#define SKYCUBE_COMMON_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <unordered_map>

#include "common/mutex.h"
#include "common/thread_annotations.h"

#ifndef SKYCUBE_FAULT_INJECTION
#define SKYCUBE_FAULT_INJECTION 0
#endif

namespace skycube {

/// Process-global registry of named failure points. Always compiled (it is
/// tiny); whether call sites consult it is the compile-time decision.
class FaultInjection {
 public:
  static FaultInjection& Instance();

  /// True iff SKYCUBE_FAULT_POINT sites consult the registry in this build.
  static constexpr bool Enabled() { return SKYCUBE_FAULT_INJECTION != 0; }

  /// The next `count` hits of `point` report failure (count < 0: forever).
  void ArmFailure(const std::string& point, int count = 1) EXCLUDES(mu_);

  /// The next `count` hits of `point` sleep `delay_millis` before
  /// continuing normally (count < 0: forever). A point may be armed with
  /// both a delay and a failure; the delay applies first.
  void ArmDelay(const std::string& point, int delay_millis, int count = -1)
      EXCLUDES(mu_);

  /// Clears the armed state of one point (hit counts persist).
  void Disarm(const std::string& point) EXCLUDES(mu_);

  /// Clears every armed point and every hit count.
  void Reset() EXCLUDES(mu_);

  /// How many times `point` was traversed while present in the registry
  /// (i.e. since it was first armed; survives Disarm, cleared by Reset).
  uint64_t HitCount(const std::string& point) const EXCLUDES(mu_);

  /// Called by SKYCUBE_FAULT_POINT: applies an armed delay, then returns
  /// whether the armed failure fires. Fast path (nothing ever armed) is one
  /// relaxed atomic load.
  bool Hit(const char* point) EXCLUDES(mu_);

 private:
  struct Entry {
    int fail_remaining = 0;    // <0 = forever
    int delay_remaining = 0;   // <0 = forever
    int delay_millis = 0;
    uint64_t hits = 0;
  };

  FaultInjection() = default;

  mutable Mutex mu_;
  std::unordered_map<std::string, Entry> points_ GUARDED_BY(mu_);
  /// Mirror of points_.size(), readable without mu_ — the unarmed fast path.
  std::atomic<size_t> registered_points_{0};
};

}  // namespace skycube

#if SKYCUBE_FAULT_INJECTION
#define SKYCUBE_FAULT_POINT(point) \
  (::skycube::FaultInjection::Instance().Hit(point))
#else
#define SKYCUBE_FAULT_POINT(point) (false)
#endif

#endif  // SKYCUBE_COMMON_FAULT_INJECTION_H_
