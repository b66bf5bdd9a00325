// Wall-clock timing helper for the experiment harnesses.
#ifndef SKYCUBE_COMMON_TIMER_H_
#define SKYCUBE_COMMON_TIMER_H_

#include <chrono>

namespace skycube {

/// Measures elapsed wall time from construction or the last Reset().
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  void Reset() { start_ = Clock::now(); }

  /// Elapsed seconds since construction/Reset.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace skycube

#endif  // SKYCUBE_COMMON_TIMER_H_
