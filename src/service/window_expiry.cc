#include "service/window_expiry.h"

#include <chrono>
#include <exception>
#include <string>
#include <utility>

#include "common/macros.h"

namespace skycube {

namespace {

uint64_t SystemNowMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

}  // namespace

WindowExpiry::WindowExpiry(SkycubeService* service,
                           WindowExpiryOptions options, Clock clock)
    : service_(service),
      options_(options),
      clock_(clock ? std::move(clock) : Clock(SystemNowMs)) {
  SKYCUBE_CHECK_MSG(service_ != nullptr, "WindowExpiry needs a service");
  thread_ = std::thread([this] { Loop(); });
}

WindowExpiry::~WindowExpiry() {
  {
    MutexLock lock(&mu_);
    shutting_down_ = true;
  }
  wake_cv_.NotifyAll();
  thread_.join();
}

void WindowExpiry::TickAt(uint64_t cutoff_ms) {
  {
    MutexLock lock(&mu_);
    TickLocked(cutoff_ms);
  }
  wake_cv_.NotifyAll();
}

bool WindowExpiry::WaitUntilIdle(std::chrono::milliseconds timeout) {
  const auto give_up = std::chrono::steady_clock::now() + timeout;
  MutexLock lock(&mu_);
  while (pending_ || running_) {
    if (!idle_cv_.WaitUntil(&mu_, give_up) && (pending_ || running_)) {
      return false;  // timed out still busy
    }
  }
  return true;
}

WindowExpiryStats WindowExpiry::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

void WindowExpiry::TickLocked(uint64_t cutoff_ms) {
  ++stats_.ticks;
  // The window only slides forward: a folded pass must never run at an
  // older cutoff than one already requested.
  if (cutoff_ms > cutoff_ms_) cutoff_ms_ = cutoff_ms;
  if (cutoff_ms_ > 0) pending_ = true;  // a zero cutoff expires nothing
}

Result<uint64_t> WindowExpiry::RunPass(uint64_t cutoff_ms) {
  // A handler may throw (allocation, a bad refresh): contain it so a pass
  // can never unwind through the pass thread.
  try {
    return service_->ApplyExpiry(cutoff_ms);
  } catch (const std::exception& e) {
    return Status::Internal(std::string("expiry pass threw: ") + e.what());
  } catch (...) {
    return Status::Internal("expiry pass threw an unknown exception");
  }
}

void WindowExpiry::Loop() {
  const bool timed = options_.window_ms > 0 && options_.interval.count() > 0;
  auto next_tick = std::chrono::steady_clock::now() + options_.interval;
  mu_.Lock();
  while (!shutting_down_) {
    if (timed && std::chrono::steady_clock::now() >= next_tick) {
      next_tick = std::chrono::steady_clock::now() + options_.interval;
      mu_.Unlock();
      const uint64_t now = clock_();  // caller-supplied: called unlocked
      mu_.Lock();
      if (now > options_.window_ms) TickLocked(now - options_.window_ms);
      continue;  // re-check shutdown before starting a pass
    }
    if (!pending_) {
      if (timed) {
        wake_cv_.WaitUntil(&mu_, next_tick);
      } else {
        wake_cv_.Wait(&mu_);
      }
      continue;  // re-check shutdown, the timer and pending_
    }
    pending_ = false;
    running_ = true;
    const uint64_t cutoff = cutoff_ms_;
    // The pass runs unlocked: TickAt and stats() never wait behind
    // ApplyExpiry. Ticks landing meanwhile set pending_ again and fold
    // into one follow-up pass at the furthest cutoff.
    mu_.Unlock();
    const Result<uint64_t> expired = RunPass(cutoff);
    mu_.Lock();
    running_ = false;
    if (expired.ok()) {
      ++stats_.passes_ok;
      stats_.rows_expired += expired.value();
      stats_.last_cutoff_ms = cutoff;
    } else {
      ++stats_.passes_failed;
    }
    idle_cv_.NotifyAll();
  }
  mu_.Unlock();
}

}  // namespace skycube
