#include "service/window_expiry.h"

#include <chrono>
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

/// Retry behavior of a failed pass: the CubeRebuilder defaults.
constexpr CubeRebuilderOptions kPassRetry{};

}  // namespace

WindowExpiry::WindowExpiry(SkycubeService* service,
                           WindowExpiryOptions options, Clock clock)
    : service_(service),
      options_(options),
      clock_(clock ? std::move(clock) : Clock(SystemNowMs)) {
  SKYCUBE_CHECK_MSG(service_ != nullptr, "WindowExpiry needs a service");
  runner_ = std::make_unique<CubeRebuilder>([this] { return RunPass(); },
                                            kPassRetry);
  if (options_.window_ms > 0 && options_.interval.count() > 0) {
    timer_ = std::thread([this] { TimerLoop(); });
  }
}

WindowExpiry::~WindowExpiry() {
  {
    MutexLock lock(&mu_);
    shutting_down_ = true;
  }
  cv_.NotifyAll();
  if (timer_.joinable()) timer_.join();
  runner_.reset();  // joins the pass worker
}

void WindowExpiry::TickAt(uint64_t cutoff_ms) {
  // Monotone cutoffs: the window only slides forward, and a coalesced pass
  // must never run with an older cutoff than one already requested.
  uint64_t current = cutoff_ms_.load(std::memory_order_relaxed);
  while (cutoff_ms > current && !cutoff_ms_.compare_exchange_weak(
                                    current, cutoff_ms,
                                    std::memory_order_relaxed)) {
  }
  {
    MutexLock lock(&mu_);
    ++stats_.ticks;
  }
  runner_->TriggerRebuild();
}

bool WindowExpiry::WaitUntilIdle(std::chrono::milliseconds timeout) {
  return runner_->WaitUntilIdle(timeout);
}

WindowExpiryStats WindowExpiry::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

Status WindowExpiry::RunPass() {
  const uint64_t cutoff = cutoff_ms_.load(std::memory_order_relaxed);
  if (cutoff == 0) return Status::Ok();  // nothing requested yet
  Result<uint64_t> expired = service_->ApplyExpiry(cutoff);
  MutexLock lock(&mu_);
  if (!expired.ok()) {
    ++stats_.passes_failed;
    return expired.status();
  }
  ++stats_.passes_ok;
  stats_.rows_expired += expired.value();
  stats_.last_cutoff_ms = cutoff;
  return Status::Ok();
}

void WindowExpiry::TimerLoop() {
  MutexLock lock(&mu_);
  while (!shutting_down_) {
    const auto wake = std::chrono::steady_clock::now() + options_.interval;
    while (!shutting_down_ && cv_.WaitUntil(&mu_, wake)) {
      // Notified (or spurious) before the period elapsed: keep waiting
      // unless shutdown was requested.
    }
    if (shutting_down_) break;
    const uint64_t now = clock_();
    if (now <= options_.window_ms) continue;  // window covers all of time
    const uint64_t cutoff = now - options_.window_ms;
    // Inline TickAt minus the lock (already held for stats_).
    uint64_t current = cutoff_ms_.load(std::memory_order_relaxed);
    while (cutoff > current && !cutoff_ms_.compare_exchange_weak(
                                   current, cutoff,
                                   std::memory_order_relaxed)) {
    }
    ++stats_.ticks;
    runner_->TriggerRebuild();
  }
}

}  // namespace skycube
