#include "service/cube_rebuilder.h"

#include <algorithm>
#include <exception>
#include <utility>

#include "common/fault_injection.h"
#include "common/macros.h"
#include "common/rng.h"

namespace skycube {

namespace {

/// The classic rebuild job: produce the next cube, swap it into the
/// service. A null cube inside an OK result is a failure — it must never
/// reach Reload.
CubeRebuilder::Job MakeReloadJob(SkycubeService* service,
                                 CubeRebuilder::Builder builder) {
  SKYCUBE_CHECK_MSG(service != nullptr, "CubeRebuilder needs a service");
  SKYCUBE_CHECK_MSG(builder != nullptr, "CubeRebuilder needs a builder");
  return [service, builder = std::move(builder)]() -> Status {
    auto result = builder();
    if (!result.ok()) return result.status();
    if (result.value() == nullptr) {
      return Status::Internal("builder returned a null cube");
    }
    service->Reload(std::move(result).value());
    return Status::Ok();
  };
}

}  // namespace

CubeRebuilder::CubeRebuilder(Job job, CubeRebuilderOptions options)
    : job_(std::move(job)),
      options_(options),
      jitter_state_(options.jitter_seed) {
  SKYCUBE_CHECK_MSG(job_ != nullptr, "CubeRebuilder needs a job");
  worker_ = std::thread([this] { WorkerLoop(); });
}

CubeRebuilder::CubeRebuilder(SkycubeService* service, Builder builder,
                             CubeRebuilderOptions options)
    : CubeRebuilder(MakeReloadJob(service, std::move(builder)), options) {}

CubeRebuilder::~CubeRebuilder() {
  {
    MutexLock lock(&mu_);
    shutting_down_ = true;
  }
  cv_.NotifyAll();
  worker_.join();
}

void CubeRebuilder::TriggerRebuild() {
  {
    MutexLock lock(&mu_);
    trigger_pending_ = true;
    stats_.idle = false;
  }
  cv_.NotifyAll();
}

bool CubeRebuilder::WaitUntilIdle(std::chrono::milliseconds timeout) {
  const auto give_up = std::chrono::steady_clock::now() + timeout;
  MutexLock lock(&mu_);
  while (trigger_pending_ || building_) {
    if (!idle_cv_.WaitUntil(&mu_, give_up) &&
        (trigger_pending_ || building_)) {
      return false;  // timed out still busy
    }
  }
  return true;
}

CubeRebuilderStats CubeRebuilder::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

Status CubeRebuilder::RunJob() {
  if (SKYCUBE_FAULT_POINT("rebuilder.build")) {
    return Status::Unavailable("fault injection: rebuilder.build");
  }
  // Jobs load files and allocate large structures — contain anything they
  // throw so a bad refresh can never unwind through the worker thread.
  try {
    return job_();
  } catch (const std::exception& e) {
    return Status::Internal(std::string("job threw: ") + e.what());
  } catch (...) {
    return Status::Internal("job threw an unknown exception");
  }
}

std::chrono::milliseconds CubeRebuilder::NextBackoffLocked(
    int consecutive_failures) {
  double backoff = static_cast<double>(options_.initial_backoff.count());
  for (int i = 1; i < consecutive_failures; ++i) {
    backoff *= options_.backoff_multiplier;
    if (backoff >= static_cast<double>(options_.max_backoff.count())) break;
  }
  backoff =
      std::min(backoff, static_cast<double>(options_.max_backoff.count()));
  double factor = 1.0;
  if (options_.jitter > 0.0) {
    Rng rng(jitter_state_++);
    factor = 1.0 + options_.jitter * (2.0 * rng.NextDouble() - 1.0);
  }
  const auto millis = static_cast<int64_t>(backoff * factor);
  return std::chrono::milliseconds(std::max<int64_t>(millis, 1));
}

void CubeRebuilder::WorkerLoop() {
  mu_.Lock();
  while (!shutting_down_) {
    while (!trigger_pending_ && !shutting_down_) cv_.Wait(&mu_);
    if (shutting_down_) break;
    trigger_pending_ = false;
    building_ = true;
    int consecutive_failures = 0;
    for (;;) {
      ++stats_.builds_attempted;
      mu_.Unlock();
      // The job (build + swap) runs unlocked: TriggerRebuild and stats()
      // must never block behind a slow builder.
      const Status status = RunJob();
      mu_.Lock();
      if (status.ok()) {
        ++stats_.builds_succeeded;
        stats_.last_backoff_millis = 0;
        break;
      }
      ++stats_.builds_failed;
      ++consecutive_failures;
      if (options_.max_attempts > 0 &&
          consecutive_failures >= options_.max_attempts) {
        ++stats_.gave_up;
        stats_.last_backoff_millis = 0;
        break;
      }
      const auto backoff = NextBackoffLocked(consecutive_failures);
      stats_.last_backoff_millis = backoff.count();
      // Backoff sleep, interruptible by shutdown. A new trigger does NOT
      // shorten the sleep: the pending retry already covers it (coalescing).
      const auto wake = std::chrono::steady_clock::now() + backoff;
      while (!shutting_down_ && cv_.WaitUntil(&mu_, wake)) {
        // Notified (or spurious) before the timeout: keep sleeping unless
        // shutdown was requested.
      }
      if (shutting_down_) break;
    }
    building_ = false;
    if (!trigger_pending_) stats_.idle = true;
    idle_cv_.NotifyAll();
  }
  mu_.Unlock();
}

}  // namespace skycube
