#include "net/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace skycube::net {
namespace {

Status Errno(const char* what) {
  return Status::Internal(std::string(what) + ": " +
                          std::strerror(errno));
}

}  // namespace

EventLoop::~EventLoop() {
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

Status EventLoop::Init() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return Errno("epoll_create1");
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) return Errno("eventfd");
  struct epoll_event event = {};
  event.events = EPOLLIN;
  event.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &event) < 0) {
    return Errno("epoll_ctl(wake)");
  }
  return Status::Ok();
}

Status EventLoop::Add(int fd, uint32_t events, IoCallback callback) {
  struct epoll_event event = {};
  event.events = events;
  event.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event) < 0) {
    return Errno("epoll_ctl(add)");
  }
  callbacks_[fd] = std::move(callback);
  return Status::Ok();
}

Status EventLoop::Modify(int fd, uint32_t events) {
  struct epoll_event event = {};
  event.events = events;
  event.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &event) < 0) {
    return Errno("epoll_ctl(mod)");
  }
  return Status::Ok();
}

void EventLoop::Remove(int fd) {
  // Failure (fd already closed, never added) is benign: the goal state —
  // "not registered" — already holds.
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  callbacks_.erase(fd);
}

void EventLoop::Run(const std::function<void()>& on_tick, int tick_millis) {
  constexpr int kMaxEvents = 256;
  struct epoll_event events[kMaxEvents];
  while (!stop_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, tick_millis);
    if (n < 0) {
      if (errno == EINTR) {
        if (on_tick) on_tick();
        continue;
      }
      break;  // unrecoverable epoll failure: stop serving
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        uint64_t drained = 0;
        // Transient EAGAIN (already drained) is fine; the wakeup happened.
        (void)::read(wake_fd_, &drained, sizeof(drained));
        MutexLock lock(&mu_);
        wake_armed_ = false;
        continue;
      }
      // The callback may have been removed by an earlier event's handler in
      // this same batch (connection close); skip stale events.
      auto it = callbacks_.find(fd);
      if (it != callbacks_.end()) it->second(events[i].events);
    }
    DrainPosted();
    if (on_tick) on_tick();
  }
  DrainPosted();  // tasks posted alongside Stop() still run
  stop_.store(false, std::memory_order_release);  // allow a future Run()
}

void EventLoop::Stop() {
  stop_.store(true, std::memory_order_release);
  Wake();
}

void EventLoop::Post(std::function<void()> task) {
  bool need_wake = false;
  {
    MutexLock lock(&mu_);
    posted_.push_back(std::move(task));
    if (!wake_armed_) {
      wake_armed_ = true;
      need_wake = true;
    }
  }
  if (need_wake) Wake();
}

void EventLoop::Wake() {
  const uint64_t one = 1;
  // An EAGAIN means the counter is already non-zero — the loop will wake.
  (void)::write(wake_fd_, &one, sizeof(one));
}

void EventLoop::DrainPosted() {
  std::vector<std::function<void()>> tasks;
  {
    MutexLock lock(&mu_);
    tasks.swap(posted_);
  }
  for (auto& task : tasks) task();
}

}  // namespace skycube::net
