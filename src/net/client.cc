#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

namespace skycube::net {
namespace {

/// Ceiling on accepted response payloads (FrameDecoder limit).
constexpr size_t kMaxResponsePayload = kDefaultMaxPayload;

/// poll(2) timeout for a deadline: -1 = wait forever, else whole
/// milliseconds rounded up so a 0.5ms budget still polls once.
int PollMillis(Deadline deadline) {
  if (deadline.infinite()) return -1;
  const auto remaining = deadline.remaining();
  if (remaining.count() <= 0) return 0;
  const auto millis =
      std::chrono::duration_cast<std::chrono::milliseconds>(remaining) +
      std::chrono::milliseconds(1);
  constexpr int64_t kMaxPoll = 1 << 30;
  return static_cast<int>(std::min<int64_t>(millis.count(), kMaxPoll));
}

}  // namespace

NetClient::~NetClient() { Close(); }

NetClient::NetClient(NetClient&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      decoder_(std::move(other.decoder_)),
      pending_(std::move(other.pending_)),
      pending_ready_(std::exchange(other.pending_ready_, false)) {}

NetClient& NetClient::operator=(NetClient&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
    decoder_ = std::move(other.decoder_);
    pending_ = std::move(other.pending_);
    pending_ready_ = std::exchange(other.pending_ready_, false);
  }
  return *this;
}

Status NetClient::Connect(const std::string& host, uint16_t port) {
  Close();
  decoder_ = FrameDecoder(kMaxResponsePayload);
  pending_.clear();
  pending_ready_ = false;

  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    Close();
    return Status::InvalidArgument("not an IPv4 address: " + host);
  }
  int rc;
  do {
    rc = ::connect(fd_, reinterpret_cast<struct sockaddr*>(&addr),
                   sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    const int err = errno;
    Close();
    return Status::Unavailable("connect " + host + ":" +
                               std::to_string(port) + ": " +
                               std::strerror(err));
  }
  int one = 1;
  (void)::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Status::Ok();
}

void NetClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status NetClient::Send(std::string_view bytes) {
  if (fd_ < 0) return Status::Unavailable("not connected");
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      return Status::Unavailable(std::string("send: ") +
                                 std::strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Status NetClient::SendRequest(const WireRequest& request) {
  return Send(EncodeRequest(request));
}

NetClient::Got NetClient::TryDecode(std::string* error) {
  const auto next = decoder_.Take(&pending_, error);
  switch (next) {
    case FrameDecoder::Next::kFrame:
      pending_ready_ = true;
      return Got::kFrame;
    case FrameDecoder::Next::kNeedMore:
      return Got::kTimeout;  // internal marker: no complete frame yet
    case FrameDecoder::Next::kError:
    default:
      return Got::kError;
  }
}

bool NetClient::HasPendingFrame() {
  if (pending_ready_) return true;
  std::string error;
  return TryDecode(&error) == Got::kFrame;
}

NetClient::Got NetClient::ReadFrame(std::string* payload, Deadline deadline,
                                    std::string* error) {
  for (;;) {
    if (pending_ready_) {
      *payload = std::move(pending_);
      pending_.clear();
      pending_ready_ = false;
      return Got::kFrame;
    }
    const Got decoded = TryDecode(error);
    if (decoded == Got::kFrame) continue;  // hand out via pending_ above
    if (decoded == Got::kError) return Got::kError;

    if (fd_ < 0) {
      *error = "not connected";
      return Got::kError;
    }
    struct pollfd pfd = {};
    pfd.fd = fd_;
    pfd.events = POLLIN;
    const int rc = ::poll(&pfd, 1, PollMillis(deadline));
    if (rc < 0) {
      if (errno == EINTR) continue;
      *error = std::string("poll: ") + std::strerror(errno);
      return Got::kError;
    }
    if (rc == 0) return Got::kTimeout;

    char buffer[1 << 16];
    const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
    if (n == 0) return Got::kEof;
    if (n < 0) {
      if (errno == EINTR) continue;
      *error = std::string("recv: ") + std::strerror(errno);
      return Got::kError;
    }
    decoder_.Append(buffer, static_cast<size_t>(n));
  }
}

NetClient::Got NetClient::ReadResponse(WireResponse* response,
                                       Deadline deadline, std::string* error,
                                       WireGoAway* goaway) {
  std::string payload;
  const Got got = ReadFrame(&payload, deadline, error);
  if (got != Got::kFrame) return got;
  const Opcode op = PayloadOpcode(payload);
  if (op == Opcode::kGoAway) {
    Result<WireGoAway> decoded = ParseGoAway(payload);
    if (!decoded.ok()) {
      *error = decoded.status().message();
      return Got::kError;
    }
    if (goaway != nullptr) *goaway = decoded.value();
    *error = "goaway: " + decoded.value().reason;
    return Got::kGoAway;
  }
  if (op != Opcode::kResponse) {
    *error = std::string("unexpected ") + OpcodeName(op) + " frame";
    return Got::kError;
  }
  Result<WireResponse> decoded = ParseResponse(payload);
  if (!decoded.ok()) {
    *error = decoded.status().message();
    return Got::kError;
  }
  *response = std::move(decoded.value());
  return Got::kFrame;
}

int NetClient::WaitAnyReadable(const std::vector<NetClient*>& clients,
                               Deadline deadline) {
  for (;;) {
    std::vector<struct pollfd> pfds;
    std::vector<int> index_of;
    pfds.reserve(clients.size());
    for (size_t i = 0; i < clients.size(); ++i) {
      NetClient* client = clients[i];
      if (client == nullptr) continue;
      // A buffered frame makes the client ready without a syscall.
      if (client->HasPendingFrame()) return static_cast<int>(i);
      if (!client->connected()) continue;
      struct pollfd pfd = {};
      pfd.fd = client->fd();
      pfd.events = POLLIN;
      pfds.push_back(pfd);
      index_of.push_back(static_cast<int>(i));
    }
    if (pfds.empty()) return -1;
    const int rc = ::poll(pfds.data(), pfds.size(), PollMillis(deadline));
    if (rc < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (rc == 0) return -1;
    for (size_t i = 0; i < pfds.size(); ++i) {
      if ((pfds[i].revents & (POLLIN | POLLERR | POLLHUP)) != 0) {
        return index_of[i];
      }
    }
    // Spurious wakeup; re-poll against the same deadline.
  }
}

}  // namespace skycube::net
