// Blocking client for the skycube binary protocol (docs/NET.md).
//
// One implementation of connect/send/recv + FrameDecoder shared by the
// e2e harnesses (tools/skycube_nettest, tools/skycube_shardtest), the
// shard-scaling bench, and the scatter–gather router's remote shard
// backend — replacing the hand-rolled per-tool clients. All raw socket
// syscalls in the tree stay confined to src/net/ (lint R2); callers above
// this layer speak frames and WireRequest/WireResponse only.
//
// A NetClient is single-owner: one thread uses it at a time (the router
// gives each in-flight call its own pooled connection). Reads are
// deadline-bounded via poll(2); the socket itself stays blocking, and a
// read only touches it after poll reports data, so no call blocks past
// its deadline. Decoded-but-unconsumed frames are buffered internally —
// WaitAnyReadable reports such a client as ready without touching its fd,
// which is what lets the router race a hedged duplicate against the
// original without losing frames.
#ifndef SKYCUBE_NET_CLIENT_H_
#define SKYCUBE_NET_CLIENT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "net/protocol.h"

namespace skycube::net {

class NetClient {
 public:
  NetClient() = default;
  ~NetClient();

  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;
  NetClient(NetClient&& other) noexcept;
  NetClient& operator=(NetClient&& other) noexcept;

  /// Connects to host:port (host: IPv4 literal, e.g. "127.0.0.1").
  /// Replaces any previous connection and resets the frame decoder.
  Status Connect(const std::string& host, uint16_t port);

  bool connected() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void Close();

  /// Writes all of `bytes` (a pipelined burst of frames, typically).
  Status Send(std::string_view bytes);
  /// Encodes + sends one request frame.
  Status SendRequest(const WireRequest& request);

  enum class Got {
    kFrame,    // *payload holds one verified payload (any opcode)
    kGoAway,   // ReadResponse only: the server abandoned the stream
    kEof,      // clean close
    kTimeout,  // deadline expired with no complete frame
    kError,    // socket or framing error (*error says why)
  };

  /// Next verified frame payload of any opcode, waiting up to `deadline`.
  Got ReadFrame(std::string* payload, Deadline deadline, std::string* error);

  /// Next frame parsed as a kResponse. A kGoAway frame answers kGoAway
  /// (with the decoded frame in *goaway when non-null and *error carrying
  /// the reason); any other non-response opcode is kError.
  Got ReadResponse(WireResponse* response, Deadline deadline,
                   std::string* error, WireGoAway* goaway = nullptr);

  /// True when a complete frame is already buffered — the next ReadFrame
  /// returns without touching the socket.
  bool HasPendingFrame();

  /// Waits until any client has a frame pending or readable socket data,
  /// up to `deadline`. Returns the index of a ready client, or -1 on
  /// timeout / all-disconnected. Buffered frames win without a syscall.
  static int WaitAnyReadable(const std::vector<NetClient*>& clients,
                             Deadline deadline);

 private:
  /// Tries to decode one frame out of the receive buffer into pending_.
  /// Returns kFrame/kNeedMore-as-kTimeout-shaped false/kError semantics
  /// via Got; only kFrame sets pending_ready_.
  Got TryDecode(std::string* error);

  int fd_ = -1;
  FrameDecoder decoder_{kDefaultMaxPayload};
  std::string pending_;
  bool pending_ready_ = false;
};

}  // namespace skycube::net

#endif  // SKYCUBE_NET_CLIENT_H_
