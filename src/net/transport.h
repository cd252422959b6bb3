// Master-side transport abstraction for the distributed engine.
//
// The engine (ShardedGraphStore, Cluster, the dist detectors) speaks one
// request/response interface; what actually carries the RJNET001 frames is
// a backend chosen per deployment (ClusterConfig::transport):
//
//   simnet    net::SimNetwork (the default) — frames are byte-encoded and
//             pushed through a deterministic simulated network whose
//             per-link delay and bandwidth are the cluster's network-cost
//             model; seeded drop/duplicate/corrupt/reorder/partition
//             faults are opt-in, and every fault schedule is replayable
//             byte-for-byte.
//   socket    net::SocketTransport — real localhost TCP or UNIX-domain
//             connections to worker *processes* (net::FrameServer +
//             engine::ShardWorker at the far end).
//
// Call() is master-thread only, like ShardedGraphStore::FetchBatch: all
// retry, backoff, and failover decisions stay on the master in
// deterministic shard order, which is what makes detection over any
// backend bit-identical to the single-process pipeline.
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>

#include "net/frame.h"

namespace rejecto::net {

// Wire-level traffic counters, from the master's perspective. Embedded in
// engine::IoStats (the `wire` member) and summed field-wise so aggregation
// sites can't silently drop a counter.
struct TransportStats {
  std::uint64_t frames_sent = 0;      // master -> worker, intact on the wire
  std::uint64_t frames_received = 0;  // worker -> master, decoded intact
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t timeouts = 0;         // Call deadlines expired
  std::uint64_t reconnects = 0;       // socket: connections rebuilt
  std::uint64_t corrupt_frames = 0;   // frames discarded by CRC/decode
  std::uint64_t dropped_frames = 0;   // sim faults / failpoints ate a frame
  double busy_us = 0.0;               // time spent in Call (virtual for
                                      // simnet, wall-clock for socket)

  void Accumulate(const TransportStats& o) noexcept {
    frames_sent += o.frames_sent;
    frames_received += o.frames_received;
    bytes_sent += o.bytes_sent;
    bytes_received += o.bytes_received;
    timeouts += o.timeouts;
    reconnects += o.reconnects;
    corrupt_frames += o.corrupt_frames;
    dropped_frames += o.dropped_frames;
    busy_us += o.busy_us;
  }
};

enum class CallStatus : std::uint8_t {
  kOk,        // response decoded, request id matched
  kTimeout,   // no intact matching response before the deadline
  kPeerDead,  // the peer is unreachable and reconnecting failed
  kError,     // the exchange failed in a retryable way (poisoned stream)
};

const char* CallStatusName(CallStatus status) noexcept;

class Transport {
 public:
  // Serves one request at the peer end (in-process backends only). Must
  // echo the request's id into the response.
  using Handler = std::function<Message(const Message&)>;

  virtual ~Transport() = default;

  virtual std::uint32_t NumPeers() const noexcept = 0;

  // One request/response exchange with `peer`: encode, send, await the
  // response frame whose request id matches, up to `timeout_us`. Fills
  // `*elapsed_us` with the time the exchange consumed (virtual time for
  // the simulated backend, wall-clock for sockets) whether it succeeded or
  // not. Never throws for wire-level failures — those are statuses the
  // caller's retry/failover policy acts on. Master-thread only.
  virtual CallStatus Call(std::uint32_t peer, const Message& request,
                          Message* response, double timeout_us,
                          double* elapsed_us) = 0;

  // Installs the peer-side request handler (in-process backends). The
  // socket backend ignores this: its peers are real processes that serve
  // themselves. A null handler makes the peer unreachable (kPeerDead).
  virtual void SetHandler(std::uint32_t peer, Handler handler);

  // True when the peer can currently be reached without a reconnect.
  virtual bool PeerConnected(std::uint32_t peer) const noexcept {
    return peer < NumPeers();
  }

  // Monotonic request-id source; ids are process-unique so a response
  // straggling across retries can never match a later request.
  std::uint64_t NextRequestId() noexcept { return ++last_request_id_; }

  TransportStats& Stats() noexcept { return stats_; }
  const TransportStats& Stats() const noexcept { return stats_; }

 protected:
  TransportStats stats_;

 private:
  std::uint64_t last_request_id_ = 0;
};

enum class TransportKind : std::uint8_t { kSimNet, kSocket };

const char* TransportKindName(TransportKind kind) noexcept;

// Parses "simnet" / "socket"; throws std::invalid_argument on anything
// else, naming the offending value and the accepted ones.
TransportKind ParseTransportKind(std::string_view text);

}  // namespace rejecto::net
