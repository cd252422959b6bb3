// Deterministic simulated network backend (net::Transport).
//
// The master and its workers live in one process, but every exchange is
// byte-encoded into RJNET001 frames and pushed through a simulated network
// whose faults are drawn from per-link seeded xoshiro streams: base delay
// plus jitter, drop, duplicate, single-byte corruption, reorder penalties,
// and hard partitions, each per-link configurable (SimNetConfig). Given
// the same seed and fault matrix, every delivery, drop, and corruption —
// and therefore every retry, backoff, and failover the engine performs —
// replays byte-for-byte: the trace hash is the witness the determinism
// tests pin at 1/2/8 master threads.
//
// Time is virtual. A Call advances the master's virtual clock to the
// moment the first intact matching response lands (or to the deadline on
// timeout); elapsed virtual time feeds engine::IoStats::simulated_network_us.
// On a clean link a Call costs 2 x delay_us plus both frames' bytes over
// bandwidth_gbps — the distributed engine's only network-cost model. All
// Calls run on the master thread, so the simulation needs no locks and the
// fault schedule cannot race.
//
// Failpoint sites (util/failpoint.h), evaluated on top of the fault
// matrix: "net/send_frame" (outbound frame lost), "net/recv_frame"
// (a response copy discarded on arrival), "net/corrupt_frame" (a delivered
// copy gets one byte flipped).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "net/transport.h"
#include "util/rng.h"

namespace rejecto::net {

// Fault and timing model of one master<->worker link (both directions draw
// from the same per-link stream).
struct LinkFaults {
  double delay_us = 50.0;         // base one-way propagation delay
  double jitter_us = 0.0;         // uniform [0, jitter_us) added per frame
  double drop_p = 0.0;            // frame lost
  double dup_p = 0.0;             // frame delivered twice
  double corrupt_p = 0.0;         // one byte flipped (CRC catches it)
  double reorder_p = 0.0;         // frame held back by reorder_extra_us
  double reorder_extra_us = 500.0;
  bool partitioned = false;       // link down: nothing gets through
};

struct SimNetConfig {
  std::uint32_t num_peers = 0;    // Cluster fills this from num_workers
  LinkFaults default_link;
  // Per-peer overrides of the default matrix row.
  std::vector<std::pair<std::uint32_t, LinkFaults>> link_overrides;
  std::uint64_t seed = 42;        // root of the per-link streams
  double bandwidth_gbps = 10.0;   // serialization time per frame byte
  bool record_trace = false;      // keep the full event list (tests)
};

struct TraceEvent {
  enum class Kind : std::uint8_t {
    kSend = 1,      // master put a request frame on the wire
    kDeliver = 2,   // a request copy reached the worker intact
    kReply = 3,     // the worker put a response frame on the wire
    kReceive = 4,   // a response copy reached the master intact
    kDrop = 5,      // the fault matrix (or a failpoint) ate a frame
    kDuplicate = 6, // the link duplicated a frame
    kCorrupt = 7,   // a delivered copy failed CRC/decode and was discarded
    kLate = 8,      // a copy arrived after the call's deadline
    kTimeout = 9,   // the master gave up waiting
  };
  Kind kind;
  std::uint32_t peer;
  std::uint64_t request_id;
  double vtime_us;
  std::uint64_t bytes;
};

class SimNetwork final : public Transport {
 public:
  explicit SimNetwork(const SimNetConfig& config);

  std::uint32_t NumPeers() const noexcept override {
    return static_cast<std::uint32_t>(links_.size());
  }

  CallStatus Call(std::uint32_t peer, const Message& request,
                  Message* response, double timeout_us,
                  double* elapsed_us) override;

  void SetHandler(std::uint32_t peer, Handler handler) override;
  bool PeerConnected(std::uint32_t peer) const noexcept override;

  // Runtime partition control (heals or cuts the configured matrix entry).
  void Partition(std::uint32_t peer, bool partitioned);
  bool Partitioned(std::uint32_t peer) const;

  // Determinism witness: a CRC32C chained over every simulated event in
  // order. Two runs with the same seed + fault matrix + request sequence
  // produce the same hash regardless of master pool size.
  std::uint64_t TraceHash() const noexcept { return trace_hash_; }
  std::uint64_t NumTraceEvents() const noexcept { return trace_events_; }
  // Full event list; empty unless config.record_trace.
  const std::vector<TraceEvent>& Trace() const noexcept { return trace_; }

  double VirtualNowUs() const noexcept { return now_us_; }

 private:
  struct Link {
    LinkFaults faults;
    util::Rng rng;
    Handler handler;
  };

  void Record(TraceEvent::Kind kind, std::uint32_t peer,
              std::uint64_t request_id, double vtime_us, std::uint64_t bytes);
  double SerializationUs(std::uint64_t bytes) const noexcept;

  std::vector<Link> links_;
  double bandwidth_gbps_;
  double now_us_ = 0.0;
  bool record_trace_;
  std::vector<TraceEvent> trace_;
  std::uint64_t trace_events_ = 0;
  std::uint64_t trace_hash_ = 0;
};

}  // namespace rejecto::net
