// Concurrent online admission service: the paper's continuously-running
// deployment (§V, §VII) as a QPS-scale ingest+query engine.
//
// EpochDetector is single-threaded by construction: Ingest() and
// ScoreSenderIncremental() share the DeltaGraph, so a deployment serving
// admission decisions while absorbing the event firehose would serialize
// every query behind every mutation. AdmissionService splits the two paths
// across threads with RCU-style snapshot publication:
//
//   producers --TryPush--> [MpscQueue] --drain--> writer thread
//                                                   | owns DeltaGraph + WAL
//                                                   | every N events: compact,
//                                                   | copy CSR, hand job to
//                                                   v
//                                             detection thread
//                                                   | RunEpochDetection
//                                                   | (warm-chained, in order)
//                                                   v
//                              RcuPtr<PublishedEpoch>::Publish  (atomic swap)
//                                                   ^
//   readers ----Acquire(slot)---- pin epoch, DecideAgainst + policy chain
//
// * The WRITER thread is the only mutator: it drains the bounded MPSC ring,
//   appends to the WAL (write-ahead, before apply) and the DeltaGraph, and
//   cuts a snapshot at exact multiples of events_per_epoch — compaction and
//   the CSR copy are the only work on the ingest path that stalls it (the
//   metered "publish stall"). Detection itself runs OFF the hot path.
// * The DETECTION thread consumes snapshot jobs strictly in order, chaining
//   EpochWarmState exactly like EpochDetector::RunEpoch chains prev_mask_/
//   prev_k_ — so epoch contents are bit-identical to a serial EpochDetector
//   replay of the same event sequence, which is what the differential test
//   pins. Each result is frozen into an immutable refcounted PublishedEpoch,
//   with every sender's incremental score computed once into its gain table
//   (detect::ScoreAllSenders, on the detection pool), and swapped in through
//   RcuPtr (hazard-pointer reclamation — see serve/rcu.h).
// * READERS never lock: one acquire-load (plus the hazard handshake) pins
//   the current epoch, the sender's score is one load from its gain table,
//   and the pluggable policy chain (serve/policy.h) may escalate. A
//   Decision is a pure function of (published epoch, sender) — given the
//   same epoch id, concurrent and serial runs decide identically. Each
//   Reader counts every decision but times only one in
//   Reader::kLatencySampleEvery (64): a clock read costs as much as the
//   rest of a decision.
//
// Backpressure: at most max_pending_epochs snapshot jobs may be in flight;
// past that the writer stalls (metered) rather than queueing unboundedly —
// an overloaded detector slows ingest instead of exploding memory.
//
// Waiting: no thread spins. Every wait parks on a word that the waking
// thread changes (C++20 atomic wait/notify): the writer on an empty ring
// (the producer whose push finds it parked wakes it; a seq_cst fence on
// each side closes the race), the writer on backpressure (the detection
// thread's jobs_pending_ decrement), a producer on a full ring (woken once,
// when the writer has drained the ring to half), Drain/ForceEpoch on their
// acks (a service-owned counter bumped after each ack) and ForceEpoch on
// published_id_. Each Reader and each hazard slot fills cache lines of its
// own, so a pin and its bookkeeping never write to a line another reader
// writes (a policy may still share: the token bucket's per-sender words,
// which it writes only when the sender's state changes).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "detect/seeds.h"
#include "engine/epoch_detector.h"
#include "graph/augmented_graph.h"
#include "graph/types.h"
#include "serve/mpsc_queue.h"
#include "serve/policy.h"
#include "serve/published_epoch.h"
#include "serve/rcu.h"
#include "stream/delta_graph.h"
#include "stream/mutation_log.h"
#include "stream/wal.h"
#include "util/latency.h"

namespace rejecto::serve {

struct AdmissionConfig {
  // Epoch cadence + detection pipeline (engine/epoch_detector.h); the
  // service snapshots at exact multiples of epoch.events_per_epoch (0
  // disables auto-epochs; ForceEpoch() still works).
  engine::EpochConfig epoch;

  // Hazard-slot pool size (serve/rcu.h): caps concurrent readers. Each
  // slot is one 64-byte line; at most RcuPtr's kMaxSlots (4,096).
  std::size_t max_readers = 64;

  // Ingest ring capacity (rounded up to a power of two; at most MpscQueue's
  // kMaxCapacity, 2^20) and the cap on snapshot jobs in flight before
  // ingest stalls.
  std::size_t queue_capacity = 1 << 14;
  std::size_t max_pending_epochs = 2;

  // Scores in [0, grey_margin) grey instead of admitting (negative scores
  // always reject). 0 disables the grey band.
  double grey_margin = 0.0;

  // Non-empty: write-ahead log every event before applying it (stream/wal.h
  // segment base path). Empty: no durability.
  std::string wal_path;
  stream::WalOptions wal;
};

// Racy point-in-time counters (every field monotone except gauges).
struct AdmissionStats {
  std::uint64_t events_submitted = 0;   // acked TryPush/Submit calls
  std::uint64_t events_ingested = 0;    // drained by the writer
  std::uint64_t events_applied = 0;     // changed the graph
  std::uint64_t events_noop = 0;
  std::uint64_t epochs_published = 0;   // detection epochs (excludes bootstrap)
  double snapshot_seconds_total = 0.0;  // compact + CSR copy (ingest stalled)
  double last_snapshot_seconds = 0.0;
  double last_detect_seconds = 0.0;
  std::uint64_t backpressure_yields = 0;  // writer parks on a detect slot
  std::uint64_t published_epoch_id = 0;   // gauge
  std::uint64_t published_events = 0;     // gauge: events in current epoch
  std::size_t retired_epochs = 0;         // gauge: hazard keepalives
  std::size_t queue_depth = 0;            // gauge
};

class AdmissionService {
 public:
  // Starts the writer and detection threads and publishes the bootstrap
  // epoch 0 (no baseline: every sender admits) so readers never observe an
  // unpublished state. Seeds are graph ids and never remap. Throws
  // std::invalid_argument for an oversized queue_capacity or max_readers,
  // a zero max_pending_epochs, or a detection config whose epochs' MAAR
  // solves would throw (engine::ValidateEpochConfig), before allocating or
  // starting a thread.
  AdmissionService(graph::AugmentedGraph base, detect::Seeds seeds,
                   AdmissionConfig config);
  ~AdmissionService();

  AdmissionService(const AdmissionService&) = delete;
  AdmissionService& operator=(const AdmissionService&) = delete;

  // Appends a policy to the escalation chain. Must be called before any
  // reader exists or event is submitted (the chain is immutable once
  // serving starts; policies themselves must be thread-safe).
  void AddPolicy(std::unique_ptr<AdmissionPolicy> policy);

  // --- ingest (any thread) ---

  // Enqueues one event; false when the ring is full (caller decides to
  // retry, shed, or block).
  bool TrySubmit(const stream::Event& e);
  // Blocking submit: parks while the ring is full. Throws std::logic_error
  // once the service is stopped, including while parked.
  void Submit(const stream::Event& e);

  // Blocks until every event submitted before this call has been applied
  // by the writer thread (returns early if the service stops first).
  void Drain();

  // Forces a snapshot+detection now (even mid-interval) and blocks until
  // that epoch is published. Returns its epoch id. Events submitted before
  // this call are folded in (the barrier orders through the same ring).
  std::uint64_t ForceEpoch();

  // --- query (reader threads) ---

  // A reader thread's handle: its RCU slot, latency histogram, and verdict
  // counters. Movable (a moved-to Reader keeps the counters, so it keeps
  // its sampling phase); must be destroyed before the service. One Reader
  // per thread — Decide is not reentrant on the same Reader. Line-aligned,
  // so the per-decision counters of adjacent Readers (in a vector, say)
  // never share a cache line.
  class alignas(64) Reader {
   public:
    // Decide times decision i of this Reader (counting from 0) only when
    // i % kLatencySampleEvery == 0: two clock reads cost more than the rest
    // of a decision.
    static constexpr std::uint64_t kLatencySampleEvery = 64;

    Reader() = default;
    Reader(Reader&& o) noexcept;
    Reader& operator=(Reader&& o) noexcept;
    Reader(const Reader&) = delete;
    Reader& operator=(const Reader&) = delete;
    ~Reader();

    // The lock-free decision path: pin the current epoch, score, run the
    // policy chain, count the verdict, and time one decision in
    // kLatencySampleEvery. logical_time is the caller's clock for
    // rate-limiting policies (event index / request counter). The sample
    // changes only the bookkeeping, never the Decision.
    Decision Decide(graph::NodeId sender, std::uint64_t logical_time);

    // A 1-in-kLatencySampleEvery sample of Decide's latency, in ns:
    // ceil(Decisions() / kLatencySampleEvery) values, so a Reader that has
    // decided at least once has a non-empty histogram. The counters below
    // count every decision.
    const util::LatencyHistogram& Latency() const noexcept { return hist_; }
    std::uint64_t Decisions() const noexcept { return decisions_; }
    std::uint64_t Admitted() const noexcept { return verdicts_[0]; }
    std::uint64_t Greyed() const noexcept { return verdicts_[1]; }
    std::uint64_t Rejected() const noexcept { return verdicts_[2]; }
    std::uint64_t Escalated() const noexcept { return escalated_; }

   private:
    friend class AdmissionService;
    AdmissionService* service_ = nullptr;
    RcuPtr<PublishedEpoch>::Slot* slot_ = nullptr;
    util::LatencyHistogram hist_;
    std::uint64_t decisions_ = 0;
    std::uint64_t verdicts_[3] = {0, 0, 0};
    std::uint64_t escalated_ = 0;
  };

  // Claims a reader handle. Throws std::runtime_error when the slot pool
  // (config.max_readers) is exhausted.
  Reader CreateReader();

  // Writer-side view of the current epoch (tests/operators; readers use
  // Reader::Decide). Safe from any thread.
  std::shared_ptr<const PublishedEpoch> CurrentEpoch() const;
  std::uint64_t PublishedEpochId() const noexcept {
    return published_id_.load(std::memory_order_acquire);
  }

  AdmissionStats Stats() const;
  const AdmissionConfig& Config() const noexcept { return config_; }

  // Stops both threads after draining the ring (idempotent; the destructor
  // calls it). Pending snapshot jobs finish and publish first.
  void Stop();

 private:
  struct Command {
    enum class Kind : std::uint8_t { kEvent, kBarrier, kEpoch, kStop };
    Kind kind = Kind::kEvent;
    stream::Event event;
    // kBarrier: writer stores 1. kEpoch: writer stores the assigned epoch
    // id. Lives on the caller's stack, which waits (on acks_, never on this
    // word) until the store lands or the writer exits.
    std::atomic<std::uint64_t>* ack = nullptr;
  };

  struct DetectJob {
    std::uint64_t epoch_id = 0;
    std::uint64_t events_ingested = 0;
    std::shared_ptr<const graph::AugmentedGraph> graph;
  };

  // Throws std::invalid_argument for a config the constructor refuses.
  static AdmissionConfig Validated(AdmissionConfig config);
  // Throws std::invalid_argument for a self-edge.
  static Command EventCommand(const stream::Event& e);

  // Pushes `cmd`, parking while the ring is full. With `until_stopped`,
  // gives up (false) once the service is stopped.
  bool Push(const Command& cmd, bool until_stopped);
  // Producer side, after every successful push: wakes a parked writer.
  void WakeWriter();
  // Writer side: wakes every producer parked on a full ring.
  void WakeProducers();
  // Writer side, after storing an ack (and on exit): wakes AwaitAck.
  void SignalAcks();
  // Waits until the writer stores `ack` or exits; returns the ack (0 when
  // the writer exited without seeing the command).
  std::uint64_t AwaitAck(const std::atomic<std::uint64_t>& ack);
  void WriterLoop();
  void DetectLoop();
  // Writer-side: compact, copy the CSR, enqueue the detection job
  // (stalling first if max_pending_epochs are already in flight).
  std::uint64_t CutSnapshot();
  void PublishBootstrap(const graph::AugmentedGraph& base);

  AdmissionConfig config_;
  detect::Seeds seeds_;

  MpscQueue<Command> queue_;
  RcuPtr<PublishedEpoch> rcu_;
  std::vector<std::unique_ptr<AdmissionPolicy>> policies_;

  // Writer-thread-owned (no locking; counters mirrored into atomics).
  stream::DeltaGraph delta_;
  std::unique_ptr<stream::WalWriter> wal_;
  std::shared_ptr<util::ThreadPool> pool_;
  std::uint64_t events_since_snapshot_ = 0;
  std::uint64_t next_epoch_id_ = 1;
  double snapshot_seconds_total_ = 0.0;

  // Writer -> detection handoff.
  std::mutex jobs_mu_;
  std::condition_variable jobs_cv_;
  std::deque<DetectJob> jobs_;
  bool jobs_shutdown_ = false;
  std::atomic<std::size_t> jobs_pending_{0};

  // Writer-side mirror of the latest published epoch for CurrentEpoch()
  // (RcuPtr::Current is writer-thread-only in hazard mode).
  mutable std::mutex latest_mu_;
  std::shared_ptr<const PublishedEpoch> latest_;

  // Parking words. writer_parked_ is 1 while the writer sleeps on an empty
  // ring; producers read it after every push. producers_waiting_ is set by
  // a producer about to park on a full ring; the writer then bumps
  // space_gen_ (what those producers wait on) at half a ring. acks_ is
  // bumped after every ack store and when the writer exits.
  alignas(64) std::atomic<std::uint32_t> writer_parked_{0};
  alignas(64) std::atomic<std::uint32_t> producers_waiting_{0};
  std::atomic<std::uint32_t> space_gen_{0};
  std::atomic<std::uint32_t> acks_{0};
  std::atomic<bool> writer_exited_{false};

  // Cross-thread counters/gauges (relaxed; Stats() is advisory). Producers
  // write the first, the writer and detection threads the rest.
  alignas(64) std::atomic<std::uint64_t> events_submitted_{0};
  alignas(64) std::atomic<std::uint64_t> events_ingested_{0};
  std::atomic<std::uint64_t> events_applied_{0};
  std::atomic<std::uint64_t> events_noop_{0};
  std::atomic<std::uint64_t> backpressure_yields_{0};
  std::atomic<std::uint64_t> epochs_published_{0};
  std::atomic<std::uint64_t> published_id_{0};
  std::atomic<std::size_t> retired_epochs_{0};
  std::atomic<double> last_snapshot_seconds_{0.0};
  std::atomic<double> snapshot_seconds_published_{0.0};
  std::atomic<double> last_detect_seconds_{0.0};

  std::thread writer_;
  std::thread detector_;
  std::atomic<bool> stopped_{false};
  // AddPolicy guard: set on the first CreateReader (the chain must freeze
  // before any reader can race a mutation of policies_).
  std::atomic<bool> chain_frozen_{false};
};

}  // namespace rejecto::serve
