// Periodic re-detection over a streaming augmented graph.
//
// The paper's deployment model (§V, §VII) has the OSN re-run Rejecto
// periodically as requests, acceptances, and rejections accumulate.
// EpochDetector packages that loop: events feed a stream::DeltaGraph; every
// `events_per_epoch` events (or on demand) the overlay is compacted into a
// fresh CSR and the full iterative pipeline (detect::DetectFriendSpammers)
// re-runs on it, reusing one ThreadPool across ingest compactions and every
// epoch's MAAR sweeps.
//
// Warm starts: with `warm_start` on, round 0 of each epoch seeds its MAAR
// sweep with the previous epoch's round-0 cut mask (MaarConfig::extra_init)
// and narrows the k sweep to a halo around the previous best k — in steady
// state the cut moves little between epochs, so this cuts the dominant
// round-0 grid from dozens of KL runs to a handful. Warm epochs are still
// deterministic and bit-identical at any thread count (the extra init is
// one more fixed cell in the deterministic reduction), but they see
// information a cold solve does not, so their cuts may differ from a cold
// batch run. With `warm_start` off an epoch is EXACTLY a batch
// DetectFriendSpammers on the compacted graph — the differential harness
// pins streamed cuts bit-identical to batch cuts at 1/2/8 threads.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "detect/incremental.h"
#include "detect/iterative.h"
#include "detect/seeds.h"
#include "graph/augmented_graph.h"
#include "stream/delta_graph.h"
#include "stream/mutation_log.h"
#include "util/timer.h"

namespace rejecto::util {
class ThreadPool;
}  // namespace rejecto::util

namespace rejecto::engine {

struct EpochConfig {
  // Per-epoch detection pipeline; detect.maar.num_threads also sizes the
  // detector's shared pool (ingest compactions + MAAR sweeps).
  detect::IterativeConfig detect;

  // Run an epoch automatically once this many events were ingested since
  // the previous epoch. 0 disables auto-epochs (RunEpoch() only).
  std::uint64_t events_per_epoch = 10'000;

  // Overlay compaction policy between epochs (see stream::DeltaConfig).
  stream::DeltaConfig delta;

  // Warm-start policy (see header comment). warm_k_halo must lie in
  // [0, 4096] and warm_random_inits must be >= 0 (ValidateEpochConfig).
  bool warm_start = true;
  int warm_k_halo = 1;        // sweep steps kept on each side of the prev k
  int warm_random_inits = 0;  // random inits in a warm round-0 sweep
};

// Throws std::invalid_argument for a config whose epochs' MAAR solves would
// throw, so that a service or detector refuses it at construction instead
// of failing on a later epoch: detect.max_rounds below 1 (detect::
// ValidateIterativeConfig), detect.maar's k sweep (detect::
// ValidateMaarSweep), a warm_k_halo outside [0, 4096], a negative
// warm_random_inits, or a warm round-0 sweep past the solver's caps. A
// warm sweep is at most as long as the cold one (it falls back to the whole
// grid when the previous k lies outside it) and runs warm_random_inits
// random inits plus the heuristic and the warm mask, so that is the sweep
// checked. Graph-dependent checks (seeds, extra_init's size) stay with
// MaarSolver.
void ValidateEpochConfig(const EpochConfig& config);

// The warm-start baton passed from one epoch's detection to the next: the
// round-0 pre-trim cut mask (graph ids) and the ratio weight k that
// produced it. This is also the serving layer's incremental-scoring
// baseline (detect/incremental.h).
struct EpochWarmState {
  bool valid = false;       // a usable round-0 cut exists
  std::vector<char> mask;   // indexed by graph id
  double k = 0.0;
};

struct EpochDetectionOutput {
  detect::DetectionResult result;
  // The state the NEXT epoch warm-starts from (valid iff this run produced
  // rounds); mask is sized to the detected graph's node count.
  EpochWarmState next_warm;
  bool warm_started = false;
};

// The detection core of one epoch, shared by EpochDetector::RunEpoch and
// the concurrent serving layer (serve::AdmissionService runs it on a
// background worker against an immutable snapshot while ingest continues):
// the full iterative pipeline on the compacted graph g, with round 0
// warm-started from `warm` when config.warm_start allows (mask seeded as
// MaarConfig::extra_init, k sweep narrowed to config.warm_k_halo around
// warm.k). With warm off or invalid this is EXACTLY a batch
// DetectFriendSpammers. Pure: touches nothing but its arguments.
EpochDetectionOutput RunEpochDetection(const graph::AugmentedGraph& g,
                                       const detect::Seeds& seeds,
                                       const EpochConfig& config,
                                       const EpochWarmState& warm,
                                       util::ThreadPool* pool);

struct EpochStats {
  int epoch = 0;
  bool warm_started = false;

  // Ingest since the previous epoch.
  std::uint64_t events_absorbed = 0;  // events ingested (applied + no-op)
  std::uint64_t events_noop = 0;      // duplicates / already-absent removals
  std::uint64_t compactions = 0;      // auto + the forced pre-detect compact
  // Wall time from this epoch's first ingested event to its cut (the
  // start of RunEpoch), so it includes the caller's time between events; 0
  // when no event was ingested since the previous epoch.
  double ingest_seconds = 0.0;
  double compact_seconds = 0.0;       // the forced pre-detect compaction

  // This epoch's detection run.
  double detect_seconds = 0.0;
  std::size_t num_detected = 0;
  int rounds = 0;
  std::vector<double> round_ratios;  // cut trajectory, one ratio per round
  double first_round_ratio = std::numeric_limits<double>::quiet_NaN();
  double first_round_acceptance = std::numeric_limits<double>::quiet_NaN();
  std::uint64_t total_kl_runs = 0;
  std::uint64_t total_switches = 0;
};

class EpochDetector {
 public:
  // Starts from an existing CSR snapshot (or an empty graph of `num_nodes`
  // isolated accounts). Seeds are graph ids; ids never remap across the
  // stream, so they stay valid for the detector's whole lifetime.
  EpochDetector(graph::AugmentedGraph base, detect::Seeds seeds,
                EpochConfig config);
  EpochDetector(graph::NodeId num_nodes, detect::Seeds seeds,
                EpochConfig config);
  ~EpochDetector();

  EpochDetector(const EpochDetector&) = delete;
  EpochDetector& operator=(const EpochDetector&) = delete;

  // Absorbs one event. Returns a pointer to the epoch's stats when this
  // event triggered an auto-epoch, nullptr otherwise (pointer into
  // History(); stable until the detector is destroyed).
  const EpochStats* Ingest(const stream::Event& e);

  // Convenience: absorbs a whole span, returning how many epochs fired.
  std::size_t IngestAll(std::span<const stream::Event> events);

  // Forces an epoch now: compacts the overlay and re-runs detection.
  const EpochStats& RunEpoch();

  // Durability (docs/ROBUSTNESS.md): compacts the overlay and atomically
  // writes an RJSNAP02 snapshot (graph/snapshot.h) of the graph whose
  // state section carries the warm-start state, the epoch counter and the
  // total event count. Crash recovery is RestoreCheckpoint + replaying the
  // WAL tail past EventsIngested(): bit-identical to a detector that never
  // crashed. RestoreCheckpoint throws std::runtime_error naming the path
  // on a missing, torn or corrupt file and on a snapshot without a state
  // section. It decodes the snapshot on the detector's own pool (sized by
  // config.detect.maar.num_threads), as FromSnapshot does.
  void SaveCheckpoint(const std::string& path);
  static std::unique_ptr<EpochDetector> RestoreCheckpoint(
      const std::string& path, detect::Seeds seeds, EpochConfig config);

  // Cold-boots a detector from a graph/snapshot.h binary snapshot
  // (RJSNAP02, expanded block by block on the detector's pool) — the
  // fast-start counterpart of parsing text edge lists into the base-graph
  // constructor. Stream ids are the snapshot's graph ids: seeds and every
  // future Ingest() event index the CSRs directly. A file the reader does
  // not fully read (an unknown section kind, such as the retired
  // permutation section, or a meta flag) throws std::runtime_error naming
  // the file. (Unlike RestoreCheckpoint, this carries no warm-start state
  // or event cursor — it is a fresh detector on a prebuilt graph.)
  static std::unique_ptr<EpochDetector> FromSnapshot(const std::string& path,
                                                     detect::Seeds seeds,
                                                     EpochConfig config);

  // Events absorbed over the detector's whole lifetime (survives
  // checkpoint/restore) — the WAL replay cursor.
  std::uint64_t EventsIngested() const noexcept {
    return total_events_ingested_;
  }

  // --- sub-epoch incremental scoring (detect/incremental.h) ---
  //
  // Between epochs the detector can classify a sender in O(deg) against the
  // previous epoch's round-0 cut: ΔW(s) of switching s into the incumbent
  // suspicious region, walking the DeltaGraph's effective rows so events
  // still sitting in the overlay count. Requires at least one completed
  // epoch whose round-0 cut was valid (HasIncrementalBaseline()); scoring
  // without a baseline throws std::logic_error. Nodes that joined the
  // stream after the baseline epoch score against mask-membership 0, which
  // is exactly what the next epoch's warm mask assumes about them.
  bool HasIncrementalBaseline() const noexcept {
    return has_prev_ && prev_k_ > 0.0;
  }
  detect::IncrementalScore ScoreSenderIncremental(graph::NodeId s) const;

  // The baseline the incremental score runs against: the previous epoch's
  // round-0 pre-trim mask (indexed by graph id) and its ratio weight k.
  const std::vector<char>& IncrementalMask() const noexcept {
    return prev_mask_;
  }
  double IncrementalK() const noexcept { return prev_k_; }

  const stream::DeltaGraph& Graph() const noexcept { return delta_; }
  const detect::DetectionResult& LastResult() const noexcept { return last_; }
  const std::vector<EpochStats>& History() const noexcept { return history_; }

 private:
  // The restore paths build the pool first, decode the snapshot on it, and
  // hand it to the detector they construct.
  EpochDetector(graph::AugmentedGraph base, detect::Seeds seeds,
                EpochConfig config, std::shared_ptr<util::ThreadPool> pool);
  // The shared pool `config` asks for; null below two threads. Every
  // constructor and restore path calls it first, so it is also where a
  // config is checked: throws std::invalid_argument for a config
  // ValidateEpochConfig refuses or a thread count past util::kMaxThreads.
  static std::shared_ptr<util::ThreadPool> PoolFor(const EpochConfig& config);

  stream::DeltaGraph delta_;
  detect::Seeds seeds_;
  EpochConfig config_;
  std::shared_ptr<util::ThreadPool> pool_;

  // Warm-start state from the previous epoch's round 0.
  std::vector<char> prev_mask_;
  double prev_k_ = 0.0;
  bool has_prev_ = false;

  // Ingest accumulators since the last epoch. The timer restarts at the
  // epoch's first event.
  std::uint64_t pending_events_ = 0;
  util::WallTimer pending_timer_;
  std::uint64_t noop_at_last_epoch_ = 0;
  std::uint64_t compactions_at_last_epoch_ = 0;

  // Durability state: lifetime event counter and the epoch number offset of
  // a restored detector (History() only holds post-restore epochs).
  std::uint64_t total_events_ingested_ = 0;
  std::uint64_t epoch_base_ = 0;

  detect::DetectionResult last_;
  std::vector<EpochStats> history_;
};

}  // namespace rejecto::engine
