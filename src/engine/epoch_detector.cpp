#include "engine/epoch_detector.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "detect/maar.h"
#include "graph/builder.h"
#include "graph/snapshot.h"
#include "stream/wal.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace rejecto::engine {

namespace {
// Bounds the halo loop in RunEpochDetection. A halo of 4,096 steps already
// spans more than the longest sweep the solver's caps admit, so a wider one
// would sweep nothing more.
constexpr int kMaxWarmKHalo = 4096;
}  // namespace

void ValidateEpochConfig(const EpochConfig& config) {
  detect::ValidateIterativeConfig(config.detect);
  detect::ValidateMaarSweep(config.detect.maar, /*with_extra_init=*/false);
  if (config.warm_k_halo < 0 || config.warm_k_halo > kMaxWarmKHalo) {
    throw std::invalid_argument(
        "EpochConfig: warm_k_halo " + std::to_string(config.warm_k_halo) +
        " outside [0, " + std::to_string(kMaxWarmKHalo) + "]");
  }
  if (config.warm_random_inits < 0) {
    throw std::invalid_argument("EpochConfig: warm_random_inits " +
                                std::to_string(config.warm_random_inits) +
                                " is negative");
  }
  detect::MaarConfig warm = config.detect.maar;
  warm.num_random_inits = config.warm_random_inits;
  try {
    detect::ValidateMaarSweep(warm, /*with_extra_init=*/true);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument("EpochConfig: warm round-0 sweep with " +
                                std::to_string(config.warm_random_inits) +
                                " warm_random_inits: " + e.what());
  }
}

std::shared_ptr<util::ThreadPool> EpochDetector::PoolFor(
    const EpochConfig& config) {
  ValidateEpochConfig(config);
  const int threads = detect::EffectiveThreads(config.detect.maar.num_threads);
  if (threads <= 1) return nullptr;
  return std::make_shared<util::ThreadPool>(static_cast<std::size_t>(threads));
}

EpochDetector::EpochDetector(graph::AugmentedGraph base, detect::Seeds seeds,
                             EpochConfig config)
    : EpochDetector(std::move(base), std::move(seeds), config,
                    PoolFor(config)) {}

EpochDetector::EpochDetector(graph::AugmentedGraph base, detect::Seeds seeds,
                             EpochConfig config,
                             std::shared_ptr<util::ThreadPool> pool)
    : delta_(std::move(base), config.delta),
      seeds_(std::move(seeds)),
      config_(std::move(config)),
      pool_(std::move(pool)) {
  seeds_.Validate(delta_.NumNodes());
  delta_.SetPool(pool_.get());
}

EpochDetector::EpochDetector(graph::NodeId num_nodes, detect::Seeds seeds,
                             EpochConfig config)
    : EpochDetector(graph::GraphBuilder(num_nodes).BuildAugmented(),
                    std::move(seeds), std::move(config)) {}

EpochDetector::~EpochDetector() = default;

const EpochStats* EpochDetector::Ingest(const stream::Event& e) {
  if (pending_events_ == 0) pending_timer_.Reset();
  delta_.Apply(e);
  ++pending_events_;
  ++total_events_ingested_;
  if (config_.events_per_epoch > 0 &&
      pending_events_ >= config_.events_per_epoch) {
    return &RunEpoch();
  }
  return nullptr;
}

std::size_t EpochDetector::IngestAll(std::span<const stream::Event> events) {
  std::size_t epochs = 0;
  for (const stream::Event& e : events) {
    if (Ingest(e) != nullptr) ++epochs;
  }
  return epochs;
}

EpochDetectionOutput RunEpochDetection(const graph::AugmentedGraph& g,
                                       const detect::Seeds& seeds,
                                       const EpochConfig& config,
                                       const EpochWarmState& warm_in,
                                       util::ThreadPool* pool) {
  EpochDetectionOutput out;
  const bool warm = config.warm_start && warm_in.valid && warm_in.k > 0.0 &&
                    std::isfinite(warm_in.k);
  out.warm_started = warm;

  // One runner for every round; warm narrowing applies to round 0 only (the
  // later rounds run on pruned residual graphs the previous epoch never
  // saw). With warm off this runner is exactly the batch pipeline's.
  int round = 0;
  std::vector<char> warm_mask;
  if (warm) {
    warm_mask = warm_in.mask;
    warm_mask.resize(g.NumNodes(), 0);  // nodes that joined since last epoch
  }
  const auto runner = [&](const graph::AugmentedGraph& residual,
                          const detect::Seeds& s,
                          const detect::MaarConfig& maar) {
    detect::MaarConfig cell = maar;
    if (round++ == 0 && warm) {
      cell.extra_init = warm_mask;
      cell.num_random_inits = config.warm_random_inits;
      double lo = warm_in.k;
      double hi = warm_in.k;
      for (int i = 0; i < config.warm_k_halo; ++i) {
        lo /= maar.k_scale;
        hi *= maar.k_scale;
      }
      cell.k_min = std::max(maar.k_min, lo);
      cell.k_max = std::min(maar.k_max, hi);
      if (cell.k_min > cell.k_max) {  // prev k drifted outside the grid
        cell.k_min = maar.k_min;
        cell.k_max = maar.k_max;
      }
    }
    detect::MaarSolver solver(residual, s, cell);
    return solver.Solve(pool);
  };

  out.result =
      detect::DetectFriendSpammers(g, seeds, config.detect, runner, pool);

  if (!out.result.rounds.empty()) {
    // Round 0 runs on the full graph, so its pre-trim detected ids are
    // graph ids — the next epoch's warm mask.
    out.next_warm.valid = true;
    out.next_warm.mask.assign(g.NumNodes(), 0);
    for (graph::NodeId v : out.result.rounds.front().detected) {
      out.next_warm.mask[v] = 1;
    }
    out.next_warm.k = out.result.rounds.front().k;
  }
  return out;
}

const EpochStats& EpochDetector::RunEpoch() {
  EpochStats stats;
  stats.epoch = static_cast<int>(epoch_base_ + history_.size());
  stats.events_absorbed = pending_events_;
  stats.ingest_seconds = pending_events_ > 0 ? pending_timer_.Seconds() : 0.0;
  stats.events_noop = delta_.Stats().events_noop - noop_at_last_epoch_;

  // Detection consumes the immutable CSR base, so fold the overlay first.
  util::WallTimer compact_timer;
  delta_.Compact();
  stats.compact_seconds = compact_timer.Seconds();
  stats.compactions = delta_.Stats().compactions - compactions_at_last_epoch_;

  const graph::AugmentedGraph& g = delta_.Graph();
  EpochWarmState warm_in;
  warm_in.valid = has_prev_;
  warm_in.mask = prev_mask_;
  warm_in.k = prev_k_;

  util::WallTimer detect_timer;
  EpochDetectionOutput out =
      RunEpochDetection(g, seeds_, config_, warm_in, pool_.get());
  stats.detect_seconds = detect_timer.Seconds();
  stats.warm_started = out.warm_started;

  detect::DetectionResult& result = out.result;
  stats.num_detected = result.detected.size();
  stats.rounds = static_cast<int>(result.rounds.size());
  stats.total_kl_runs = result.total_kl_runs;
  stats.total_switches = result.total_switches;
  for (const detect::RoundInfo& r : result.rounds) {
    stats.round_ratios.push_back(r.ratio);
  }
  if (!result.rounds.empty()) {
    stats.first_round_ratio = result.rounds.front().ratio;
    stats.first_round_acceptance = result.rounds.front().acceptance_rate;
  }
  if (out.next_warm.valid) {
    prev_mask_ = std::move(out.next_warm.mask);
    prev_k_ = out.next_warm.k;
    has_prev_ = true;
  }

  last_ = std::move(result);
  pending_events_ = 0;
  noop_at_last_epoch_ = delta_.Stats().events_noop;
  compactions_at_last_epoch_ = delta_.Stats().compactions;
  history_.push_back(std::move(stats));
  return history_.back();
}

detect::IncrementalScore EpochDetector::ScoreSenderIncremental(
    graph::NodeId s) const {
  if (!HasIncrementalBaseline()) {
    throw std::logic_error(
        "EpochDetector::ScoreSenderIncremental: no completed epoch with a "
        "valid round-0 cut to score against");
  }
  if (s >= delta_.NumNodes()) {
    throw std::out_of_range(
        "EpochDetector::ScoreSenderIncremental: sender out of range");
  }
  // Mask membership for ids past the baseline mask (nodes that joined since
  // the last epoch) is 0 — the same extension RunEpoch applies to the warm
  // mask. The walk mirrors detect::ScoreSenderIncremental but reads the
  // DeltaGraph's effective rows, so un-compacted overlay events count.
  const auto side = [&](graph::NodeId v) -> bool {
    return v < prev_mask_.size() && prev_mask_[v] != 0;
  };
  if (side(s)) {
    return {0.0, true};
  }
  std::int64_t delta_friend = 0;
  std::int64_t delta_rej = 0;
  const graph::AugmentedGraph& base = delta_.Graph();
  if (s < base.NumNodes() && !delta_.OverlayTouched(s)) {
    // Fast path: no event since the last compaction touched s, so its
    // effective rows ARE its base CSR rows — walk them directly and skip
    // the three overlay merge walks (same side() arithmetic, bit-identical
    // result; the epoch-tag check is O(1)).
    for (graph::NodeId f : base.Friendships().Neighbors(s)) {
      delta_friend += side(f) ? -1 : +1;
    }
    for (graph::NodeId r : base.Rejections().Rejectors(s)) {
      if (!side(r)) ++delta_rej;
    }
    for (graph::NodeId t : base.Rejections().Rejectees(s)) {
      if (side(t)) --delta_rej;
    }
    const double gain = static_cast<double>(delta_friend) -
                        prev_k_ * static_cast<double>(delta_rej);
    return {gain, gain < 0.0};
  }
  delta_.ForEachFriend(s, [&](graph::NodeId f) {
    delta_friend += side(f) ? -1 : +1;
  });
  delta_.ForEachRejector(s, [&](graph::NodeId r) {
    if (!side(r)) ++delta_rej;
  });
  delta_.ForEachRejectee(s, [&](graph::NodeId t) {
    if (side(t)) --delta_rej;
  });
  const double gain = static_cast<double>(delta_friend) -
                      prev_k_ * static_cast<double>(delta_rej);
  return {gain, gain < 0.0};
}

namespace {
// Version tag for the detector's state section inside the checkpoint
// snapshot (the file-level format is versioned separately by its magic).
constexpr std::uint32_t kEpochStateVersion = 1;
}  // namespace

void EpochDetector::SaveCheckpoint(const std::string& path) {
  // The checkpoint stores the compacted CSR; folding the overlay here keeps
  // the snapshot identical to what the next epoch would detect on.
  delta_.Compact();
  const graph::AugmentedGraph& g = delta_.Graph();

  stream::ByteWriter state;
  state.PutU32(kEpochStateVersion);
  state.PutU64(total_events_ingested_);
  state.PutU64(epoch_base_ + history_.size());
  state.PutU8(has_prev_ ? 1 : 0);
  if (has_prev_) {
    state.PutF64(prev_k_);
    // The mask is indexed by graph id; size it to the snapshot so restore
    // never has to guess (ids never remap across the stream).
    std::vector<char> mask = prev_mask_;
    mask.resize(g.NumNodes(), 0);
    state.PutU64(mask.size());
    state.PutBytes(mask.data(), mask.size());
  }
  graph::SaveSnapshot(path, g, graph::Layout{}, graph::SnapshotOptions{},
                      state.buf);
}

std::unique_ptr<EpochDetector> EpochDetector::RestoreCheckpoint(
    const std::string& path, detect::Seeds seeds, EpochConfig config) {
  std::shared_ptr<util::ThreadPool> pool = PoolFor(config);
  graph::Snapshot snap = graph::LoadSnapshot(path, pool.get());
  if (snap.state.empty()) {
    throw std::runtime_error("checkpoint " + path +
                             ": no state section (a plain snapshot, not an "
                             "epoch detector checkpoint)");
  }
  graph::AugmentedGraph g = std::move(snap.graph);

  stream::ByteReader state(snap.state.data(), snap.state.size());
  const std::uint32_t version = state.GetU32();
  if (version != kEpochStateVersion) {
    throw std::runtime_error("checkpoint " + path +
                             ": unsupported epoch-state version " +
                             std::to_string(version));
  }
  const std::uint64_t events = state.GetU64();
  const std::uint64_t epochs = state.GetU64();
  const bool has_prev = state.GetU8() != 0;
  double prev_k = 0.0;
  std::vector<char> mask;
  if (has_prev) {
    prev_k = state.GetF64();
    const std::uint64_t mask_len = state.GetU64();
    if (mask_len != g.NumNodes()) {
      throw std::runtime_error("checkpoint " + path +
                               ": warm-start mask length " +
                               std::to_string(mask_len) +
                               " does not match graph nodes " +
                               std::to_string(g.NumNodes()));
    }
    mask.resize(mask_len);
    state.GetBytes(mask.data(), mask.size());
  }
  if (state.Remaining() != 0) {
    throw std::runtime_error("checkpoint " + path +
                             ": trailing bytes in epoch state");
  }

  auto detector = std::unique_ptr<EpochDetector>(
      new EpochDetector(std::move(g), std::move(seeds), std::move(config),
                        std::move(pool)));
  detector->total_events_ingested_ = events;
  detector->epoch_base_ = epochs;
  detector->has_prev_ = has_prev;
  detector->prev_k_ = prev_k;
  detector->prev_mask_ = std::move(mask);
  return detector;
}

std::unique_ptr<EpochDetector> EpochDetector::FromSnapshot(
    const std::string& path, detect::Seeds seeds, EpochConfig config) {
  std::shared_ptr<util::ThreadPool> pool = PoolFor(config);
  graph::Snapshot snap = graph::LoadSnapshot(path, pool.get());
  return std::unique_ptr<EpochDetector>(
      new EpochDetector(std::move(snap.graph), std::move(seeds),
                        std::move(config), std::move(pool)));
}

}  // namespace rejecto::engine
