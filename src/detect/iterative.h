// Iterative friend-spammer detection (paper §IV-E).
//
// A single MAAR cut misses disjoint fake-account groups and can be gamed by
// the self-rejection strategy (attackers craft an even-lower-ratio cut
// *inside* their own accounts to whitewash the rejecting half). Rejecto
// therefore repeats: solve MAAR on the residual graph, declare the U region
// suspicious, prune it with all its links and rejections, and continue. The
// crafted internal cuts surface first (they have the lowest ratio), so
// self-rejection only exposes the rejected accounts earlier; the
// whitewashed accounts are caught in a later round once their rejectors are
// gone. Rounds yield suspicious groups in non-decreasing aggregate
// acceptance rate, enabling threshold-based termination.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "detect/maar.h"
#include "detect/seeds.h"
#include "graph/augmented_graph.h"

namespace rejecto::detect {

struct IterativeConfig {
  // Per-round MAAR solver configuration. maar.num_threads also governs the
  // pipeline: the serial overload builds one ThreadPool up front and reuses
  // it for every round's parallel sweep.
  MaarConfig maar;

  // Stop once at least this many accounts are flagged (the paper uses the
  // OSN's estimate of the fake population). 0 disables the count condition.
  std::uint64_t target_detections = 0;

  // When the final round overshoots target_detections, keep only the most
  // suspicious nodes of that round (ranked by per-node incoming-rejection
  // ratio on the residual graph) so exactly `target_detections` accounts
  // are declared.
  bool trim_to_target = true;

  // Stop *before* flagging a cut whose aggregate acceptance rate exceeds
  // this (§IV-E "other termination conditions"). Negative disables.
  double acceptance_rate_threshold = -1.0;

  // At least 1; DetectFriendSpammers refuses fewer (see
  // ValidateIterativeConfig).
  int max_rounds = 64;
};

// Throws std::invalid_argument naming the field unless max_rounds >= 1.
// Every DetectFriendSpammers entry calls it first, before any pool starts
// or any snapshot is read.
void ValidateIterativeConfig(const IterativeConfig& config);

struct RoundInfo {
  std::vector<graph::NodeId> detected;  // original-graph ids (pre-trim)
  graph::CutQuantities cut;
  double ratio = 0.0;
  double acceptance_rate = 0.0;
  double k = 0.0;

  // Per-round instrumentation, copied from the round's MaarCut.
  double solve_seconds = 0.0;           // the round's MAAR solve
  int kl_runs = 0;
  std::uint64_t switches = 0;
  // Scheduling diagnostics (MaarCut's speculative warm runs): they depend
  // on timing, like solve_seconds, so no determinism check compares them.
  int speculative_runs = 0;
  int speculative_hits = 0;
};

struct DetectionResult {
  std::vector<graph::NodeId> detected;  // all flagged accounts, original ids
  std::vector<RoundInfo> rounds;
  bool hit_target = false;

  // Pipeline instrumentation: totals include the final round whose cut was
  // invalid or rejected by the acceptance threshold (work still done).
  double total_seconds = 0.0;           // whole DetectFriendSpammers call
  std::uint64_t total_kl_runs = 0;
  std::uint64_t total_switches = 0;
  // Timing-dependent, like total_seconds: see RoundInfo.
  std::uint64_t total_speculative_runs = 0;
  std::uint64_t total_speculative_hits = 0;
  int threads_used = 1;                 // pool width of the MAAR sweeps
};

// Runs the full Rejecto pipeline on an augmented social graph.
DetectionResult DetectFriendSpammers(const graph::AugmentedGraph& g,
                                     const Seeds& seeds,
                                     const IterativeConfig& config);

// Pluggable-MAAR variant: `solve` is invoked once per round on the residual
// graph (the serial overload passes MaarSolver::Solve). The distributed
// engine injects engine::SolveMaarDistributed so the entire iterative
// pipeline — sweep, refinement, pruning rounds — runs against the cluster
// substrate with identical results. `pool`, when given, parallelizes the
// per-round residual compaction (graph::InducedSubgraph); it does not
// affect `solve`, which captures its own pool if it wants one. Results are
// identical with or without a pool.
using MaarRunner = std::function<MaarCut(
    const graph::AugmentedGraph& residual, const Seeds& seeds,
    const MaarConfig& config)>;
DetectionResult DetectFriendSpammers(const graph::AugmentedGraph& g,
                                     const Seeds& seeds,
                                     const IterativeConfig& config,
                                     const MaarRunner& solve,
                                     util::ThreadPool* pool = nullptr);

// The pipeline over a compressed RJSNAP02 snapshot: materializes the view
// once on the detection pool (every block CRC-checked, so a damaged
// snapshot throws std::runtime_error before any KL run) and runs
// DetectFriendSpammers on the result, so the answer is the one
// DetectFriendSpammers(LoadSnapshot(path).graph, ...) gives at any thread
// count. total_seconds includes the materialization. Reported ids are the
// ids the snapshot's CSRs are stored under.
DetectionResult DetectFriendSpammersCompressed(
    const graph::CompressedGraphView& view, const Seeds& seeds,
    const IterativeConfig& config);

}  // namespace rejecto::detect
