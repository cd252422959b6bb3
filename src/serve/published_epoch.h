// The immutable unit of publication from the detection pipeline to the
// serving read path.
//
// Every epoch the admission service re-runs detection on a compacted CSR
// snapshot and publishes the outcome as one refcounted, never-mutated
// PublishedEpoch: the graph the epoch was detected on, the round-0 cut mask
// and weight k that the O(deg) incremental score runs against
// (detect/incremental.h), every sender's score against them (the gain
// table, filled once before publication), and the epoch's final flagged
// set. Readers resolve the current epoch through serve::RcuPtr and look the
// sender's score up without locks; because the struct is immutable, a
// decision is a pure function of (epoch_id, sender) — the property the
// concurrent-vs-serial differential test pins, and the reason decisions
// carry the epoch id they were scored against.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "detect/incremental.h"
#include "graph/augmented_graph.h"
#include "graph/types.h"

namespace rejecto::serve {

// Ordered by severity; policy chains may only escalate (max-combine), so
// the order is load-bearing.
enum class Verdict : std::uint8_t { kAdmit = 0, kGrey = 1, kReject = 2 };

inline const char* VerdictName(Verdict v) noexcept {
  switch (v) {
    case Verdict::kAdmit: return "admit";
    case Verdict::kGrey: return "grey";
    case Verdict::kReject: return "reject";
  }
  return "?";
}

struct PublishedEpoch {
  // 0 is the bootstrap epoch published at service construction (no
  // detection has run; every sender admits with zero evidence). Detection
  // epochs count from 1 in publication order.
  std::uint64_t epoch_id = 0;
  // Events folded into `graph` (the snapshot boundary).
  std::uint64_t events_ingested = 0;

  // The compacted CSR the epoch was detected on. Never null.
  std::shared_ptr<const graph::AugmentedGraph> graph;

  // Incremental-scoring baseline: the epoch's round-0 pre-trim cut mask
  // (indexed by graph id, sized to graph->NumNodes()) and its ratio weight
  // k. has_baseline is false when the epoch produced no usable round-0 cut
  // (or for the bootstrap epoch); decisions then admit with score 0.
  bool has_baseline = false;
  std::vector<char> mask;
  double k = 0.0;

  // The score of every sender the graph holds, computed once when the epoch
  // is built: gain[s] == detect::ScoreSenderIncremental(*graph, mask, k,
  // s).gain (detect::ScoreAllSenders). 8 B per node. The admission service
  // fills it for every epoch with a baseline; it is empty for the bootstrap
  // epoch and for epochs built by hand (test oracles, benchmarks), which
  // DecideAgainst scores by walking the sender's rows instead.
  std::vector<double> gain;

  // The epoch's final flagged accounts (post-trim), for operators; the
  // decision path uses `mask` (the scoring baseline), not this.
  std::vector<graph::NodeId> detected;

  double detect_seconds = 0.0;
};

struct Decision {
  Verdict verdict = Verdict::kAdmit;
  // ΔW(sender) against the epoch's incumbent cut; lower = more suspicious.
  // 0 when the epoch has no baseline or the sender has no evidence.
  double score = 0.0;
  // The epoch the decision was scored against.
  std::uint64_t epoch_id = 0;
  // True when the policy chain escalated the score verdict (rate limiting
  // or any other pluggable policy).
  bool escalated = false;
};

// The score half of a decision: a pure function of (epoch, sender), shared
// by the reader hot path and the differential test's oracle. A sender in
// the epoch's gain table costs one load from it (plus its mask byte);
// without a table the sender's rows are walked (detect/incremental.h), to
// the same score. Senders the epoch graph has never seen (ids past
// NumNodes(), created by events after the snapshot) score 0 with
// mask-membership 0 — exactly what the next epoch's warm mask assumes about
// them. A score below zero rejects; a non-negative score below grey_margin
// greys; anything else admits.
inline Decision DecideAgainst(const PublishedEpoch& epoch,
                              graph::NodeId sender, double grey_margin) {
  Decision d;
  d.epoch_id = epoch.epoch_id;
  if (!epoch.has_baseline) {
    return d;  // no evidence: admit, score 0
  }
  double gain = 0.0;
  bool suspicious = false;
  if (sender < epoch.gain.size()) {
    gain = epoch.gain[sender];
    suspicious = epoch.mask[sender] != 0 || gain < 0.0;
  } else if (sender < epoch.graph->NumNodes()) {
    const detect::IncrementalScore s =
        detect::ScoreSenderIncremental(*epoch.graph, epoch.mask, epoch.k,
                                       sender);
    gain = s.gain;
    suspicious = s.suspicious;
  }
  d.score = gain;
  if (suspicious) {
    d.verdict = Verdict::kReject;
  } else if (gain < grey_margin) {
    d.verdict = Verdict::kGrey;
  }
  return d;
}

}  // namespace rejecto::serve
