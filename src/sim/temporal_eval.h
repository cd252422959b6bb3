// Temporal attack worlds with adaptive adversaries (ROADMAP "Early
// detection and adaptive adversaries").
//
// The batch scenarios (sim/scenario.h) materialize an attack's END STATE;
// this module generates the attack as it UNFOLDS, one interval at a time,
// against an adversary that observes the evolving rejection and detection
// state and adapts:
//
//   * kStaticCampaign    — the paper's §VI-A campaign replayed in
//                          intervals: every spammer sends its per-interval
//                          budget to uniformly random untried victims. The
//                          baseline every adaptive strategy is measured
//                          against.
//   * kProbeThenFlood    — cheap probes first: a few requests per interval
//                          to random victims, pooling every accepter the
//                          colluding spammers discover. After the probe
//                          phase, the full budget floods the accepters and
//                          their graph neighborhoods — the careless corner
//                          of the OSN — so far fewer rejections accumulate.
//   * kRejectionRetarget — per-spammer victim selection: victims who
//                          reject are abandoned (never retried, never
//                          expanded); each accepted victim's neighborhood
//                          joins the spammer's target frontier. Spam walks
//                          outward from wherever it lands.
//   * kSlowDripCollusion — stay under a per-interval rate threshold: at
//                          most `drip_max_requests_per_interval` requests
//                          per spammer per interval, a full cool-down
//                          interval after any rejection, plus a steady
//                          drip of intra-fake collusion links to keep the
//                          region well-embedded while evidence accrues
//                          slowly.
//
// Legitimate behaviour is heterogeneous (arXiv 2501.16624): every legit
// user draws a REJECTION PROPENSITY — the probability it rejects an
// unsolicited request — from a configurable band, with a careless minority
// assigned a near-zero propensity in graph PATCHES (a random user plus its
// neighborhood), because carelessness clusters socially; the patches are
// exactly what probe-then-flood and retargeting exploit. Responses to
// every unsolicited request (organic or spam) are drawn per-receiver from
// these propensities.
//
// Everything is deterministic given TemporalEvalConfig::seed plus the
// flagged masks fed back by the harness (which are themselves
// thread-invariant — see engine/epoch_detector.h), so golden tests can pin
// whole adaptive runs. Flagged accounts are suspended: the OSN acts on a
// detection, so a flagged spammer emits nothing further — evading the
// detector longer is precisely what the adaptive strategies buy.
#pragma once

#include <cstdint>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "detect/seeds.h"
#include "graph/social_graph.h"
#include "sim/request_log.h"
#include "util/rng.h"

namespace rejecto::sim {

enum class AdversaryKind : std::uint8_t {
  kStaticCampaign,
  kProbeThenFlood,
  kRejectionRetarget,
  kSlowDripCollusion,
};

// Stable lowercase identifier ("static_campaign", ...) used by bench tables
// and golden files.
std::string_view AdversaryName(AdversaryKind kind);

struct PropensityConfig {
  // Non-careless users draw uniformly from
  // [mean - spread, mean + spread], clamped to [min, max].
  double mean = 0.7;
  double spread = 0.2;
  double min_propensity = 0.02;
  double max_propensity = 0.98;

  // ~careless_fraction of legit users sit in careless patches (random
  // center + its whole neighborhood) at careless_propensity.
  double careless_fraction = 0.12;
  double careless_propensity = 0.05;
};

struct TemporalEvalConfig {
  std::uint64_t seed = 42;

  // --- fake region (ids [num_legit, num_legit + num_fakes)) ---
  graph::NodeId num_fakes = 400;
  std::uint32_t intra_fake_links_per_account = 6;
  double spamming_fraction = 1.0;

  // --- campaign shape ---
  AdversaryKind adversary = AdversaryKind::kStaticCampaign;
  int num_intervals = 8;
  std::uint32_t requests_per_spammer_per_interval = 6;

  // --- organic background (the prelude before the attack) ---
  // Each legit user u sends round(deg(u) · organic_request_fraction)
  // unsolicited requests to random non-friends, answered per the
  // receiver's propensity — the heterogeneous analogue of
  // AddLegitimateRejections.
  double organic_request_fraction = 0.3;

  // --- probe-then-flood ---
  int probe_intervals = 2;
  std::uint32_t probe_requests_per_interval = 2;

  // --- slow-drip collusion ---
  std::uint32_t drip_max_requests_per_interval = 2;
  std::uint32_t drip_collusion_links_per_interval = 1;

  PropensityConfig propensity;
};

// The evolving attack state: the request log grown so far (arrival order IS
// the replay order), ground truth, per-victim propensities, and the
// dedup/outcome bookkeeping the adversaries adapt on. The legit graph must
// outlive the world.
class TemporalWorld {
 public:
  TemporalWorld(const graph::SocialGraph& legit_graph,
                const TemporalEvalConfig& config);

  graph::NodeId NumLegit() const noexcept { return num_legit_; }
  graph::NodeId NumFakes() const noexcept { return config_.num_fakes; }
  graph::NodeId NumNodes() const noexcept {
    return num_legit_ + config_.num_fakes;
  }
  const TemporalEvalConfig& Config() const noexcept { return config_; }
  const graph::SocialGraph& LegitGraph() const noexcept { return *legit_; }

  // The full request history in arrival order; grows as adversaries emit.
  const RequestLog& Log() const noexcept { return log_; }
  const std::vector<char>& IsFake() const noexcept { return is_fake_; }
  const std::vector<graph::NodeId>& Spammers() const noexcept {
    return spammers_;
  }
  // Per-node rejection propensity (legit ids; fakes hold 0).
  const std::vector<double>& Propensities() const noexcept {
    return propensity_;
  }

  // Same sampling contract as Scenario::SampleSeeds: random legit users and
  // random spam-sending fakes.
  detect::Seeds SampleSeeds(graph::NodeId num_legit_seeds,
                            graph::NodeId num_spammer_seeds, util::Rng& rng);

  // True when the ordered pair sender→receiver already carries a request
  // (each pair gets at most one — repeats collapse in the graph anyway).
  bool Tried(graph::NodeId sender, graph::NodeId receiver) const;

  // Appends the spam request f→victim, drawing the response from the
  // victim's propensity. Returns true when accepted (an attack edge).
  // Preconditions: f a fake, victim legit, pair untried.
  bool SendSpamRequest(graph::NodeId f, graph::NodeId victim);

  // Appends an accepted intra-fake link f→g (collusion). No-op when the
  // pair was already tried in either direction.
  void AddCollusionLink(graph::NodeId f, graph::NodeId g);

  // Spam accounting (fake→legit requests only; collusion excluded).
  std::uint64_t SpamRequestsSent(graph::NodeId f) const;
  std::uint64_t SpamAccepted(graph::NodeId f) const;

  util::Rng& Rng() noexcept { return rng_; }

 private:
  void MarkTried(graph::NodeId sender, graph::NodeId receiver);

  const graph::SocialGraph* legit_;
  TemporalEvalConfig config_;
  graph::NodeId num_legit_ = 0;
  RequestLog log_;
  std::vector<char> is_fake_;
  std::vector<double> propensity_;
  std::vector<graph::NodeId> spammers_;
  std::vector<std::unordered_set<graph::NodeId>> tried_;
  std::vector<std::uint64_t> spam_sent_;
  std::vector<std::uint64_t> spam_accepted_;
  util::Rng rng_;
};

// Per-node propensity draw (exposed for tests and custom worlds): careless
// patches first, uniform band for the rest. Returns one entry per node of
// `legit_graph`.
std::vector<double> DrawPropensities(const graph::SocialGraph& legit_graph,
                                     const PropensityConfig& config,
                                     util::Rng& rng);

// The attacker. One instance drives all spammers of a world (they collude:
// probe intel is shared), emitting one interval of requests at a time and
// adapting to (a) its own request outcomes and (b) the flagged mask the
// harness feeds back after each detection epoch.
class AdaptiveAdversary {
 public:
  explicit AdaptiveAdversary(TemporalWorld& world);

  // Emits interval `interval`'s requests into the world. `flagged` is the
  // current detection mask (empty before the first epoch; otherwise sized
  // to world.NumNodes()); flagged spammers are suspended and emit nothing.
  // Returns the number of spam requests emitted.
  std::uint64_t EmitInterval(int interval, const std::vector<char>& flagged);

 private:
  struct SpammerState {
    std::vector<graph::NodeId> frontier;  // retarget: pending targets
    std::size_t frontier_pos = 0;
    std::uint32_t recent_rejections = 0;  // slow drip: cool-down trigger
  };

  bool Flagged(const std::vector<char>& flagged, graph::NodeId v) const {
    return v < flagged.size() && flagged[v] != 0;
  }
  // A uniformly random untried legit victim, or kInvalidNode when the
  // rejection sampling budget runs out (near-exhausted target space).
  graph::NodeId RandomUntriedVictim(graph::NodeId f);
  // Sends one request, records outcome intel shared across the collusion
  // (accepter pool, per-spammer frontier growth, drip cool-down).
  bool SendAndObserve(graph::NodeId f, graph::NodeId victim,
                      SpammerState& state);

  std::uint64_t EmitStatic(const std::vector<char>& flagged);
  std::uint64_t EmitProbeThenFlood(int interval,
                                   const std::vector<char>& flagged);
  std::uint64_t EmitRetarget(const std::vector<char>& flagged);
  std::uint64_t EmitSlowDrip(const std::vector<char>& flagged);

  TemporalWorld& world_;
  std::vector<SpammerState> state_;            // parallel to Spammers()
  std::vector<char> is_known_accepter_;        // shared probe intel
  std::vector<graph::NodeId> known_accepters_;
};

}  // namespace rejecto::sim
