// Sub-epoch incremental scoring (detect/incremental.h and the DeltaGraph /
// EpochDetector seam): the O(deg) gain must be EXACTLY the objective delta
// W(U ∪ {s}) − W(U) against the batch ComputeCut oracle, the overlay-aware
// detector variant must match the compacted-CSR variant with events still
// in the overlay, and — the acceptance bar — the incremental classification
// must agree with a full re-detection's round-0 membership on at least 95%
// of clearly-shaped new senders. The whole-epoch table the admission
// service serves from (ScoreAllSenders) must equal the per-sender walk bit
// for bit at every pool width.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "detect/incremental.h"
#include "detect/iterative.h"
#include "engine/epoch_detector.h"
#include "gen/erdos_renyi.h"
#include "graph/builder.h"
#include "sim/scenario.h"
#include "stream/delta_graph.h"
#include "stream/mutation_log.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace rejecto {
namespace {

double Objective(const graph::AugmentedGraph& g, const std::vector<char>& u,
                 double k) {
  const graph::CutQuantities cut = g.ComputeCut(u);
  return static_cast<double>(cut.cross_friendships) -
         k * static_cast<double>(cut.rejections_into_u);
}

sim::Scenario SmallScenario(std::uint64_t seed) {
  util::Rng rng(seed + 17);
  const auto legit =
      gen::ErdosRenyi({.num_nodes = 400, .num_edges = 1600}, rng);
  sim::ScenarioConfig cfg;
  cfg.seed = seed * 5 + 3;
  cfg.num_fakes = 80;
  return sim::BuildScenario(legit, cfg);
}

// ---------- exact-gain oracle ----------

TEST(IncrementalScoreTest, GainIsExactObjectiveDelta) {
  const auto scenario = SmallScenario(1);
  const graph::AugmentedGraph& g = scenario.graph;
  util::Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<char> in_u(g.NumNodes(), 0);
    for (graph::NodeId v = 0; v < g.NumNodes(); ++v) {
      in_u[v] = rng.NextBool(0.2) ? 1 : 0;
    }
    const double k = rng.NextDouble(0.25, 4.0);
    auto s = static_cast<graph::NodeId>(rng.NextUInt(g.NumNodes()));
    in_u[s] = 0;  // score a sender outside U

    const auto score = detect::ScoreSenderIncremental(g, in_u, k, s);
    std::vector<char> with_s = in_u;
    with_s[s] = 1;
    const double oracle = Objective(g, with_s, k) - Objective(g, in_u, k);
    EXPECT_NEAR(score.gain, oracle, 1e-9) << "trial " << trial << " s=" << s;
    EXPECT_EQ(score.suspicious, score.gain < 0.0);
  }
}

TEST(IncrementalScoreTest, MemberOfMaskIsSuspiciousWithZeroGain) {
  const auto scenario = SmallScenario(2);
  std::vector<char> in_u(scenario.graph.NumNodes(), 0);
  in_u[7] = 1;
  const auto score = detect::ScoreSenderIncremental(scenario.graph, in_u,
                                                    1.0, 7);
  EXPECT_TRUE(score.suspicious);
  EXPECT_EQ(score.gain, 0.0);
}

TEST(IncrementalScoreTest, RejectsInvalidArguments) {
  const auto scenario = SmallScenario(3);
  const graph::AugmentedGraph& g = scenario.graph;
  std::vector<char> in_u(g.NumNodes(), 0);
  EXPECT_THROW(detect::ScoreSenderIncremental(g, in_u, 0.0, 0),
               std::invalid_argument);
  EXPECT_THROW(detect::ScoreSenderIncremental(g, in_u, -1.0, 0),
               std::invalid_argument);
  EXPECT_THROW(detect::ScoreSenderIncremental(g, in_u, 1.0, g.NumNodes()),
               std::out_of_range);
  std::vector<char> short_mask(g.NumNodes() - 1, 0);
  EXPECT_THROW(detect::ScoreSenderIncremental(g, short_mask, 1.0, 0),
               std::invalid_argument);
  EXPECT_THROW(detect::ScoreAllSenders(g, short_mask, 1.0),
               std::invalid_argument);
  EXPECT_THROW(detect::ScoreAllSenders(g, in_u, 0.0), std::invalid_argument);
  EXPECT_THROW(detect::ScoreAllSenders(g, in_u, std::nan("")),
               std::invalid_argument);
}

// ---------- the whole-epoch table ----------

// A random augmented graph in which about half the ids carry no edge at
// all (isolated accounts), with friendships and rejections drawn over the
// rest.
graph::AugmentedGraph RandomSparseGraph(util::Rng& rng) {
  const auto n = static_cast<graph::NodeId>(rng.NextUInt(300));
  graph::GraphBuilder b(n);
  if (n >= 2) {
    const auto active = static_cast<graph::NodeId>(n / 2 + 1);
    const std::uint64_t edges = rng.NextUInt(4 * active);
    for (std::uint64_t e = 0; e < edges; ++e) {
      const auto u = static_cast<graph::NodeId>(rng.NextUInt(active));
      const auto v = static_cast<graph::NodeId>(rng.NextUInt(active));
      if (u == v) continue;
      if (rng.NextBool(0.6)) {
        b.AddFriendship(u, v);
      } else {
        b.AddRejection(u, v);
      }
    }
  }
  return b.BuildAugmented();
}

// ScoreAllSenders(g, mask, k, pool)[s] is ScoreSenderIncremental(g, mask,
// k, s).gain bit for bit, for every sender of 120 random graphs (attack
// scenarios and sparse graphs with isolated nodes, empty, full and random
// masks, four weights k), with no pool and on pools of 1, 2 and 8 workers.
TEST(IncrementalScoreTest, ScoreAllSendersEqualsTheWalkForEverySender) {
  std::vector<std::unique_ptr<util::ThreadPool>> pools;
  pools.push_back(nullptr);
  for (std::size_t width : {1u, 2u, 8u}) {
    pools.push_back(std::make_unique<util::ThreadPool>(width));
  }
  constexpr double kWeights[] = {0.25, 1.0, 2.5, 7.3};
  util::Rng rng(4242);
  std::size_t scored = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const graph::AugmentedGraph g =
        trial % 4 == 0 ? SmallScenario(100 + trial).graph
                       : RandomSparseGraph(rng);
    const graph::NodeId n = g.NumNodes();
    std::vector<char> mask(n, 0);
    switch (trial % 3) {
      case 0:
        break;  // empty mask
      case 1:
        mask.assign(n, 1);  // full mask
        break;
      default: {
        const double density = rng.NextDouble(0.05, 0.6);
        for (char& m : mask) m = rng.NextBool(density) ? 1 : 0;
      }
    }
    const double k = kWeights[(trial / 3) % 4];
    for (const auto& pool : pools) {
      const std::vector<double> table =
          detect::ScoreAllSenders(g, mask, k, pool.get());
      ASSERT_EQ(table.size(), n);
      for (graph::NodeId s = 0; s < n; ++s) {
        const detect::IncrementalScore walk =
            detect::ScoreSenderIncremental(g, mask, k, s);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(table[s]),
                  std::bit_cast<std::uint64_t>(walk.gain))
            << "trial " << trial << " sender " << s << " k " << k
            << " pool " << (pool ? pool->size() : 0);
        ASSERT_EQ(mask[s] != 0 || table[s] < 0.0, walk.suspicious);
      }
      scored += n;
    }
  }
  EXPECT_GT(scored, 0u);
}

// ---------- the overlay-aware detector variant ----------

TEST(IncrementalScoreTest, DetectorScoreMatchesCsrScoreWithOverlayEvents) {
  const auto scenario = SmallScenario(4);
  util::Rng seed_rng(11);
  const auto seeds = scenario.SampleSeeds(15, 5, seed_rng);

  engine::EpochConfig ecfg;
  ecfg.detect.target_detections = scenario.num_fakes;
  ecfg.detect.maar.seed = 23;
  ecfg.events_per_epoch = 0;
  engine::EpochDetector det(scenario.graph, seeds, ecfg);
  det.RunEpoch();
  ASSERT_TRUE(det.HasIncrementalBaseline());

  // New sender joins AFTER the baseline epoch; its entire history sits in
  // the un-compacted overlay.
  const graph::NodeId s = scenario.graph.NumNodes();
  util::Rng rng(5);
  for (int i = 0; i < 6; ++i) {
    const auto v = static_cast<graph::NodeId>(
        rng.NextUInt(scenario.num_legit));
    det.Ingest({stream::EventType::kReject, s, v});
    det.Ingest({stream::EventType::kAccept, s,
                static_cast<graph::NodeId>(scenario.num_legit +
                                           rng.NextUInt(scenario.num_fakes))});
  }
  const auto overlay_score = det.ScoreSenderIncremental(s);

  // Compacting must not change the answer (visitors read effective rows).
  const std::vector<char> mask = det.IncrementalMask();
  const double k = det.IncrementalK();
  // Rebuild the same overlay on a standalone DeltaGraph, compact it into a
  // full CSR, and score against the pure-CSR implementation.
  util::Rng rng2(5);
  stream::DeltaGraph delta(scenario.graph);
  for (int i = 0; i < 6; ++i) {
    const auto v = static_cast<graph::NodeId>(
        rng2.NextUInt(scenario.num_legit));
    delta.Apply({stream::EventType::kReject, s, v});
    delta.Apply({stream::EventType::kAccept, s,
                 static_cast<graph::NodeId>(
                     scenario.num_legit + rng2.NextUInt(scenario.num_fakes))});
  }
  delta.Compact();
  std::vector<char> grown_mask = mask;
  grown_mask.resize(delta.Graph().NumNodes(), 0);
  const auto csr_score =
      detect::ScoreSenderIncremental(delta.Graph(), grown_mask, k, s);
  EXPECT_NEAR(overlay_score.gain, csr_score.gain, 1e-12);
  EXPECT_EQ(overlay_score.suspicious, csr_score.suspicious);
}

// The detector's fast path (a sender no event touched since the last
// compaction walks its base CSR rows directly) must give bit-identical
// gains to the unconditional overlay walk, for every sender: touched and
// untouched, in and out of the baseline mask.
TEST(IncrementalScoreTest, FastPathMatchesOverlayWalkForEverySender) {
  const auto scenario = SmallScenario(5);
  util::Rng seed_rng(13);
  const auto seeds = scenario.SampleSeeds(15, 5, seed_rng);

  engine::EpochConfig ecfg;
  ecfg.detect.target_detections = scenario.num_fakes;
  ecfg.detect.maar.seed = 23;
  ecfg.events_per_epoch = 0;
  engine::EpochDetector det(scenario.graph, seeds, ecfg);
  det.RunEpoch();
  ASSERT_TRUE(det.HasIncrementalBaseline());

  // Post-epoch trickle: a few fresh friendships leave most senders on the
  // fast path.
  const graph::NodeId n = det.Graph().NumNodes();
  util::Rng rng(57);
  for (int i = 0; i < 12; ++i) {
    const auto a = static_cast<graph::NodeId>(rng.NextUInt(n));
    const auto b = static_cast<graph::NodeId>(rng.NextUInt(n));
    if (a != b) det.Ingest({stream::EventType::kAddFriend, a, b});
  }

  const stream::DeltaGraph& delta = det.Graph();
  const std::vector<char>& mask = det.IncrementalMask();
  const double k = det.IncrementalK();
  const auto side = [&](graph::NodeId v) {
    return v < mask.size() && mask[v] != 0;
  };
  int touched = 0;
  for (graph::NodeId s = 0; s < n; ++s) {
    double expect = 0.0;
    if (!side(s)) {
      std::int64_t delta_friend = 0;
      std::int64_t delta_rej = 0;
      delta.ForEachFriend(
          s, [&](graph::NodeId f) { delta_friend += side(f) ? -1 : +1; });
      delta.ForEachRejector(s, [&](graph::NodeId r) {
        if (!side(r)) ++delta_rej;
      });
      delta.ForEachRejectee(s, [&](graph::NodeId t) {
        if (side(t)) --delta_rej;
      });
      expect = static_cast<double>(delta_friend) -
               k * static_cast<double>(delta_rej);
    }
    if (delta.OverlayTouched(s)) ++touched;
    ASSERT_EQ(det.ScoreSenderIncremental(s).gain, expect) << "sender " << s;
  }
  EXPECT_GT(touched, 0);
  EXPECT_LT(touched, static_cast<int>(n));
}

TEST(IncrementalScoreTest, DetectorThrowsWithoutBaseline) {
  const auto scenario = SmallScenario(5);
  util::Rng seed_rng(11);
  const auto seeds = scenario.SampleSeeds(15, 5, seed_rng);
  engine::EpochConfig ecfg;
  ecfg.detect.target_detections = scenario.num_fakes;
  ecfg.events_per_epoch = 0;
  engine::EpochDetector det(scenario.graph, seeds, ecfg);
  EXPECT_FALSE(det.HasIncrementalBaseline());
  EXPECT_THROW(det.ScoreSenderIncremental(0), std::logic_error);
}

// ---------- agreement with full re-detection (the acceptance bar) ----------

// New senders with a clear shape — spammy (mostly-rejected requests plus
// friendships into the fake region) or benign (accepted requests to
// legitimate users) — must be classified by the O(deg) incremental score
// the same way a full batch re-detection's round-0 region places them, on
// at least 95% of samples. The floor is pinned; a regression in either the
// solver or the incremental math trips it.
TEST(IncrementalScoreTest, AgreesWithFullRedetectionOnNewSenders) {
  const auto scenario = SmallScenario(6);
  detect::IterativeConfig dcfg;
  dcfg.target_detections = scenario.num_fakes;
  dcfg.maar.seed = 23;
  util::Rng seed_rng(11);
  const auto seeds = scenario.SampleSeeds(15, 5, seed_rng);

  const auto base = detect::DetectFriendSpammers(scenario.graph, seeds, dcfg);
  ASSERT_FALSE(base.rounds.empty());
  const double k = base.rounds.front().k;
  std::vector<char> mask(scenario.graph.NumNodes() + 1, 0);
  for (graph::NodeId v : base.rounds.front().detected) mask[v] = 1;

  util::Rng rng(2718);
  const graph::NodeId s = scenario.graph.NumNodes();  // the new sender's id
  int trials = 0;
  int agreements = 0;
  for (int t = 0; t < 40; ++t) {
    const bool spammy = (t % 2) == 0;
    sim::RequestLog log(s + 1);
    for (const sim::FriendRequest& r : scenario.log.Requests()) {
      log.Add(r.sender, r.receiver, r.response);
    }
    if (spammy) {
      for (std::uint64_t v :
           rng.SampleWithoutReplacement(scenario.num_legit, 10)) {
        log.Add(s, static_cast<graph::NodeId>(v),
                rng.NextBool(0.75) ? sim::Response::kRejected
                                   : sim::Response::kAccepted);
      }
      for (std::uint64_t f :
           rng.SampleWithoutReplacement(scenario.num_fakes, 5)) {
        log.Add(s, static_cast<graph::NodeId>(scenario.num_legit + f),
                sim::Response::kAccepted);
      }
    } else {
      for (std::uint64_t v :
           rng.SampleWithoutReplacement(scenario.num_legit, 8)) {
        log.Add(s, static_cast<graph::NodeId>(v),
                rng.NextBool(0.9) ? sim::Response::kAccepted
                                  : sim::Response::kRejected);
      }
    }
    const graph::AugmentedGraph with_s = log.BuildAugmentedGraph();
    const auto incr = detect::ScoreSenderIncremental(with_s, mask, k, s);

    // Full re-detection sees one more account in its population estimate.
    detect::IterativeConfig rcfg = dcfg;
    rcfg.target_detections = scenario.num_fakes + 1;
    const auto redetect = detect::DetectFriendSpammers(with_s, seeds, rcfg);
    ASSERT_FALSE(redetect.rounds.empty());
    bool in_round0 = false;
    for (graph::NodeId v : redetect.rounds.front().detected) {
      if (v == s) in_round0 = true;
    }
    ++trials;
    if (in_round0 == incr.suspicious) ++agreements;
  }
  const double agreement =
      static_cast<double>(agreements) / static_cast<double>(trials);
  EXPECT_GE(agreement, 0.95) << agreements << "/" << trials;
}

}  // namespace
}  // namespace rejecto
