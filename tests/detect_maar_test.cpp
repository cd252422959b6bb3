#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "detect/iterative.h"
#include "detect/maar.h"
#include "gen/erdos_renyi.h"
#include "graph/builder.h"
#include "metrics/classification.h"
#include "sim/scenario.h"
#include "util/rng.h"

namespace rejecto::detect {
namespace {

// Legit clique 0..11, fake clique 12..19 with 2 attack edges and 10
// rejections from legit onto fakes -> planted MAAR ratio 2/10 = 0.2.
graph::AugmentedGraph PlantedGraph() {
  graph::GraphBuilder b(20);
  auto clique = [&](graph::NodeId lo, graph::NodeId hi) {
    for (graph::NodeId u = lo; u < hi; ++u) {
      for (graph::NodeId v = u + 1; v < hi; ++v) b.AddFriendship(u, v);
    }
  };
  clique(0, 12);
  clique(12, 20);
  b.AddFriendship(0, 12);
  b.AddFriendship(1, 13);
  for (graph::NodeId f = 12; f < 17; ++f) {
    b.AddRejection(2, f);
    b.AddRejection(3, f);
  }
  return b.BuildAugmented();
}

MaarConfig SmallConfig() {
  MaarConfig cfg;
  cfg.min_region_size = 2;
  cfg.seed = 5;
  return cfg;
}

TEST(MaarSolverTest, FindsPlantedCut) {
  const auto g = PlantedGraph();
  MaarSolver solver(g, {}, SmallConfig());
  const MaarCut cut = solver.Solve();
  ASSERT_TRUE(cut.valid);
  EXPECT_NEAR(cut.ratio, 0.2, 1e-9);
  for (graph::NodeId v = 0; v < 12; ++v) EXPECT_EQ(cut.in_u[v], 0) << v;
  for (graph::NodeId v = 12; v < 20; ++v) EXPECT_EQ(cut.in_u[v], 1) << v;
  EXPECT_GT(cut.kl_runs, 0);
}

TEST(MaarSolverTest, RecordsCutQuantitiesConsistently) {
  const auto g = PlantedGraph();
  MaarSolver solver(g, {}, SmallConfig());
  const MaarCut cut = solver.Solve();
  ASSERT_TRUE(cut.valid);
  const auto oracle = g.ComputeCut(cut.in_u);
  EXPECT_EQ(cut.cut.cross_friendships, oracle.cross_friendships);
  EXPECT_EQ(cut.cut.rejections_into_u, oracle.rejections_into_u);
  EXPECT_NEAR(cut.ratio, oracle.FriendsToRejectionsRatio(), 1e-12);
}

TEST(MaarSolverTest, NoRejectionsMeansInvalid) {
  graph::GraphBuilder b(12);
  for (graph::NodeId u = 0; u < 12; ++u) {
    for (graph::NodeId v = u + 1; v < 12; ++v) b.AddFriendship(u, v);
  }
  const auto g = b.BuildAugmented();
  MaarSolver solver(g, {}, SmallConfig());
  EXPECT_FALSE(solver.Solve().valid);
}

TEST(MaarSolverTest, FeasibleMinRegionSizeIsHonored) {
  // min_region_size = 9 is feasible on 20 nodes (9 vs 11), so the size-8
  // planted group is no longer a valid cut; any reported cut must respect
  // the bound (and therefore have a worse ratio than the planted 0.2).
  const auto g = PlantedGraph();
  MaarConfig cfg = SmallConfig();
  cfg.min_region_size = 9;
  MaarSolver solver(g, {}, cfg);
  const MaarCut cut = solver.Solve();
  if (cut.valid) {
    graph::NodeId size_u = 0;
    for (char c : cut.in_u) size_u += (c != 0);
    EXPECT_GE(size_u, 9u);
    EXPECT_GE(g.NumNodes() - size_u, 9u);
    EXPECT_GT(cut.ratio, 0.2);
  }
}

TEST(MaarSolverTest, InfeasibleMinRegionSizeClampsToHalf) {
  // min_region_size = 15 cannot fit both sides of 20 nodes; the clamp caps
  // it at n/2 = 10, keeping the problem solvable.
  const auto g = PlantedGraph();
  MaarConfig cfg = SmallConfig();
  cfg.min_region_size = 15;
  MaarSolver solver(g, {}, cfg);
  const MaarCut cut = solver.Solve();
  if (cut.valid) {
    graph::NodeId size_u = 0;
    for (char c : cut.in_u) size_u += (c != 0);
    EXPECT_GE(size_u, 10u);
  }
}

TEST(MaarSolverTest, MaxRegionFractionRejectsComplementCuts) {
  // A graph where a few heavy rejectors make "everyone else" a spuriously
  // low-ratio region: the fraction cap must refuse it.
  graph::GraphBuilder b(32);
  for (graph::NodeId u = 0; u < 32; ++u) {
    b.AddFriendship(u, (u + 1) % 32);  // sparse ring
  }
  // Nodes 0 and 1 reject nearly everyone.
  for (graph::NodeId v = 2; v < 32; ++v) {
    b.AddRejection(0, v);
    b.AddRejection(1, v);
  }
  const auto g = b.BuildAugmented();
  MaarConfig cfg = SmallConfig();
  cfg.max_region_fraction = 0.6;
  MaarSolver solver(g, {}, cfg);
  const MaarCut cut = solver.Solve();
  if (cut.valid) {
    graph::NodeId size_u = 0;
    for (char c : cut.in_u) size_u += (c != 0);
    EXPECT_LE(static_cast<double>(size_u), 0.6 * 32.0);
  }
}

TEST(MaarSolverTest, SeedsValidatedAtConstruction) {
  const auto g = PlantedGraph();
  Seeds bad;
  bad.legit = {99};
  EXPECT_THROW(MaarSolver(g, bad, SmallConfig()), std::invalid_argument);
  Seeds overlap;
  overlap.legit = {1};
  overlap.spammer = {1};
  EXPECT_THROW(MaarSolver(g, overlap, SmallConfig()), std::invalid_argument);
}

TEST(MaarSolverTest, InvalidSweepThrows) {
  const auto g = PlantedGraph();
  MaarConfig cfg = SmallConfig();
  cfg.k_scale = 1.0;
  EXPECT_THROW(MaarSolver(g, {}, cfg), std::invalid_argument);
  MaarConfig cfg2 = SmallConfig();
  cfg2.k_min = -1;
  EXPECT_THROW(MaarSolver(g, {}, cfg2), std::invalid_argument);
  // NaN slips past `k_min <= 0`-style checks (every comparison with it is
  // false), and an infinite k_max would make the sweep endless.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::pair<const char*, std::function<void(MaarConfig&)>>>
      bad = {
          {"NaN k_min", [&](MaarConfig& c) { c.k_min = nan; }},
          {"NaN k_max", [&](MaarConfig& c) { c.k_max = nan; }},
          {"NaN k_scale", [&](MaarConfig& c) { c.k_scale = nan; }},
          {"infinite k_max", [&](MaarConfig& c) { c.k_max = inf; }},
          {"infinite k_scale", [&](MaarConfig& c) { c.k_scale = inf; }},
          {"zero k_min", [&](MaarConfig& c) { c.k_min = 0; }},
          {"k_max below k_min", [&](MaarConfig& c) { c.k_max = c.k_min / 2; }},
          // Finite but endless sweeps: refused from the config alone, so
          // the constructor throws before any sweep is built.
          {"k_scale 1 + 1e-12", [&](MaarConfig& c) { c.k_scale = 1 + 1e-12; }},
          {"tiny k_min, huge k_max",
           [&](MaarConfig& c) {
             c.k_min = std::numeric_limits<double>::denorm_min();
             c.k_max = std::numeric_limits<double>::max();
           }},
          {"4,629 k values",
           [&](MaarConfig& c) {
             c.k_min = 1e-10;
             c.k_max = 1e10;
             c.k_scale = 1.01;
           }},
          {"too many grid cells",
           [&](MaarConfig& c) { c.num_random_inits = 100'000; }},
      };
  for (const auto& [name, mutate] : bad) {
    SCOPED_TRACE(name);
    MaarConfig c = SmallConfig();
    mutate(c);
    EXPECT_THROW(MaarSolver(g, {}, c), std::invalid_argument);
  }
  // k_max == k_min is a one-k sweep, not an error.
  MaarConfig one_k = SmallConfig();
  one_k.k_max = one_k.k_min;
  EXPECT_NO_THROW(MaarSolver(g, {}, one_k));
  // A long sweep well inside the caps (~558 k values) still validates.
  MaarConfig fine = SmallConfig();
  fine.k_min = 1.0 / 16.0;
  fine.k_max = 16.0;
  fine.k_scale = 1.01;
  EXPECT_NO_THROW(MaarSolver(g, {}, fine));
}

TEST(MaarSolverTest, SeedPinningOverridesBadLocalMinima) {
  // Give legit node 2 (a heavy rejector) a spammer-looking position by
  // seeding: a legit seed placed on node 2 must keep it out of U.
  const auto g = PlantedGraph();
  Seeds seeds;
  seeds.legit = {2};
  seeds.spammer = {12};
  MaarSolver solver(g, seeds, SmallConfig());
  const MaarCut cut = solver.Solve();
  ASSERT_TRUE(cut.valid);
  EXPECT_EQ(cut.in_u[2], 0);
  EXPECT_EQ(cut.in_u[12], 1);
}

TEST(MaarSolverTest, DinkelbachRefinementNeverWorsens) {
  const auto g = PlantedGraph();
  MaarConfig no_refine = SmallConfig();
  no_refine.dinkelbach_rounds = 0;
  MaarConfig refine = SmallConfig();
  refine.dinkelbach_rounds = 4;
  const MaarCut a = MaarSolver(g, {}, no_refine).Solve();
  const MaarCut b = MaarSolver(g, {}, refine).Solve();
  ASSERT_TRUE(a.valid);
  ASSERT_TRUE(b.valid);
  EXPECT_LE(b.ratio, a.ratio + 1e-12);
}

// ---------- iterative detection ----------

// Two disjoint fake groups with different acceptance rates plus a legit
// region; iterative detection should find both across rounds.
graph::AugmentedGraph TwoGroupGraph() {
  graph::GraphBuilder b(36);
  auto clique = [&](graph::NodeId lo, graph::NodeId hi) {
    for (graph::NodeId u = lo; u < hi; ++u) {
      for (graph::NodeId v = u + 1; v < hi; ++v) b.AddFriendship(u, v);
    }
  };
  clique(0, 20);   // legit
  clique(20, 28);  // fake group A: ratio 1/10
  clique(28, 36);  // fake group B: ratio 2/8
  b.AddFriendship(0, 20);
  for (graph::NodeId f = 20; f < 25; ++f) {
    b.AddRejection(1, f);
    b.AddRejection(2, f);
  }
  b.AddFriendship(3, 28);
  b.AddFriendship(4, 29);
  for (graph::NodeId f = 28; f < 32; ++f) {
    b.AddRejection(5, f);
    b.AddRejection(6, f);
  }
  return b.BuildAugmented();
}

TEST(IterativeTest, FindsDisjointGroupsAcrossRounds) {
  const auto g = TwoGroupGraph();
  IterativeConfig cfg;
  cfg.maar = SmallConfig();
  cfg.target_detections = 16;
  const auto result = DetectFriendSpammers(g, {}, cfg);
  EXPECT_TRUE(result.hit_target);
  EXPECT_EQ(result.detected.size(), 16u);
  EXPECT_GE(result.rounds.size(), 2u);
  std::vector<char> truth(36, 0);
  for (graph::NodeId v = 20; v < 36; ++v) truth[v] = 1;
  const auto cm = metrics::EvaluateDetection(truth, result.detected);
  EXPECT_EQ(cm.true_positives, 16u);
  EXPECT_EQ(cm.false_positives, 0u);
}

TEST(IterativeTest, RoundsHaveNonDecreasingRatios) {
  const auto g = TwoGroupGraph();
  IterativeConfig cfg;
  cfg.maar = SmallConfig();
  cfg.target_detections = 16;
  const auto result = DetectFriendSpammers(g, {}, cfg);
  for (std::size_t i = 1; i < result.rounds.size(); ++i) {
    EXPECT_GE(result.rounds[i].ratio, result.rounds[i - 1].ratio - 1e-9);
  }
}

TEST(IterativeTest, AcceptanceThresholdStopsEarly) {
  const auto g = TwoGroupGraph();
  IterativeConfig cfg;
  cfg.maar = SmallConfig();
  cfg.target_detections = 16;
  // Group A has acceptance 1/11; group B 2/10. Threshold between them
  // stops after the first group.
  cfg.acceptance_rate_threshold = 0.15;
  const auto result = DetectFriendSpammers(g, {}, cfg);
  EXPECT_EQ(result.rounds.size(), 1u);
  EXPECT_EQ(result.detected.size(), 8u);
  for (graph::NodeId v : result.detected) {
    EXPECT_GE(v, 20u);
    EXPECT_LT(v, 28u);
  }
}

TEST(IterativeTest, TrimToTargetExact) {
  const auto g = TwoGroupGraph();
  IterativeConfig cfg;
  cfg.maar = SmallConfig();
  cfg.target_detections = 5;  // less than the first group's 8
  const auto result = DetectFriendSpammers(g, {}, cfg);
  EXPECT_TRUE(result.hit_target);
  EXPECT_EQ(result.detected.size(), 5u);
}

TEST(IterativeTest, ZeroTargetRunsUntilNoValidCut) {
  const auto g = TwoGroupGraph();
  IterativeConfig cfg;
  cfg.maar = SmallConfig();
  cfg.target_detections = 0;
  cfg.max_rounds = 10;
  const auto result = DetectFriendSpammers(g, {}, cfg);
  // Both fake groups (and possibly more) get cut before cuts become invalid.
  EXPECT_GE(result.detected.size(), 16u);
}

TEST(IterativeTest, DetectedIdsAreOriginalIds) {
  const auto g = TwoGroupGraph();
  IterativeConfig cfg;
  cfg.maar = SmallConfig();
  cfg.target_detections = 16;
  const auto result = DetectFriendSpammers(g, {}, cfg);
  for (graph::NodeId v : result.detected) EXPECT_LT(v, 36u);
  // No duplicates.
  auto sorted = result.detected;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
}

TEST(IterativeTest, SelfRejectionWhitewashCaughtInLaterRound) {
  // Fakes split into senders (20..27) and whitewashed (28..35). Senders get
  // legit rejections AND heavy whitewash rejections; whitewashed get only
  // legit rejections. The crafted inner cut surfaces first; pruning it must
  // expose the whitewashed group next.
  graph::GraphBuilder b(36);
  auto clique = [&](graph::NodeId lo, graph::NodeId hi) {
    for (graph::NodeId u = lo; u < hi; ++u) {
      for (graph::NodeId v = u + 1; v < hi; ++v) b.AddFriendship(u, v);
    }
  };
  clique(0, 20);
  clique(20, 28);
  clique(28, 36);
  b.AddFriendship(0, 20);  // attack edges of senders
  b.AddFriendship(1, 28);  // attack edge of whitewashed
  // Legit rejections on both groups (spam campaign).
  for (graph::NodeId f = 20; f < 28; ++f) b.AddRejection(2, f);
  for (graph::NodeId f = 28; f < 36; ++f) b.AddRejection(3, f);
  // Whitewash: heavy rejections from whitewashed onto senders, few accepted
  // links between the halves.
  b.AddFriendship(20, 28);
  for (graph::NodeId s = 20; s < 28; ++s) {
    for (graph::NodeId w = 28; w < 36; w += 2) b.AddRejection(w, s);
  }
  const auto g = b.BuildAugmented();

  IterativeConfig cfg;
  cfg.maar = SmallConfig();
  cfg.target_detections = 16;
  const auto result = DetectFriendSpammers(g, {}, cfg);
  EXPECT_TRUE(result.hit_target);
  std::vector<char> truth(36, 0);
  for (graph::NodeId v = 20; v < 36; ++v) truth[v] = 1;
  const auto cm = metrics::EvaluateDetection(truth, result.detected);
  EXPECT_EQ(cm.true_positives, 16u);
  // First round must be the whitewash-crafted inner cut (the senders).
  ASSERT_GE(result.rounds.size(), 2u);
  for (graph::NodeId v : result.rounds[0].detected) {
    EXPECT_GE(v, 20u);
    EXPECT_LT(v, 28u);
  }
}

}  // namespace
}  // namespace rejecto::detect
