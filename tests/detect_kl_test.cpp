#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "detect/extended_kl.h"
#include "detect/maar.h"
#include "detect/partition.h"
#include "gen/erdos_renyi.h"
#include "graph/builder.h"
#include "util/rng.h"

namespace rejecto::detect {
namespace {

// Two dense communities with a spam pattern: fakes (ids 10..19) have a few
// attack edges into legit (0..9) and many rejections from legit.
graph::AugmentedGraph PlantedSpamGraph() {
  graph::GraphBuilder b(20);
  auto clique = [&](graph::NodeId lo, graph::NodeId hi) {
    for (graph::NodeId u = lo; u < hi; ++u) {
      for (graph::NodeId v = u + 1; v < hi; ++v) b.AddFriendship(u, v);
    }
  };
  clique(0, 10);
  clique(10, 20);
  // 3 attack edges.
  b.AddFriendship(0, 10);
  b.AddFriendship(1, 11);
  b.AddFriendship(2, 12);
  // 12 rejections from legit onto fakes.
  for (graph::NodeId f = 10; f < 16; ++f) {
    b.AddRejection(3, f);
    b.AddRejection(4, f);
  }
  return b.BuildAugmented();
}

TEST(ExtendedKlTest, RecoversPlantedCutFromAllZeroInit) {
  const auto g = PlantedSpamGraph();
  const KlConfig cfg{.k = 1.0};
  const auto r = ExtendedKl(g, std::vector<char>(20, 0), {}, cfg);
  // Optimal W = 3 - 1*12 = -9 at the planted cut.
  std::vector<char> expected(20, 0);
  for (graph::NodeId f = 10; f < 20; ++f) expected[f] = 1;
  EXPECT_EQ(r.in_u, expected);
  EXPECT_EQ(r.cut.cross_friendships, 3u);
  EXPECT_EQ(r.cut.rejections_into_u, 12u);
  EXPECT_DOUBLE_EQ(r.stats.final_objective, -9.0);
}

TEST(ExtendedKlTest, ResultObjectiveNeverWorseThanInit) {
  util::Rng rng(1);
  for (std::uint64_t trial = 0; trial < 10; ++trial) {
    graph::GraphBuilder b(30);
    const auto social =
        gen::ErdosRenyi({.num_nodes = 30, .num_edges = 90}, rng);
    for (const auto& e : social.Edges()) b.AddFriendship(e.u, e.v);
    for (int i = 0; i < 40; ++i) {
      const auto u = static_cast<graph::NodeId>(rng.NextUInt(30));
      const auto v = static_cast<graph::NodeId>(rng.NextUInt(30));
      if (u != v) b.AddRejection(u, v);
    }
    const auto g = b.BuildAugmented();
    std::vector<char> init(30, 0);
    for (auto& c : init) c = rng.NextBool(0.5) ? 1 : 0;
    const double k = 0.5 + rng.NextDouble() * 2;

    Partition p(g, init);
    const double init_obj = p.Objective(k);
    const auto r = ExtendedKl(g, init, {}, KlConfig{.k = k});
    EXPECT_LE(r.stats.final_objective, init_obj + 1e-9);
  }
}

TEST(ExtendedKlTest, ReportedCutMatchesMask) {
  const auto g = PlantedSpamGraph();
  const auto r = ExtendedKl(g, std::vector<char>(20, 0), {}, KlConfig{.k = 2.0});
  const auto oracle = g.ComputeCut(r.in_u);
  EXPECT_EQ(r.cut.cross_friendships, oracle.cross_friendships);
  EXPECT_EQ(r.cut.rejections_into_u, oracle.rejections_into_u);
  EXPECT_EQ(r.cut.rejections_from_u, oracle.rejections_from_u);
}

TEST(ExtendedKlTest, LockedSeedsNeverSwitch) {
  const auto g = PlantedSpamGraph();
  std::vector<char> init(20, 0);
  std::vector<char> locked(20, 0);
  // Pin legit node 5 into U and fake 15 into W — on the "wrong" sides.
  init[5] = 1;
  locked[5] = 1;
  locked[15] = 1;
  const auto r = ExtendedKl(g, init, {}, KlConfig{.k = 1.0});
  // Without locks KL would move them; with locks they must stay.
  const auto locked_r = ExtendedKl(g, init, locked, KlConfig{.k = 1.0});
  EXPECT_EQ(locked_r.in_u[5], 1);
  EXPECT_EQ(locked_r.in_u[15], 0);
  (void)r;
}

TEST(ExtendedKlTest, InvalidKThrows) {
  const auto g = PlantedSpamGraph();
  EXPECT_THROW(ExtendedKl(g, std::vector<char>(20, 0), {}, KlConfig{.k = 0.0}),
               std::invalid_argument);
  EXPECT_THROW(
      ExtendedKl(g, std::vector<char>(20, 0), {}, KlConfig{.k = -1.0}),
      std::invalid_argument);
  // A NaN k makes every gain NaN, which has no bucket.
  EXPECT_THROW(ExtendedKl(g, std::vector<char>(20, 0), {},
                          KlConfig{.k = std::numeric_limits<double>::quiet_NaN()}),
               std::invalid_argument);
}

TEST(ExtendedKlTest, BadLockSizeThrows) {
  const auto g = PlantedSpamGraph();
  EXPECT_THROW(ExtendedKl(g, std::vector<char>(20, 0), std::vector<char>(3, 0),
                          KlConfig{.k = 1.0}),
               std::invalid_argument);
}

TEST(ExtendedKlTest, NoRejectionsConvergesToTrivialCut) {
  // With no rejections, W(U) = |F(Ū,U)| >= 0 and the best value is 0: KL
  // must drain any initial region to a zero-cross cut.
  graph::GraphBuilder b(8);
  for (graph::NodeId u = 0; u < 8; ++u) {
    for (graph::NodeId v = u + 1; v < 8; ++v) b.AddFriendship(u, v);
  }
  const auto g = b.BuildAugmented();
  std::vector<char> init(8, 0);
  init[0] = init[1] = 1;
  const auto r = ExtendedKl(g, init, {}, KlConfig{.k = 1.0});
  EXPECT_EQ(r.cut.cross_friendships, 0u);
}

// Brute-force optimality check: on tiny graphs KL (multi-init via MAAR's
// machinery is not used here, so allow KL from the heuristic init) should
// reach the exhaustive optimum of the linear objective for the planted
// structure. We assert it is within the best 5% of all cuts, and exactly
// optimal when starting from the all-rejected heuristic.
double BruteForceBestObjective(const graph::AugmentedGraph& g, double k) {
  const graph::NodeId n = g.NumNodes();
  double best = std::numeric_limits<double>::infinity();
  for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
    std::vector<char> in_u(n, 0);
    for (graph::NodeId v = 0; v < n; ++v) in_u[v] = (mask >> v) & 1;
    const auto q = g.ComputeCut(in_u);
    best = std::min(best, static_cast<double>(q.cross_friendships) -
                              k * static_cast<double>(q.rejections_into_u));
  }
  return best;
}

class KlBruteForceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KlBruteForceTest, ReachesExhaustiveOptimumOnTinyGraphs) {
  util::Rng rng(GetParam() + 500);
  const graph::NodeId n = 10;
  graph::GraphBuilder b(n);
  const auto social = gen::ErdosRenyi({.num_nodes = n, .num_edges = 18}, rng);
  for (const auto& e : social.Edges()) b.AddFriendship(e.u, e.v);
  for (int i = 0; i < 14; ++i) {
    const auto u = static_cast<graph::NodeId>(rng.NextUInt(n));
    const auto v = static_cast<graph::NodeId>(rng.NextUInt(n));
    if (u != v) b.AddRejection(u, v);
  }
  const auto g = b.BuildAugmented();
  const double k = 0.5 + rng.NextDouble() * 1.5;
  const double optimum = BruteForceBestObjective(g, k);

  // KL from several inits: best of them should match the optimum on graphs
  // this small (the heuristic is near-exact at n=10).
  double best_kl = std::numeric_limits<double>::infinity();
  std::vector<std::vector<char>> inits;
  inits.emplace_back(n, 0);
  std::vector<char> heur(n, 0);
  for (graph::NodeId v = 0; v < n; ++v) {
    heur[v] = g.Rejections().InDegree(v) > 0 ? 1 : 0;
  }
  inits.push_back(heur);
  for (int t = 0; t < 4; ++t) {
    std::vector<char> m(n, 0);
    for (auto& c : m) c = rng.NextBool(0.5) ? 1 : 0;
    inits.push_back(m);
  }
  for (const auto& init : inits) {
    const auto r = ExtendedKl(g, init, {}, KlConfig{.k = k});
    best_kl = std::min(best_kl, r.stats.final_objective);
  }
  EXPECT_NEAR(best_kl, optimum, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, KlBruteForceTest,
                         ::testing::Range<std::uint64_t>(0, 10));

}  // namespace
}  // namespace rejecto::detect
