#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "detect/partition.h"
#include "gen/erdos_renyi.h"
#include "graph/builder.h"
#include "util/rng.h"

namespace rejecto::detect {
namespace {

// Random augmented graph: ER friendships plus random rejection arcs.
graph::AugmentedGraph RandomAugmented(graph::NodeId n, graph::EdgeId edges,
                                      std::size_t arcs, util::Rng& rng) {
  graph::GraphBuilder b(n);
  const auto social = gen::ErdosRenyi({.num_nodes = n, .num_edges = edges},
                                      rng);
  for (const auto& e : social.Edges()) b.AddFriendship(e.u, e.v);
  for (std::size_t i = 0; i < arcs; ++i) {
    const auto u = static_cast<graph::NodeId>(rng.NextUInt(n));
    auto v = static_cast<graph::NodeId>(rng.NextUInt(n));
    if (u == v) v = (v + 1) % n;
    b.AddRejection(u, v);
  }
  return b.BuildAugmented();
}

std::vector<char> RandomMask(graph::NodeId n, double p, util::Rng& rng) {
  std::vector<char> m(n, 0);
  for (auto& c : m) c = rng.NextBool(p) ? 1 : 0;
  return m;
}

TEST(PartitionTest, InitialQuantitiesMatchOracle) {
  util::Rng rng(1);
  const auto g = RandomAugmented(40, 120, 80, rng);
  const auto mask = RandomMask(40, 0.4, rng);
  Partition p(g, mask);
  const auto oracle = g.ComputeCut(mask);
  const auto q = p.Quantities();
  EXPECT_EQ(q.cross_friendships, oracle.cross_friendships);
  EXPECT_EQ(q.rejections_into_u, oracle.rejections_into_u);
  EXPECT_EQ(q.rejections_from_u, oracle.rejections_from_u);
}

TEST(PartitionTest, SizeUTracked) {
  util::Rng rng(2);
  const auto g = RandomAugmented(20, 40, 20, rng);
  std::vector<char> mask(20, 0);
  mask[3] = mask[7] = 1;
  Partition p(g, mask);
  EXPECT_EQ(p.SizeU(), 2u);
  p.Switch(3);
  EXPECT_EQ(p.SizeU(), 1u);
  p.Switch(0);
  EXPECT_EQ(p.SizeU(), 2u);
  EXPECT_FALSE(p.InU(3));
  EXPECT_TRUE(p.InU(0));
}

TEST(PartitionTest, MaskSizeMismatchThrows) {
  util::Rng rng(3);
  const auto g = RandomAugmented(10, 20, 10, rng);
  EXPECT_THROW(Partition(g, std::vector<char>(5, 0)), std::invalid_argument);
}

TEST(PartitionTest, SwitchOutOfRangeThrows) {
  util::Rng rng(4);
  const auto g = RandomAugmented(10, 20, 10, rng);
  Partition p(g, std::vector<char>(10, 0));
  EXPECT_THROW(p.Switch(10), std::out_of_range);
}

TEST(PartitionTest, DoubleSwitchIsIdentity) {
  util::Rng rng(5);
  const auto g = RandomAugmented(30, 80, 50, rng);
  const auto mask = RandomMask(30, 0.5, rng);
  Partition p(g, mask);
  const auto before = p.Quantities();
  p.Switch(11);
  p.Switch(11);
  const auto after = p.Quantities();
  EXPECT_EQ(before.cross_friendships, after.cross_friendships);
  EXPECT_EQ(before.rejections_into_u, after.rejections_into_u);
  EXPECT_EQ(p.Mask(), mask);
}

void ExpectSameState(const Partition& got, const Partition& want,
                     const char* when) {
  ASSERT_EQ(got.Mask(), want.Mask()) << when;
  EXPECT_EQ(got.SizeU(), want.SizeU()) << when;
  const auto q = got.Quantities();
  const auto w = want.Quantities();
  EXPECT_EQ(q.cross_friendships, w.cross_friendships) << when;
  EXPECT_EQ(q.rejections_into_u, w.rejections_into_u) << when;
  EXPECT_EQ(q.rejections_from_u, w.rejections_from_u) << when;
  for (const double k : {0.3, 1.0, 7.5}) {
    EXPECT_EQ(got.Objective(k), want.Objective(k)) << when;
    for (graph::NodeId v = 0; v < got.NumNodes(); ++v) {
      ASSERT_EQ(got.DeltaObjective(v, k), want.DeltaObjective(v, k))
          << when << ": node " << v << " at k " << k;
    }
  }
}

// Rewind after an FM-like pass (each node switched at most once, in random
// order) must land exactly on the marked state: every gain, total, size and
// mask byte equals a fresh Partition on the marked mask, and so does every
// state reached by switching on from there (the side bits came back too).
TEST(PartitionTest, RewindRestoresMarkedStateExactly) {
  util::Rng rng(404);
  Partition p;
  Partition::Checkpoint cp;
  for (int trial = 0; trial < 20; ++trial) {
    const graph::NodeId n = 10 + static_cast<graph::NodeId>(rng.NextUInt(50));
    const auto g =
        RandomAugmented(n, static_cast<graph::EdgeId>(n) * 3, n * 2, rng);
    // Reused across graphs of different sizes, like a KL workspace.
    p.Reset(g, RandomMask(n, rng.NextDouble(), rng));
    for (int warmup = 0; warmup < 5; ++warmup) {
      p.Switch(static_cast<graph::NodeId>(rng.NextUInt(n)));
    }
    const std::vector<char> marked = p.Mask();
    p.Mark(cp);

    std::vector<graph::NodeId> order(n);
    std::iota(order.begin(), order.end(), 0);
    for (graph::NodeId i = n; i > 1; --i) {
      std::swap(order[i - 1], order[rng.NextUInt(i)]);
    }
    // Empty, partial and whole passes.
    const std::size_t switched =
        trial % 4 == 0 ? 0 : trial % 4 == 1 ? n : rng.NextUInt(n + 1);
    for (std::size_t i = 0; i < switched; ++i) p.Switch(order[i]);
    p.Rewind(cp, order.data(), switched);

    Partition fresh(g, marked);
    ExpectSameState(p, fresh, "after rewind");
    for (int step = 0; step < 3 * static_cast<int>(n); ++step) {
      const auto v = static_cast<graph::NodeId>(rng.NextUInt(n));
      p.Switch(v);
      fresh.Switch(v);
    }
    ExpectSameState(p, fresh, "after switching on from the rewind");
  }
}

// Property: after any random switch sequence, the incrementally-maintained
// totals equal the O(E) oracle recomputation.
class PartitionPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(PartitionPropertyTest, IncrementalTotalsMatchOracleAfterSwitches) {
  util::Rng rng(GetParam());
  const graph::NodeId n = 20 + static_cast<graph::NodeId>(rng.NextUInt(40));
  const auto g =
      RandomAugmented(n, static_cast<graph::EdgeId>(n) * 3, n * 2, rng);
  const auto mask = RandomMask(n, 0.3, rng);
  Partition p(g, mask);
  for (int step = 0; step < 200; ++step) {
    p.Switch(static_cast<graph::NodeId>(rng.NextUInt(n)));
    if (step % 20 == 0) {
      const auto oracle = g.ComputeCut(p.Mask());
      const auto q = p.Quantities();
      ASSERT_EQ(q.cross_friendships, oracle.cross_friendships) << "step " << step;
      ASSERT_EQ(q.rejections_into_u, oracle.rejections_into_u) << "step " << step;
      ASSERT_EQ(q.rejections_from_u, oracle.rejections_from_u) << "step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, PartitionPropertyTest,
                         ::testing::Range<std::uint64_t>(0, 12));

// Property: DeltaObjective(v) equals the objective difference measured by
// actually switching v and recomputing from scratch.
class DeltaObjectivePropertyTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DeltaObjectivePropertyTest, DeltaMatchesRecomputedDifference) {
  util::Rng rng(GetParam() + 100);
  const graph::NodeId n = 15 + static_cast<graph::NodeId>(rng.NextUInt(25));
  const auto g =
      RandomAugmented(n, static_cast<graph::EdgeId>(n) * 2, n * 2, rng);
  const auto mask = RandomMask(n, 0.5, rng);
  const double k = 0.25 + rng.NextDouble() * 4.0;

  Partition p(g, mask);
  for (graph::NodeId v = 0; v < n; ++v) {
    const double before = p.Objective(k);
    const double predicted = p.DeltaObjective(v, k);
    p.Switch(v);
    const double after = p.Objective(k);
    ASSERT_NEAR(after - before, predicted, 1e-9) << "node " << v;
    p.Switch(v);  // restore
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, DeltaObjectivePropertyTest,
                         ::testing::Range<std::uint64_t>(0, 12));

}  // namespace
}  // namespace rejecto::detect
