// Property tests for the fused FM inner loop: Partition::SwitchFused +
// BucketList::Adjust against (a) a faithful reimplementation of the unfused
// Switch-then-refresh loop and (b) the O(E+R) AugmentedGraph::ComputeCut
// oracle after every single switch. The fused kernel must be bit-identical
// — same masks, same cut integers, same pass/switch counts — because the
// PR determinism suite pins MaarCut masks across thread counts on top of
// it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "detect/bucket_list.h"
#include "detect/extended_kl.h"
#include "detect/partition.h"
#include "graph/builder.h"
#include "util/buffer.h"
#include "util/rng.h"

namespace rejecto::detect {
namespace {

constexpr double kGainEps = 1e-7;  // matches extended_kl.cpp

// Random augmented graph with deliberately overlapping relations: a pair
// can be friends AND rejector/rejectee in both directions, which is exactly
// the case where a fused switch touches the same neighbor through several
// adjacency lists.
graph::AugmentedGraph RandomOverlappingGraph(graph::NodeId n,
                                             std::size_t edges,
                                             std::size_t arcs,
                                             util::Rng& rng) {
  graph::GraphBuilder b(n);
  for (std::size_t e = 0; e < edges; ++e) {
    const auto u = static_cast<graph::NodeId>(rng.NextUInt(n));
    auto v = static_cast<graph::NodeId>(rng.NextUInt(n));
    if (u == v) v = (v + 1) % n;
    b.AddFriendship(u, v);
    // Half the friendships also carry a rejection between the same pair.
    if (rng.NextBool(0.5)) b.AddRejection(u, v);
    if (rng.NextBool(0.25)) b.AddRejection(v, u);  // mutual rejection
  }
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

double GainBound(const graph::AugmentedGraph& g, double k) {
  return std::max(1.0, static_cast<double>(g.MaxFriendshipDegree()) +
                           k * static_cast<double>(g.MaxRejectionDegree()));
}

// The pre-fusion inner loop, verbatim: full Switch, then a refresh sweep
// over the three adjacency lists with Contains+Update.
KlResult ReferenceKl(const graph::AugmentedGraph& g,
                     std::vector<char> init_in_u,
                     const std::vector<char>& locked,
                     const KlConfig& config) {
  const graph::NodeId n = g.NumNodes();
  auto is_locked = [&](graph::NodeId v) {
    return !locked.empty() && locked[v] != 0;
  };
  Partition p(g, std::move(init_in_u));
  const double k = config.k;
  const double gain_bound = GainBound(g, k);
  const auto& fr = g.Friendships();
  const auto& rej = g.Rejections();

  KlStats stats;
  std::vector<graph::NodeId> seq;
  seq.reserve(n);
  for (int pass = 0; pass < config.max_passes; ++pass) {
    ++stats.passes;
    BucketList bl(n, gain_bound, config.gain_resolution);
    for (graph::NodeId v = 0; v < n; ++v) {
      if (!is_locked(v)) bl.Insert(v, -p.DeltaObjective(v, k));
    }
    seq.clear();
    double cum = 0.0;
    double best_cum = 0.0;
    std::size_t best_prefix = 0;
    auto refresh = [&](graph::NodeId w) {
      if (bl.Contains(w)) bl.Update(w, -p.DeltaObjective(w, k));
    };
    while (!bl.Empty()) {
      const graph::NodeId v = bl.PopMax();
      const double gain = -p.DeltaObjective(v, k);
      p.Switch(v);
      seq.push_back(v);
      cum += gain;
      if (cum > best_cum + kGainEps) {
        best_cum = cum;
        best_prefix = seq.size();
      }
      for (graph::NodeId w : fr.Neighbors(v)) refresh(w);
      for (graph::NodeId w : rej.Rejectors(v)) refresh(w);
      for (graph::NodeId w : rej.Rejectees(v)) refresh(w);
    }
    for (std::size_t i = seq.size(); i > best_prefix; --i) {
      p.Switch(seq[i - 1]);
    }
    stats.switches_applied += best_prefix;
    if (best_prefix == 0) break;
  }
  KlResult result;
  result.cut = p.Quantities();
  stats.final_objective = p.Objective(k);
  result.stats = stats;
  result.in_u = p.Mask();
  return result;
}

void ExpectBitIdentical(const KlResult& a, const KlResult& b) {
  ASSERT_EQ(a.in_u, b.in_u);
  EXPECT_EQ(a.cut.cross_friendships, b.cut.cross_friendships);
  EXPECT_EQ(a.cut.rejections_into_u, b.cut.rejections_into_u);
  EXPECT_EQ(a.cut.rejections_from_u, b.cut.rejections_from_u);
  EXPECT_EQ(a.stats.passes, b.stats.passes);
  EXPECT_EQ(a.stats.switches_applied, b.stats.switches_applied);
  // Same integers through the same expression ⇒ the doubles must be
  // bitwise equal, not merely near.
  EXPECT_EQ(a.stats.final_objective, b.stats.final_objective);
}

TEST(FusedKlTest, MatchesUnfusedReferenceOnRandomGraphs) {
  util::Rng rng(2024);
  const double ks[] = {0.25, 1.0, 3.5};
  for (int trial = 0; trial < 30; ++trial) {
    const auto n = static_cast<graph::NodeId>(20 + rng.NextUInt(40));
    const auto g = RandomOverlappingGraph(n, 3 * n, 2 * n, rng);
    const auto init = RandomMask(n, rng.NextDouble(), rng);
    for (double k : ks) {
      const KlConfig cfg{.k = k};
      const auto fused = ExtendedKl(g, init, {}, cfg);
      const auto ref = ReferenceKl(g, init, {}, cfg);
      ExpectBitIdentical(fused, ref);
    }
  }
}

TEST(FusedKlTest, MatchesReferenceWithLockedSeeds) {
  util::Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    const graph::NodeId n = 40;
    const auto g = RandomOverlappingGraph(n, 120, 80, rng);
    auto init = RandomMask(n, 0.3, rng);
    auto locked = RandomMask(n, 0.15, rng);
    const KlConfig cfg{.k = 1.0};
    const auto fused = ExtendedKl(g, init, locked, cfg);
    const auto ref = ReferenceKl(g, init, locked, cfg);
    ExpectBitIdentical(fused, ref);
    for (graph::NodeId v = 0; v < n; ++v) {
      if (locked[v]) {
        EXPECT_EQ(fused.in_u[v], init[v]);
      }
    }
  }
}

// Node 0 rejects nodes 1..m, which form a friendship path; nodes
// m+1..m+extra are friends of node 0 only. With node 0 locked in Ū and k = 3,
// a path node gains at least 1 by entering U whatever its path neighbours
// do, and a node past m loses exactly 1. So from the all-Ū start the first
// pass switches the m path nodes, then the `extra` losers, and keeps
// exactly the first m switches; the second pass keeps none.
graph::AugmentedGraph PathUnderOneRejector(graph::NodeId m,
                                           graph::NodeId extra) {
  graph::GraphBuilder b(1 + m + extra);
  for (graph::NodeId v = 1; v <= m; ++v) {
    b.AddRejection(0, v);
    if (v < m) b.AddFriendship(v, v + 1);
  }
  for (graph::NodeId v = m + 1; v <= m + extra; ++v) b.AddFriendship(0, v);
  return b.BuildAugmented();
}

// The kept prefix of a pass is replayed after a rewind to the pass start;
// these pin its three shapes (the whole pass, nothing, most of the pass)
// against the reference's switch-by-switch rollback.
void ExpectKeptPrefix(graph::NodeId m, graph::NodeId extra,
                      bool start_in_u, int passes,
                      std::uint64_t switches_applied) {
  const graph::NodeId n = 1 + m + extra;
  const auto g = PathUnderOneRejector(m, extra);
  std::vector<char> init(n, 0);
  if (start_in_u) std::fill(init.begin() + 1, init.begin() + 1 + m, 1);
  std::vector<char> locked(n, 0);
  locked[0] = 1;
  const KlConfig cfg{.k = 3.0};
  const auto fused = ExtendedKl(g, init, locked, cfg);
  ExpectBitIdentical(fused, ReferenceKl(g, init, locked, cfg));
  EXPECT_EQ(fused.stats.passes, passes);
  EXPECT_EQ(fused.stats.switches_applied, switches_applied);
  for (graph::NodeId v = 0; v < n; ++v) {
    EXPECT_EQ(fused.in_u[v], v >= 1 && v <= m ? 1 : 0) << "node " << v;
  }
}

TEST(FusedKlTest, KeptPrefixIsTheWholePass) {
  ExpectKeptPrefix(/*m=*/12, /*extra=*/0, /*start_in_u=*/false,
                   /*passes=*/2, /*switches_applied=*/12);
}

TEST(FusedKlTest, KeptPrefixIsEmptyAtTheOptimum) {
  // U = the path is the global minimum (no cross friendship, every
  // rejection counted), so the first pass keeps nothing and is the last.
  ExpectKeptPrefix(12, 5, /*start_in_u=*/true, 1, 0);
}

TEST(FusedKlTest, KeptPrefixIsMoreThanHalfThePass) {
  // 12 of the first pass's 17 switches are kept.
  ExpectKeptPrefix(12, 5, /*start_in_u=*/false, 2, 12);
}

// Per-switch oracle: replay a fused switch sequence and after EVERY switch
// check (a) the incremental cut totals against ComputeCut and (b) every
// present node's bucket against a fresh quantization of its exact gain.
TEST(FusedKlTest, PerSwitchOracleOnRecordedSequence) {
  util::Rng rng(51);
  const graph::NodeId n = 30;
  const auto g = RandomOverlappingGraph(n, 90, 60, rng);
  const double k = 1.5;
  const double resolution = 64.0;
  const auto init = RandomMask(n, 0.4, rng);

  Partition p(g, init);
  BucketList bl(n, GainBound(g, k), resolution);
  for (graph::NodeId v = 0; v < n; ++v) {
    bl.Insert(v, -p.DeltaObjective(v, k));
  }
  util::AlignedVector<graph::NodeId> touched;
  int switches = 0;
  while (!bl.Empty() && switches < 200) {
    const graph::NodeId v = bl.PopMax();
    p.SwitchFused(v, k, bl, touched);
    ++switches;

    const auto oracle = g.ComputeCut(p.Mask());
    const auto q = p.Quantities();
    ASSERT_EQ(q.cross_friendships, oracle.cross_friendships);
    ASSERT_EQ(q.rejections_into_u, oracle.rejections_into_u);
    ASSERT_EQ(q.rejections_from_u, oracle.rejections_from_u);

    for (graph::NodeId w = 0; w < n; ++w) {
      if (!bl.Contains(w)) continue;
      ASSERT_EQ(bl.BucketOf(w), bl.Quantize(-p.DeltaObjective(w, k)))
          << "stale bucket for node " << w << " after switch " << switches;
    }
  }
  EXPECT_GT(switches, 0);
}

// Scratch reuse must never change results: cold scratch, warm scratch from
// the same graph, and a dirty scratch that last served a different,
// larger graph all agree with the scratch-free call.
TEST(FusedKlTest, ScratchReuseIsResultInvariant) {
  util::Rng rng(88);
  const auto big = RandomOverlappingGraph(80, 300, 200, rng);
  const auto small = RandomOverlappingGraph(33, 100, 70, rng);
  const auto big_init = RandomMask(80, 0.5, rng);
  const auto small_init = RandomMask(33, 0.35, rng);
  const KlConfig cfg{.k = 2.0};

  const auto baseline = ExtendedKl(small, small_init, {}, cfg);

  KlScratch scratch;
  const auto cold = ExtendedKl(small, small_init, {}, cfg, &scratch);
  ExpectBitIdentical(cold, baseline);
  const auto warm = ExtendedKl(small, small_init, {}, cfg, &scratch);
  ExpectBitIdentical(warm, baseline);

  // Dirty the scratch on a different (larger) graph, then reuse.
  (void)ExtendedKl(big, big_init, {}, cfg, &scratch);
  const auto after_big = ExtendedKl(small, small_init, {}, cfg, &scratch);
  ExpectBitIdentical(after_big, baseline);
}

// The workspace's buffers must actually be reused: capacities reached on a
// large graph survive a Reset to a smaller one.
TEST(FusedKlTest, ScratchCapacityIsReusedAcrossResets) {
  BucketList bl(100, 50.0, 64.0);
  const std::size_t node_cap = bl.NodeCapacity();
  const std::size_t bucket_cap = bl.BucketCapacity();
  bl.Insert(3, 1.0);
  bl.Insert(7, -2.0);
  EXPECT_EQ(bl.PopMax(), 3u);
  EXPECT_EQ(bl.PopMax(), 7u);
  // Drained ⇒ the empty-invariant fast path: geometry shrinks, capacity
  // doesn't.
  bl.Reset(10, 5.0, 64.0);
  EXPECT_EQ(bl.NodeCapacity(), node_cap);
  EXPECT_EQ(bl.BucketCapacity(), bucket_cap);
  EXPECT_TRUE(bl.Empty());
  bl.Insert(2, 4.0);
  bl.Insert(9, 4.5);
  EXPECT_EQ(bl.PopMax(), 9u);
  EXPECT_EQ(bl.PopMax(), 2u);
}

// Adjust semantics: absent nodes are ignored, same-bucket updates keep
// LIFO position, and cross-bucket moves relink at the new bucket's head.
TEST(FusedKlTest, AdjustMatchesContainsPlusUpdate) {
  BucketList a(8, 10.0, 64.0);
  BucketList b(8, 10.0, 64.0);
  for (graph::NodeId v = 0; v < 6; ++v) {
    a.Insert(v, 1.0);
    b.Insert(v, 1.0);
  }
  // Absent node: no-op on both paths.
  a.Adjust(7, 5.0);
  if (b.Contains(7)) b.Update(7, 5.0);
  // Same-bucket and cross-bucket moves.
  const double gains[] = {1.0, -3.0, 1.0, 9.5, -3.0, 2.0};
  for (graph::NodeId v = 0; v < 6; ++v) {
    a.Adjust(v, gains[v]);
    if (b.Contains(v)) b.Update(v, gains[v]);
  }
  while (!a.Empty()) {
    ASSERT_EQ(a.PopMax(), b.PopMax());
  }
  EXPECT_TRUE(b.Empty());
}

}  // namespace
}  // namespace rejecto::detect
