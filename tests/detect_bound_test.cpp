// The exact pass stop of detect::ExtendedKl (detect/pass_bound.h).
//
// A pass stops once no set of still-unpopped nodes can lift the cumulative
// gain past the best prefix. These tests pin that the stop changes nothing
// but the work done: against a test-local kernel that pops every node of
// every pass, the production kernel must return the same mask, cut, pass
// count, kept switches and objective, bit for bit, on a zoo of graphs, at
// dyadic, Dinkelbach-ratio and warm-halo weights, with and without locks,
// in each SIMD mode. On graphs of at most 12 nodes a brute force over every
// subset of the unpopped nodes checks the bound itself at every step.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "detect/bucket_list.h"
#include "detect/extended_kl.h"
#include "detect/partition.h"
#include "detect/pass_bound.h"
#include "detect/seeds.h"
#include "gen/barabasi_albert.h"
#include "gen/erdos_renyi.h"
#include "gen/forest_fire.h"
#include "gen/holme_kim.h"
#include "gen/watts_strogatz.h"
#include "graph/builder.h"
#include "sim/scenario.h"
#include "util/buffer.h"
#include "util/rng.h"
#include "util/simd.h"

namespace rejecto::detect {
namespace {

using util::simd::SimdMode;

constexpr double kGainEps = 1e-7;  // matches detect/extended_kl_impl.h

double GainBound(const graph::AugmentedGraph& g, double k) {
  return std::max(1.0, static_cast<double>(g.MaxFriendshipDegree()) +
                           k * static_cast<double>(g.MaxRejectionDegree()));
}

// Algorithm 1 with every pass run to the end: the fused switch, the best
// prefix kept by undoing the rest switch by switch. switches_tried counts
// every pop, so it is the full-pass count the production kernel saves on.
KlResult FullPassKl(const graph::AugmentedGraph& g,
                    const std::vector<char>& init_in_u,
                    const std::vector<char>& locked, const KlConfig& config) {
  const graph::NodeId n = g.NumNodes();
  const double k = config.k;
  Partition p(g, init_in_u);
  BucketList bl;
  util::AlignedVector<graph::NodeId> touched;
  std::vector<graph::NodeId> seq;
  KlStats stats;
  for (int pass = 0; pass < config.max_passes; ++pass) {
    ++stats.passes;
    bl.Reset(n, GainBound(g, k), config.gain_resolution);
    for (graph::NodeId v = 0; v < n; ++v) {
      if (locked.empty() || locked[v] == 0) {
        bl.Insert(v, -p.DeltaObjective(v, k));
      }
    }
    seq.clear();
    double cum = 0.0;
    double best_cum = 0.0;
    std::size_t best_prefix = 0;
    while (!bl.Empty()) {
      const graph::NodeId v = bl.PopMax();
      const double gain = -p.DeltaObjective(v, k);
      p.SwitchFused(v, k, bl, touched);
      seq.push_back(v);
      cum += gain;
      if (cum > best_cum + kGainEps) {
        best_cum = cum;
        best_prefix = seq.size();
      }
    }
    stats.switches_tried += seq.size();
    for (std::size_t i = seq.size(); i > best_prefix; --i) p.Switch(seq[i - 1]);
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

void ExpectSameCut(const KlResult& got, const KlResult& full) {
  ASSERT_EQ(got.in_u, full.in_u);
  EXPECT_EQ(got.cut.cross_friendships, full.cut.cross_friendships);
  EXPECT_EQ(got.cut.rejections_into_u, full.cut.rejections_into_u);
  EXPECT_EQ(got.cut.rejections_from_u, full.cut.rejections_from_u);
  EXPECT_EQ(got.stats.passes, full.stats.passes);
  EXPECT_EQ(got.stats.switches_applied, full.stats.switches_applied);
  EXPECT_EQ(got.stats.final_objective, full.stats.final_objective);
  EXPECT_LE(got.stats.switches_tried, full.stats.switches_tried);
}

template <class Fn>
void ForEachSimdMode(Fn&& body) {
  const SimdMode prev = util::simd::ActiveMode();
  for (SimdMode mode : {SimdMode::kScalar, SimdMode::kAvx2}) {
    SCOPED_TRACE(util::simd::ModeName(mode));
    util::simd::SetModeForTest(mode);
    body();
  }
  util::simd::SetModeForTest(prev);
}

graph::SocialGraph LegitGraph(int family, graph::NodeId n, util::Rng& rng) {
  switch (family) {
    case 0:
      return gen::BarabasiAlbert({.num_nodes = n, .edges_per_node = 3.0}, rng);
    case 1:
      return gen::ErdosRenyi({.num_nodes = n, .num_edges = 3ull * n}, rng);
    case 2:
      return gen::WattsStrogatz(
          {.num_nodes = n, .lattice_degree = 6, .rewire_probability = 0.1},
          rng);
    case 3:
      return gen::ForestFire(
          {.num_nodes = n, .burn_probability = 0.35, .max_burn_per_node = 40},
          rng);
    default:
      return gen::HolmeKim(
          {.num_nodes = n, .edges_per_node = 3.0, .triad_probability = 0.5},
          rng);
  }
}

const char* const kFamilies[] = {"barabasi_albert", "erdos_renyi",
                                 "watts_strogatz", "forest_fire", "holme_kim"};

// The §VI-A attack and three of the paper's variants on top of it.
sim::ScenarioConfig Attack(int variant, graph::NodeId fakes,
                           std::uint64_t seed) {
  sim::ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.num_fakes = fakes;
  switch (variant) {
    case 1:  // Fig 10: half the fakes spam
      cfg.spamming_fraction = 0.5;
      break;
    case 2:  // Fig 14: self-rejection whitewash
      cfg.whitewashed_fakes = fakes / 2;
      cfg.self_rejection_rate = 0.8;
      break;
    case 3:  // Fig 15: spammers reject legitimate requests
      cfg.legit_requests_rejected_by_fakes = 4ull * fakes;
      break;
    default:
      break;
  }
  return cfg;
}

// Dyadic sweep weights, the weight a Dinkelbach round takes from a cut's
// ratio, and a warm epoch's halo around it (ratio times k_scale^±1).
std::vector<double> Weights(const graph::AugmentedGraph& g,
                            const std::vector<char>& cut_mask) {
  const double ratio = g.ComputeCut(cut_mask).FriendsToRejectionsRatio();
  std::vector<double> ks = {1.0 / 16.0, 0.5, 1.0, 4.0, 16.0};
  if (std::isfinite(ratio) && ratio > 0.0) {
    ks.insert(ks.end(), {ratio, ratio / 2.0, ratio * 2.0});
  }
  return ks;
}

TEST(PassBoundTest, StoppedPassesMatchFullPassesOnTheZoo) {
  std::uint64_t tried = 0;
  std::uint64_t full_tried = 0;
  int runs = 0;
  for (int family = 0; family < 5; ++family) {
    for (int variant = 0; variant < 4; ++variant) {
      const std::uint64_t seed = 100 + 10 * family + variant;
      util::Rng rng(seed);
      const graph::NodeId legit = 240;
      const sim::Scenario sc = sim::BuildScenario(
          LegitGraph(family, legit, rng), Attack(variant, legit / 10, seed));
      const graph::AugmentedGraph& g = sc.graph;
      const graph::NodeId n = g.NumNodes();
      const Seeds seeds = sc.SampleSeeds(12, 4, rng);
      const std::vector<char> locks = BuildLockedMask(n, seeds);

      std::vector<char> random_init(n, 0);
      for (auto& c : random_init) c = rng.NextBool(0.25) ? 1 : 0;
      for (const bool locked : {false, true}) {
        for (std::vector<char> init : {sc.is_fake, random_init}) {
          if (locked) {
            for (graph::NodeId v : seeds.legit) init[v] = 0;
            for (graph::NodeId v : seeds.spammer) init[v] = 1;
          }
          const std::vector<char> lock = locked ? locks : std::vector<char>{};
          for (const double k : Weights(g, sc.is_fake)) {
            SCOPED_TRACE(std::string(kFamilies[family]) + " attack " +
                         std::to_string(variant) + " k " + std::to_string(k) +
                         (locked ? " locked" : ""));
            const KlConfig cfg{.k = k};
            const KlResult full = FullPassKl(g, init, lock, cfg);
            KlScratch scratch;  // reused across modes: results must not care
            ForEachSimdMode([&] {
              const KlResult got = ExtendedKl(g, init, lock, cfg, &scratch);
              ExpectSameCut(got, full);
              tried += got.stats.switches_tried;
              full_tried += full.stats.switches_tried;
              ++runs;
            });
          }
        }
      }
    }
  }
  // The stop must actually save pops across the zoo, not just match.
  EXPECT_LT(tried, full_tried) << runs << " runs";
}

TEST(PassBoundTest, StopsEarlyOnTheAttackGraph) {
  util::Rng rng(42);
  const sim::Scenario sc = sim::BuildScenario(
      gen::HolmeKim(
          {.num_nodes = 4000, .edges_per_node = 8.0, .triad_probability = 0.5},
          rng),
      Attack(0, 400, 43));
  const graph::AugmentedGraph& g = sc.graph;
  const Seeds seeds = sc.SampleSeeds(100, 30, rng);
  const std::vector<char> locked = BuildLockedMask(g.NumNodes(), seeds);
  std::vector<char> init(g.NumNodes(), 0);
  for (auto& c : init) c = rng.NextBool(0.25) ? 1 : 0;
  for (graph::NodeId v : seeds.legit) init[v] = 0;
  for (graph::NodeId v : seeds.spammer) init[v] = 1;
  for (const double k : {0.25, 1.0, 4.0}) {
    SCOPED_TRACE(k);
    const KlConfig cfg{.k = k};
    const KlResult full = FullPassKl(g, init, locked, cfg);
    const KlResult got = ExtendedKl(g, init, locked, cfg);
    ExpectSameCut(got, full);
    EXPECT_LT(got.stats.switches_tried, full.stats.switches_tried);
    EXPECT_GE(got.stats.switches_tried, got.stats.switches_applied);
  }
}

// ---- The bound itself, by brute force on tiny graphs ----

// A random graph whose pairs may be friends and reject each other either
// way or both, so one switch reaches a neighbour through several rows.
graph::AugmentedGraph TinyGraph(graph::NodeId n, util::Rng& rng) {
  graph::GraphBuilder b(n);
  const std::size_t edges = 2 * n;
  for (std::size_t e = 0; e < edges; ++e) {
    const auto u = static_cast<graph::NodeId>(rng.NextUInt(n));
    auto v = static_cast<graph::NodeId>(rng.NextUInt(n));
    if (u == v) v = (v + 1) % n;
    if (rng.NextBool(0.7)) b.AddFriendship(u, v);
    if (rng.NextBool(0.4)) b.AddRejection(u, v);
    if (rng.NextBool(0.2)) b.AddRejection(v, u);
  }
  return b.BuildAugmented();
}

// W(U) = |F| − k·|R⃗| of `mask`, as the gain reference: the integer parts
// exact, one rounding for k.
double Objective(const graph::AugmentedGraph& g, const std::vector<char>& mask,
                 double k) {
  const graph::CutQuantities q = g.ComputeCut(mask);
  return static_cast<double>(q.cross_friendships) -
         k * static_cast<double>(q.rejections_into_u);
}

// f and r of every node of `present` against the current mask, from
// scratch: friends on its own side and rejection arcs to the other side,
// counting only nodes that are present or locked (the kernel counts locked
// neighbours as movable).
PassBound FreshBound(const graph::AugmentedGraph& g, const Partition& p,
                     const std::vector<char>& present,
                     const std::vector<char>& locked, double k) {
  const graph::NodeId n = g.NumNodes();
  const auto counted = [&](graph::NodeId w) {
    return present[w] != 0 || (!locked.empty() && locked[w] != 0);
  };
  PassBound b;
  b.Configure(n, k, g.MaxFriendshipDegree(), g.MaxRejectionDegree(),
              g.Friendships().NumEdges(), g.Rejections().NumArcs());
  b.BeginPass();
  for (graph::NodeId v = 0; v < n; ++v) {
    if (!present[v]) continue;
    std::uint32_t f = 0;
    std::uint32_t r = 0;
    for (graph::NodeId w : g.Friendships().Neighbors(v)) {
      f += counted(w) && p.InU(w) == p.InU(v);
    }
    for (graph::NodeId w : g.Rejections().Rejectors(v)) {
      r += counted(w) && p.InU(w) != p.InU(v);
    }
    for (graph::NodeId w : g.Rejections().Rejectees(v)) {
      r += counted(w) && p.InU(w) != p.InU(v);
    }
    b.Add(v, f, r, p.DeltaFriends(v), p.DeltaRejections(v));
  }
  return b;
}

TEST(PassBoundTest, BoundCoversEverySubsetOfTheUnpoppedNodes) {
  util::Rng rng(7);
  int steps = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const auto n = static_cast<graph::NodeId>(4 + rng.NextUInt(9));  // ≤ 12
    const graph::AugmentedGraph g = TinyGraph(n, rng);
    std::vector<char> locked;
    if (trial % 2 == 1) {
      locked.assign(n, 0);
      locked[rng.NextUInt(n)] = 1;
    }
    std::vector<char> init(n, 0);
    for (auto& c : init) c = rng.NextBool(0.4) ? 1 : 0;
    const double ks[] = {0.25, 1.0, 3.5, 1.0 / 3.0, 0.1, 7.0 / 11.0};
    const double k = ks[trial % 6];
    SCOPED_TRACE("trial " + std::to_string(trial) + " n " +
                 std::to_string(n) + " k " + std::to_string(k));

    // One full pass by hand, with the bound kept the kernel's way.
    Partition p(g, init);
    BucketList bl(n, GainBound(g, k), 64.0);
    PassBound bound;
    bound.Configure(n, k, g.MaxFriendshipDegree(), g.MaxRejectionDegree(),
                    g.Friendships().NumEdges(), g.Rejections().NumArcs());
    bound.BeginPass();
    std::vector<char> present(n, 0);
    for (graph::NodeId v = 0; v < n; ++v) {
      if (!locked.empty() && locked[v]) continue;
      present[v] = 1;
      bl.Insert(v, -p.DeltaObjective(v, k));
      bound.Add(v, p.SameSideFriends(v), p.CrossArcs(v), p.DeltaFriends(v),
                p.DeltaRejections(v));
    }
    util::AlignedVector<graph::NodeId> touched;
    std::vector<double> cums = {0.0};
    std::vector<double> bounds;
    double cum = 0.0;
    for (;;) {
      // The upkeep matches a recount from scratch, and the bound covers
      // what switching any subset of the unpopped nodes gains.
      const PassBound fresh = FreshBound(g, p, present, locked, k);
      ASSERT_EQ(bound.Value(), fresh.Value()) << "after " << cums.size() - 1;
      std::vector<graph::NodeId> pending;
      for (graph::NodeId v = 0; v < n; ++v) {
        if (present[v]) pending.push_back(v);
      }
      const double w0 = Objective(g, p.Mask(), k);
      double best_subset = 0.0;
      for (std::uint32_t s = 1; s < (1u << pending.size()); ++s) {
        std::vector<char> mask = p.Mask();
        for (std::size_t i = 0; i < pending.size(); ++i) {
          if (s >> i & 1u) mask[pending[i]] ^= 1;
        }
        best_subset = std::max(best_subset, w0 - Objective(g, mask, k));
      }
      EXPECT_GE(bound.Value() + 1e-9, best_subset);
      bounds.push_back(bound.Value());
      ++steps;
      if (bl.Empty()) break;

      const graph::NodeId v = bl.PopMax();
      const double gain = -p.DeltaObjective(v, k);
      bound.Remove(v);
      present[v] = 0;
      p.SwitchFused(v, k, bl, touched, &bound);
      cum += gain;
      cums.push_back(cum);
    }
    // No later prefix of the pass climbs past cum + UB at any step.
    for (std::size_t j = 0; j < cums.size(); ++j) {
      for (std::size_t m = j + 1; m < cums.size(); ++m) {
        EXPECT_GE(cums[j] + bounds[j] + 1e-9, cums[m])
            << "step " << j << " to " << m;
      }
    }
    EXPECT_EQ(bounds.back(), 0.0);  // nothing left to gain
  }
  EXPECT_GT(steps, 300);
}

TEST(PassBoundTest, MatchesFullPassesOnTinyGraphs) {
  util::Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    const auto n = static_cast<graph::NodeId>(4 + rng.NextUInt(9));
    const graph::AugmentedGraph g = TinyGraph(n, rng);
    std::vector<char> init(n, 0);
    for (auto& c : init) c = rng.NextBool(0.4) ? 1 : 0;
    std::vector<char> locked;
    if (trial % 3 == 0) {
      locked.assign(n, 0);
      const auto v = static_cast<graph::NodeId>(rng.NextUInt(n));
      locked[v] = 1;
    }
    const double k = rng.NextDouble(0.05, 6.0);  // never dyadic in practice
    SCOPED_TRACE("trial " + std::to_string(trial));
    const KlConfig cfg{.k = k};
    ExpectSameCut(ExtendedKl(g, init, locked, cfg),
                  FullPassKl(g, init, locked, cfg));
  }
}

// The stop leaves nodes in the bucket list; Drain must leave it exactly as
// PopMax-to-empty would, so the next Reset stays O(growth).
TEST(PassBoundTest, DrainEmptiesTheBucketListForReuse) {
  BucketList bl(10, 8.0, 4.0);
  for (graph::NodeId v = 0; v < 10; ++v) {
    bl.Insert(v, static_cast<double>(v % 5) - 2.0);
  }
  bl.PopMax();
  bl.Drain();
  EXPECT_TRUE(bl.Empty());
  for (graph::NodeId v = 0; v < 10; ++v) EXPECT_FALSE(bl.Contains(v));
  EXPECT_EQ(bl.MaxGainNode(), graph::kInvalidNode);
  const std::size_t buckets = bl.BucketCapacity();
  bl.Reset(10, 8.0, 4.0);
  EXPECT_EQ(bl.BucketCapacity(), buckets);
  bl.Insert(3, -1.0);
  bl.Insert(7, 1.5);
  EXPECT_EQ(bl.PopMax(), 7u);
  EXPECT_EQ(bl.PopMax(), 3u);
  EXPECT_TRUE(bl.Empty());
  bl.Drain();  // a no-op on an empty list
  EXPECT_TRUE(bl.Empty());
}

TEST(PassBoundTest, ConfigureRefusesABoundThatCannotFitAnInt64) {
  PassBound b;
  // Without rejection arcs k drops out, however large.
  EXPECT_NO_THROW(b.Configure(4, 1e300, 3, 0, 6, 0));
  EXPECT_THROW(b.Configure(4, 1e18, 3, 1, 6, 2), std::invalid_argument);
  EXPECT_NO_THROW(b.Configure(1u << 20, 16.0, 5000, 5000, 1u << 24, 1u << 24));
}

}  // namespace
}  // namespace rejecto::detect
