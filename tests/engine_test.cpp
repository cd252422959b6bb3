#include <gtest/gtest.h>

#include <limits>
#include <tuple>

#include "detect/extended_kl.h"
#include "engine/cluster.h"
#include "engine/dist_kl.h"
#include "engine/dist_detector.h"
#include "engine/dist_maar.h"
#include "engine/prefetch.h"
#include "engine/shard_store.h"
#include "gen/erdos_renyi.h"
#include "graph/builder.h"
#include "sim/scenario.h"
#include "util/rng.h"

namespace rejecto::engine {
namespace {

graph::AugmentedGraph SmallAugmented(util::Rng& rng, graph::NodeId n = 60) {
  graph::GraphBuilder b(n);
  const auto social = gen::ErdosRenyi(
      {.num_nodes = n, .num_edges = static_cast<graph::EdgeId>(n) * 3}, rng);
  for (const auto& e : social.Edges()) b.AddFriendship(e.u, e.v);
  for (graph::NodeId i = 0; i < n; ++i) {
    const auto u = static_cast<graph::NodeId>(rng.NextUInt(n));
    const auto v = static_cast<graph::NodeId>(rng.NextUInt(n));
    if (u != v) b.AddRejection(u, v);
  }
  return b.BuildAugmented();
}

// ---------- Cluster ----------

TEST(ClusterTest, InvalidPrefetchConfigThrows) {
  EXPECT_THROW(Cluster({.num_workers = 2, .prefetch_batch = 0}), std::invalid_argument);
  EXPECT_THROW(
      Cluster({.num_workers = 2, .prefetch_batch = 100, .buffer_capacity = 10}),
      std::invalid_argument);
}

TEST(ClusterTest, RefusesMoreWorkersThanTheThreadLimit) {
  EXPECT_THROW(Cluster({.num_workers = 257}), std::invalid_argument);
}

// ---------- ShardedGraphStore ----------

TEST(ShardStoreTest, LocalMatchesGraph) {
  util::Rng rng(2);
  const auto g = SmallAugmented(rng);
  Cluster cluster({.num_workers = 4});
  const ShardedGraphStore store(g, cluster);
  for (graph::NodeId v = 0; v < g.NumNodes(); ++v) {
    const NodeAdjacency& a = store.Local(v);
    const auto fr = g.Friendships().Neighbors(v);
    ASSERT_EQ(a.friends.size(), fr.size());
    EXPECT_TRUE(std::equal(fr.begin(), fr.end(), a.friends.begin()));
    EXPECT_EQ(a.rejectors.size(), g.Rejections().InDegree(v));
    EXPECT_EQ(a.rejectees.size(), g.Rejections().OutDegree(v));
  }
}

TEST(ShardStoreTest, FetchBatchReturnsRequestedOrder) {
  util::Rng rng(3);
  const auto g = SmallAugmented(rng);
  Cluster cluster({.num_workers = 3});
  const ShardedGraphStore store(g, cluster);
  IoStats stats;
  const graph::NodeId ids[4] = {7, 1, 12, 5};
  const auto batch = store.FetchBatch(ids, stats);
  ASSERT_EQ(batch.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(batch[static_cast<std::size_t>(i)].friends.size(),
              g.Friendships().Degree(ids[i]));
  }
}

TEST(ShardStoreTest, FetchAccountingChargesPerShardTouched) {
  util::Rng rng(4);
  const auto g = SmallAugmented(rng);
  Cluster cluster({.num_workers = 4});
  const ShardedGraphStore store(g, cluster);
  IoStats stats;
  // Nodes 0 and 4 share shard 0; node 1 is shard 1 -> 2 RPCs.
  const graph::NodeId ids[3] = {0, 4, 1};
  store.FetchBatch(ids, stats);
  EXPECT_EQ(stats.fetch_requests, 2u);
  EXPECT_EQ(stats.nodes_fetched, 3u);
  EXPECT_GT(stats.bytes_transferred, 0u);
}

TEST(ShardStoreTest, SimulatedNetworkTimeAccrues) {
  util::Rng rng(14);
  const auto g = SmallAugmented(rng);
  constexpr double kDelayUs = 1000.0;
  constexpr double kGbps = 0.01;
  ClusterConfig cfg{.num_workers = 1};
  cfg.sim.default_link.delay_us = kDelayUs;
  cfg.sim.bandwidth_gbps = kGbps;
  Cluster cluster(cfg);
  const ShardedGraphStore store(g, cluster);
  IoStats stats;
  const graph::NodeId ids[2] = {0, 1};
  store.FetchBatch(ids, stats);
  // One clean round trip: a one-way delay each way plus both frames' bytes
  // over the link.
  const double expected =
      2 * kDelayUs +
      static_cast<double>(stats.wire.bytes_sent + stats.wire.bytes_received) *
          8.0 / (kGbps * 1e3);
  EXPECT_EQ(stats.wire.frames_sent, 1u);
  EXPECT_NEAR(stats.simulated_network_us, expected, 1e-6);
  store.FetchBatch(ids, stats);
  EXPECT_NEAR(stats.simulated_network_us, 2 * expected, 1e-6);
}

TEST(ShardStoreTest, FetchOutOfRangeThrows) {
  util::Rng rng(5);
  const auto g = SmallAugmented(rng);
  Cluster cluster({.num_workers = 2});
  const ShardedGraphStore store(g, cluster);
  IoStats stats;
  const graph::NodeId ids[1] = {static_cast<graph::NodeId>(g.NumNodes())};
  EXPECT_THROW(store.FetchBatch(ids, stats), std::out_of_range);
}

// ---------- PrefetchBuffer ----------

TEST(PrefetchTest, MissThenHit) {
  util::Rng rng(6);
  const auto g = SmallAugmented(rng);
  Cluster cluster({.num_workers = 2});
  const ShardedGraphStore store(g, cluster);
  PrefetchBuffer buf(store, 16, 1);
  buf.Get(3);
  EXPECT_EQ(buf.Stats().cache_misses, 1u);
  buf.Get(3);
  EXPECT_EQ(buf.Stats().cache_hits, 1u);
}

TEST(PrefetchTest, CandidatesArePrefetched) {
  util::Rng rng(7);
  const auto g = SmallAugmented(rng);
  Cluster cluster({.num_workers = 2});
  const ShardedGraphStore store(g, cluster);
  PrefetchBuffer buf(store, 16, 4);
  buf.Get(0, [](std::size_t want, std::vector<graph::NodeId>& out) {
    for (graph::NodeId v = 1; out.size() < want + 1 && v < 10; ++v) {
      out.push_back(v);
    }
  });
  EXPECT_EQ(buf.Stats().cache_misses, 1u);
  buf.Get(1);
  buf.Get(2);
  buf.Get(3);
  EXPECT_EQ(buf.Stats().cache_hits, 3u);
  EXPECT_EQ(buf.Stats().cache_misses, 1u);
}

TEST(PrefetchTest, LruEvictsOldest) {
  util::Rng rng(8);
  const auto g = SmallAugmented(rng);
  Cluster cluster({.num_workers = 2});
  const ShardedGraphStore store(g, cluster);
  PrefetchBuffer buf(store, 2, 1);  // capacity 2
  buf.Get(0);
  buf.Get(1);
  buf.Get(0);  // refresh 0; LRU order now [0, 1]
  buf.Get(2);  // evicts 1
  buf.Get(0);
  EXPECT_EQ(buf.Stats().cache_hits, 2u);  // the refresh + final Get(0)
  buf.Get(1);                             // must re-fetch
  EXPECT_EQ(buf.Stats().cache_misses, 4u);
}

TEST(PrefetchTest, DuplicateCandidatesDeduped) {
  util::Rng rng(9);
  const auto g = SmallAugmented(rng);
  Cluster cluster({.num_workers = 2});
  const ShardedGraphStore store(g, cluster);
  PrefetchBuffer buf(store, 16, 4);
  buf.Get(0, [](std::size_t, std::vector<graph::NodeId>& out) {
    out.push_back(0);  // the missed node itself
    out.push_back(5);
    out.push_back(5);  // duplicate
  });
  EXPECT_EQ(buf.Stats().nodes_fetched, 2u);  // 0 and 5 only
}

TEST(PrefetchTest, InvalidConfigThrows) {
  util::Rng rng(10);
  const auto g = SmallAugmented(rng);
  Cluster cluster({.num_workers = 2});
  const ShardedGraphStore store(g, cluster);
  EXPECT_THROW(PrefetchBuffer(store, 0, 1), std::invalid_argument);
  EXPECT_THROW(PrefetchBuffer(store, 4, 8), std::invalid_argument);
}

// ---------- DistributedKl equivalence ----------

class DistKlEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, double>> {};

TEST_P(DistKlEquivalenceTest, BitIdenticalToSerialKl) {
  const auto [shards, k] = GetParam();
  util::Rng rng(42 + shards);
  const auto g = SmallAugmented(rng, 120);
  std::vector<char> init(g.NumNodes(), 0);
  for (graph::NodeId v = 0; v < g.NumNodes(); ++v) {
    init[v] = g.Rejections().InDegree(v) > 0 ? 1 : 0;
  }
  std::vector<char> locked(g.NumNodes(), 0);
  locked[0] = 1;
  locked[5] = 1;

  const detect::KlConfig cfg{.k = k};
  const auto serial = detect::ExtendedKl(g, init, locked, cfg);

  Cluster cluster(
      {.num_workers = shards, .prefetch_batch = 8, .buffer_capacity = 64});
  const ShardedGraphStore store(g, cluster);
  const auto dist = DistributedKl(store, init, locked, cfg, cluster);

  EXPECT_EQ(dist.kl.in_u, serial.in_u);
  EXPECT_EQ(dist.kl.cut.cross_friendships, serial.cut.cross_friendships);
  EXPECT_EQ(dist.kl.cut.rejections_into_u, serial.cut.rejections_into_u);
  EXPECT_EQ(dist.kl.cut.rejections_from_u, serial.cut.rejections_from_u);
  EXPECT_EQ(dist.kl.stats.passes, serial.stats.passes);
  EXPECT_EQ(dist.kl.stats.switches_applied, serial.stats.switches_applied);
  EXPECT_DOUBLE_EQ(dist.kl.stats.final_objective,
                   serial.stats.final_objective);
  EXPECT_GT(dist.io.nodes_fetched, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    ShardAndK, DistKlEquivalenceTest,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 5u),
                       ::testing::Values(0.25, 1.0, 4.0)));

TEST(DistKlTest, PrefetchingReducesFetchRequests) {
  util::Rng rng(77);
  const auto g = SmallAugmented(rng, 150);
  std::vector<char> init(g.NumNodes(), 0);
  for (graph::NodeId v = 0; v < g.NumNodes(); ++v) {
    init[v] = g.Rejections().InDegree(v) > 0 ? 1 : 0;
  }
  const detect::KlConfig cfg{.k = 1.0};

  Cluster no_prefetch(
      {.num_workers = 2, .prefetch_batch = 1, .buffer_capacity = 256});
  const ShardedGraphStore store1(g, no_prefetch);
  const auto a = DistributedKl(store1, init, {}, cfg, no_prefetch);

  Cluster with_prefetch(
      {.num_workers = 2, .prefetch_batch = 32, .buffer_capacity = 256});
  const ShardedGraphStore store2(g, with_prefetch);
  const auto b = DistributedKl(store2, init, {}, cfg, with_prefetch);

  EXPECT_EQ(a.kl.in_u, b.kl.in_u);  // prefetching never changes the result
  EXPECT_LT(b.io.fetch_requests, a.io.fetch_requests);
}

// A pass switches each unlocked node at most once and then replays the
// prefix it keeps, so one KL run reads at most passes × |V| +
// switches_applied rows through the prefetch buffer. Undoing the rejected
// suffix switch by switch instead reads past that bound; a one-row buffer
// with no prefetch makes every read a Get and every miss a one-node fetch.
TEST(DistKlTest, RowReadsBoundedByPassesAndKeptPrefixes) {
  util::Rng rng(42);
  const auto g = SmallAugmented(rng, 120);
  std::vector<char> init(g.NumNodes(), 0);
  for (graph::NodeId v = 0; v < g.NumNodes(); ++v) {
    init[v] = g.Rejections().InDegree(v) > 0 ? 1 : 0;
  }
  for (const double k : {0.25, 1.0, 4.0}) {
    Cluster cluster(
        {.num_workers = 2, .prefetch_batch = 1, .buffer_capacity = 1});
    const ShardedGraphStore store(g, cluster);
    const auto r =
        DistributedKl(store, init, {}, detect::KlConfig{.k = k}, cluster);
    const std::uint64_t bound =
        static_cast<std::uint64_t>(r.kl.stats.passes) * g.NumNodes() +
        r.kl.stats.switches_applied;
    EXPECT_LE(r.io.cache_hits + r.io.cache_misses, bound) << "k=" << k;
    EXPECT_LE(r.io.nodes_fetched, bound) << "k=" << k;
  }
}

// The pass gain bound reads only the store's master-side degree arrays
// (RejInDegree, RejOutDegree), never a row: a run reads one row per pop and
// the replayed prefixes, and stops where the serial kernel stops.
TEST(DistKlTest, PassStopReadsNoRowBeyondThePops) {
  util::Rng rng(42);
  const auto g = SmallAugmented(rng, 120);
  std::vector<char> init(g.NumNodes(), 0);
  for (graph::NodeId v = 0; v < g.NumNodes(); ++v) {
    init[v] = g.Rejections().InDegree(v) > 0 ? 1 : 0;
  }
  for (const double k : {0.25, 1.0, 4.0}) {
    Cluster cluster(
        {.num_workers = 2, .prefetch_batch = 1, .buffer_capacity = 1});
    const ShardedGraphStore store(g, cluster);
    const detect::KlConfig cfg{.k = k};
    const auto r = DistributedKl(store, init, {}, cfg, cluster);
    const auto serial = detect::ExtendedKl(g, init, {}, cfg);
    EXPECT_EQ(r.kl.stats.switches_tried, serial.stats.switches_tried)
        << "k=" << k;
    EXPECT_LE(r.io.cache_hits + r.io.cache_misses,
              r.kl.stats.switches_tried + r.kl.stats.switches_applied)
        << "k=" << k;
  }
}

TEST(DistMaarTest, MatchesSerialMaarSolver) {
  util::Rng rng(91);
  const auto g = SmallAugmented(rng, 100);
  detect::Seeds seeds;
  seeds.legit = {0, 1};
  detect::MaarConfig cfg;
  cfg.min_region_size = 2;
  cfg.seed = 4;

  detect::MaarSolver serial(g, seeds, cfg);
  const auto expected = serial.Solve();

  Cluster cluster(
      {.num_workers = 3, .prefetch_batch = 16, .buffer_capacity = 128});
  const ShardedGraphStore store(g, cluster);
  const auto dist = SolveMaarDistributed(g, store, cluster, seeds, cfg);

  EXPECT_EQ(dist.cut.valid, expected.valid);
  if (expected.valid) {
    EXPECT_EQ(dist.cut.in_u, expected.in_u);
    EXPECT_DOUBLE_EQ(dist.cut.ratio, expected.ratio);
    EXPECT_DOUBLE_EQ(dist.cut.k, expected.k);
  }
  EXPECT_EQ(dist.cut.kl_runs, expected.kl_runs);
  EXPECT_GT(dist.io.nodes_fetched, 0u);
}

TEST(DistDetectorTest, MatchesSerialPipeline) {
  // A planted scenario with two fake groups exercises multiple rounds
  // (and thus multiple re-shardings) of the distributed pipeline. Each
  // world is {ER rng seed, scenario seed, seed-sampling seed, maar seed}.
  struct World {
    std::uint64_t graph_rng, scenario, seed_rng, maar;
  };
  for (const World w : {World{55, 5, 6, 3}, World{57, 7, 8, 5}}) {
    util::Rng rng(w.graph_rng);
    const auto legit =
        gen::ErdosRenyi({.num_nodes = 400, .num_edges = 1600}, rng);
    sim::ScenarioConfig scfg;
    scfg.seed = w.scenario;
    scfg.num_fakes = 80;
    const auto scenario = sim::BuildScenario(legit, scfg);
    util::Rng seed_rng(w.seed_rng);
    const auto seeds = scenario.SampleSeeds(10, 4, seed_rng);

    detect::IterativeConfig cfg;
    cfg.target_detections = 80;
    cfg.maar.seed = w.maar;
    const auto serial =
        detect::DetectFriendSpammers(scenario.graph, seeds, cfg);

    Cluster cluster(
        {.num_workers = 3, .prefetch_batch = 32, .buffer_capacity = 512});
    const auto dist = DetectFriendSpammersDistributed(scenario.graph, seeds,
                                                      cfg, cluster);

    EXPECT_EQ(dist.detection.detected, serial.detected) << w.graph_rng;
    EXPECT_EQ(dist.detection.rounds.size(), serial.rounds.size());
    EXPECT_EQ(dist.detection.hit_target, serial.hit_target);
    EXPECT_GE(dist.stores_built, 1);
    EXPECT_GT(dist.io.nodes_fetched, 0u);
  }
}

TEST(DistKlTest, InvalidInputsThrow) {
  util::Rng rng(78);
  const auto g = SmallAugmented(rng, 40);
  Cluster cluster({.num_workers = 2});
  const ShardedGraphStore store(g, cluster);
  EXPECT_THROW(DistributedKl(store, std::vector<char>(10, 0), {},
                             detect::KlConfig{.k = 1.0}, cluster),
               std::invalid_argument);
  EXPECT_THROW(DistributedKl(store, std::vector<char>(g.NumNodes(), 0), {},
                             detect::KlConfig{.k = 0.0}, cluster),
               std::invalid_argument);
  EXPECT_THROW(
      DistributedKl(store, std::vector<char>(g.NumNodes(), 0), {},
                    detect::KlConfig{.k = std::numeric_limits<double>::quiet_NaN()},
                    cluster),
      std::invalid_argument);
}

}  // namespace
}  // namespace rejecto::engine
