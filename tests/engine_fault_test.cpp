// Fault-injection tests for the distributed engine: shard-fetch retries
// with exponential simulated backoff, degraded-mode failover of dead or
// unreachable shards to lineage-rebuilt replicas, cluster-level worker
// death, and the end-to-end differential — distributed detection under a
// mid-sweep worker crash plus a 10% flaky-fetch rate is bit-identical to
// the failure-free run, with the faults visible in IoStats.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <stdexcept>
#include <vector>

#include "detect/iterative.h"
#include "engine/cluster.h"
#include "engine/dist_detector.h"
#include "engine/shard_store.h"
#include "gen/erdos_renyi.h"
#include "graph/builder.h"
#include "sim/scenario.h"
#include "util/failpoint.h"
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

void ExpectAdjacencyMatchesGraph(const ShardedGraphStore& store,
                                 const graph::AugmentedGraph& g,
                                 std::span<const graph::NodeId> ids,
                                 std::span<const NodeAdjacency> batch) {
  ASSERT_EQ(batch.size(), ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto fr = g.Friendships().Neighbors(ids[i]);
    ASSERT_EQ(batch[i].friends.size(), fr.size()) << "node " << ids[i];
    EXPECT_TRUE(std::equal(fr.begin(), fr.end(), batch[i].friends.begin()));
  }
  (void)store;
}

// ---------- Retry / backoff ----------

TEST(FetchFaultTest, TransientFailureRetriesWithBackoff) {
  util::Rng rng(21);
  const auto g = SmallAugmented(rng);
  const FetchPolicy policy{.max_attempts = 3,
                           .backoff_us = 100.0,
                           .backoff_multiplier = 2.0,
                           .attempt_timeout_us = 500.0};
  Cluster cluster({.num_workers = 2, .fetch = policy});
  const ShardedGraphStore store(g, cluster);
  IoStats stats;
  const graph::NodeId ids[2] = {0, 2};  // both shard 0 -> one shard RPC
  // First evaluation fails, the retry succeeds.
  util::ScopedFailpoint flaky("engine/fetch_shard",
                              util::FailpointPolicy::OnNth(1));
  const auto batch = store.FetchBatch(ids, stats);
  ExpectAdjacencyMatchesGraph(store, g, ids, batch);
  EXPECT_EQ(stats.fetch_retries, 1u);
  EXPECT_DOUBLE_EQ(stats.simulated_backoff_us, 100.0);
  EXPECT_EQ(stats.shard_failovers, 0u);
  EXPECT_GE(stats.simulated_network_us, 500.0);  // the failed attempt's timeout
  EXPECT_FALSE(store.IsReplica(0));
}

TEST(FetchFaultTest, BackoffGrowsExponentially) {
  util::Rng rng(22);
  const auto g = SmallAugmented(rng);
  const FetchPolicy policy{.max_attempts = 4,
                           .backoff_us = 100.0,
                           .backoff_multiplier = 2.0,
                           .attempt_timeout_us = 0.0};
  Cluster cluster({.num_workers = 2, .fetch = policy});
  const ShardedGraphStore store(g, cluster);
  IoStats stats;
  const graph::NodeId ids[1] = {0};
  // every:1 fails all 4 attempts -> failover (degraded mode default on).
  std::vector<NodeAdjacency> batch;
  {
    util::ScopedFailpoint down("engine/fetch_shard",
                               util::FailpointPolicy::EveryNth(1));
    batch = store.FetchBatch(ids, stats);
  }
  ExpectAdjacencyMatchesGraph(store, g, ids, batch);
  EXPECT_EQ(stats.fetch_retries, 3u);  // attempts 1-3 retried, 4th failed over
  // 100 + 200 + 400 backoff waits.
  EXPECT_DOUBLE_EQ(stats.simulated_backoff_us, 700.0);
  EXPECT_EQ(stats.shard_failovers, 1u);
  EXPECT_TRUE(store.IsReplica(0));
}

TEST(FetchFaultTest, ExhaustionWithoutDegradedModeThrows) {
  util::Rng rng(23);
  const auto g = SmallAugmented(rng);
  const FetchPolicy policy{.max_attempts = 2, .degraded_mode = false};
  Cluster cluster({.num_workers = 2, .fetch = policy});
  const ShardedGraphStore store(g, cluster);
  IoStats stats;
  const graph::NodeId ids[1] = {0};
  util::ScopedFailpoint down("engine/fetch_shard",
                             util::FailpointPolicy::EveryNth(1));
  EXPECT_THROW(store.FetchBatch(ids, stats), std::runtime_error);
}

// ---------- Worker death / failover ----------

TEST(FetchFaultTest, WorkerCrashFailsOverAndMarksClusterWorkerDead) {
  util::Rng rng(24);
  const auto g = SmallAugmented(rng);
  Cluster cluster({.num_workers = 3, .prefetch_batch = 8,
                   .buffer_capacity = 64});
  const ShardedGraphStore store(g, cluster);
  IoStats stats;
  const graph::NodeId ids[1] = {1};  // shard 1
  util::ScopedFailpoint crash("engine/worker_crash",
                              util::FailpointPolicy::OnNth(1));
  const auto batch = store.FetchBatch(ids, stats);
  ExpectAdjacencyMatchesGraph(store, g, ids, batch);
  EXPECT_EQ(stats.shard_failovers, 1u);
  EXPECT_TRUE(store.IsReplica(1));
  EXPECT_TRUE(cluster.WorkerDead(1));
  EXPECT_EQ(cluster.NumDeadWorkers(), 1u);
  // The replica keeps serving; Local data survived the rebuild.
  IoStats stats2;
  const auto batch2 = store.FetchBatch(ids, stats2);
  ExpectAdjacencyMatchesGraph(store, g, ids, batch2);
  EXPECT_EQ(stats2.shard_failovers, 0u);
}

TEST(FetchFaultTest, StoreBuiltAfterWorkerDeathStartsWithReplica) {
  util::Rng rng(25);
  const auto g = SmallAugmented(rng);
  Cluster cluster({.num_workers = 3, .prefetch_batch = 8,
                   .buffer_capacity = 64});
  cluster.KillWorker(2);
  const ShardedGraphStore store(g, cluster);
  EXPECT_EQ(store.Failovers(), 1u);
  EXPECT_TRUE(store.IsReplica(2));
  EXPECT_FALSE(store.IsReplica(0));
  // The replica's data is bit-identical to a healthy shard's.
  for (graph::NodeId v = 2; v < g.NumNodes(); v += 3) {
    const auto fr = g.Friendships().Neighbors(v);
    ASSERT_EQ(store.Local(v).friends.size(), fr.size());
    EXPECT_TRUE(
        std::equal(fr.begin(), fr.end(), store.Local(v).friends.begin()));
  }
  cluster.ReviveWorker(2);
  EXPECT_EQ(cluster.NumDeadWorkers(), 0u);
}

TEST(FetchFaultTest, DeadWorkerWithoutDegradedModeThrowsOnBuild) {
  util::Rng rng(26);
  const auto g = SmallAugmented(rng);
  ClusterConfig cfg{.num_workers = 2, .prefetch_batch = 8,
                    .buffer_capacity = 64};
  cfg.fetch.degraded_mode = false;
  Cluster cluster(cfg);
  cluster.KillWorker(0);
  EXPECT_THROW(ShardedGraphStore(g, cluster), std::runtime_error);
}

TEST(ClusterFaultTest, ConfigValidation) {
  ClusterConfig bad{.num_workers = 2};
  bad.fetch.max_attempts = 0;
  EXPECT_THROW(Cluster{bad}, std::invalid_argument);
  bad = ClusterConfig{.num_workers = 2};
  bad.fetch.backoff_multiplier = 0.5;
  EXPECT_THROW(Cluster{bad}, std::invalid_argument);
  bad = ClusterConfig{.num_workers = 2};
  bad.fetch.backoff_us = -1.0;
  EXPECT_THROW(Cluster{bad}, std::invalid_argument);
  Cluster cluster({.num_workers = 2});
  EXPECT_THROW(cluster.KillWorker(5), std::out_of_range);
}

// ---------- End-to-end differential under injected faults ----------

// ISSUE acceptance: distributed detection with one worker shard killed
// mid-sweep AND a 10% per-attempt fetch-failure rate must complete and be
// bit-identical to the failure-free run, with retries, backoff, and the
// failover visible in IoStats.
TEST(DistFaultDifferentialTest, DetectionBitIdenticalUnderInjectedFaults) {
  util::Rng rng(55);
  const auto legit =
      gen::ErdosRenyi({.num_nodes = 400, .num_edges = 1600}, rng);
  sim::ScenarioConfig scfg;
  scfg.seed = 5;
  scfg.num_fakes = 80;
  const auto scenario = sim::BuildScenario(legit, scfg);
  util::Rng seed_rng(6);
  const auto seeds = scenario.SampleSeeds(10, 4, seed_rng);

  detect::IterativeConfig cfg;
  cfg.target_detections = 80;
  cfg.maar.seed = 3;

  const ClusterConfig ccfg{.num_workers = 3, .prefetch_batch = 32,
                           .buffer_capacity = 512};

  // Failure-free baseline.
  Cluster healthy(ccfg);
  const auto baseline =
      DetectFriendSpammersDistributed(scenario.graph, seeds, cfg, healthy);
  EXPECT_EQ(baseline.io.fetch_retries, 0u);
  EXPECT_EQ(baseline.io.shard_failovers, 0u);

  // Faulty run: worker crash on the 40th shard touch (well inside the
  // first sweep) plus 10% flaky fetches for the whole detection.
  Cluster faulty(ccfg);
  util::ScopedFailpoint crash("engine/worker_crash",
                              util::FailpointPolicy::OnNth(40));
  util::ScopedFailpoint flaky("engine/fetch_shard",
                              util::FailpointPolicy::Probability(0.1, 7));
  const auto faulted =
      DetectFriendSpammersDistributed(scenario.graph, seeds, cfg, faulty);

  EXPECT_EQ(faulted.detection.detected, baseline.detection.detected);
  ASSERT_EQ(faulted.detection.rounds.size(), baseline.detection.rounds.size());
  for (std::size_t r = 0; r < baseline.detection.rounds.size(); ++r) {
    EXPECT_EQ(faulted.detection.rounds[r].detected,
              baseline.detection.rounds[r].detected);
    EXPECT_EQ(faulted.detection.rounds[r].ratio,
              baseline.detection.rounds[r].ratio);
  }
  EXPECT_EQ(faulted.detection.hit_target, baseline.detection.hit_target);

  // The faults actually happened and were metered.
  EXPECT_EQ(faulty.NumDeadWorkers(), 1u) << "the crash fired mid-sweep";
  EXPECT_GT(faulted.io.fetch_retries, 0u);
  EXPECT_GT(faulted.io.simulated_backoff_us, 0.0);
  EXPECT_GE(faulted.io.shard_failovers, 1u);
  EXPECT_GT(faulted.io.simulated_network_us,
            baseline.io.simulated_network_us)
      << "timeouts and retries cost simulated time";
}

}  // namespace
}  // namespace rejecto::engine
