// End-to-end differential for the wire transports: distributed detection
// with every fetch/update crossing RJNET001 frames over the deterministic
// simulated network must be bit-identical to the serial pipeline
// (detect::DetectFriendSpammers) — under clean links, 10% flaky links,
// injected partitions, mid-sweep worker crashes, and corrupted frames —
// with the faults visible in the wire counters, and at 1/2/8 workers.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "detect/iterative.h"
#include "engine/cluster.h"
#include "engine/dist_detector.h"
#include "engine/net_worker.h"
#include "gen/erdos_renyi.h"
#include "net/sim_net.h"
#include "sim/scenario.h"
#include "util/failpoint.h"
#include "util/rng.h"

namespace rejecto::engine {
namespace {

struct World {
  sim::Scenario scenario;
  detect::Seeds seeds;
  detect::IterativeConfig cfg;
  detect::DetectionResult serial;  // the oracle every cluster run matches
};

World MakeWorld() {
  util::Rng rng(55);
  const auto legit =
      gen::ErdosRenyi({.num_nodes = 400, .num_edges = 1600}, rng);
  sim::ScenarioConfig scfg;
  scfg.seed = 5;
  scfg.num_fakes = 80;
  World w{sim::BuildScenario(legit, scfg), {}, {}, {}};
  util::Rng seed_rng(6);
  w.seeds = w.scenario.SampleSeeds(10, 4, seed_rng);
  w.cfg.target_detections = 80;
  w.cfg.maar.seed = 3;
  w.serial = detect::DetectFriendSpammers(w.scenario.graph, w.seeds, w.cfg);
  return w;
}

void ExpectSameDetection(const DistDetectionResult& got,
                         const detect::DetectionResult& want,
                         const std::string& label) {
  EXPECT_EQ(got.detection.detected, want.detected) << label;
  EXPECT_EQ(got.detection.hit_target, want.hit_target) << label;
  ASSERT_EQ(got.detection.rounds.size(), want.rounds.size()) << label;
  for (std::size_t r = 0; r < want.rounds.size(); ++r) {
    EXPECT_EQ(got.detection.rounds[r].detected, want.rounds[r].detected)
        << label << " round " << r;
    EXPECT_EQ(got.detection.rounds[r].ratio, want.rounds[r].ratio)
        << label << " round " << r;
  }
}

ClusterConfig SimNetConfigFor(std::uint32_t workers,
                              const net::LinkFaults& link = {},
                              std::uint64_t seed = 42) {
  ClusterConfig cfg{.num_workers = workers, .prefetch_batch = 32,
                    .buffer_capacity = 512};
  cfg.sim.default_link = link;
  cfg.sim.seed = seed;
  return cfg;
}

// ---------- Bit-identity over the wire ----------

TEST(SimNetTransportTest, CleanLinksBitIdenticalToSerialAtOneTwoEightWorkers) {
  const World w = MakeWorld();
  for (const std::uint32_t workers : {1u, 2u, 8u}) {
    Cluster wired(SimNetConfigFor(workers));
    const auto over_wire = DetectFriendSpammersDistributed(
        w.scenario.graph, w.seeds, w.cfg, wired);

    ExpectSameDetection(over_wire, w.serial,
                        "simnet vs serial @" + std::to_string(workers));

    // The detection really crossed the wire.
    EXPECT_GT(over_wire.io.wire.frames_sent, 0u);
    EXPECT_GT(over_wire.io.wire.frames_received, 0u);
    EXPECT_GT(over_wire.io.wire.bytes_sent, 0u);
    EXPECT_GT(over_wire.io.wire.bytes_received, 0u);
    EXPECT_EQ(over_wire.io.wire.timeouts, 0u) << "clean links";
    EXPECT_EQ(over_wire.io.shard_failovers, 0u);

    // Per-round records cover every store built and sum to the total.
    ASSERT_EQ(over_wire.per_round.size(),
              static_cast<std::size_t>(over_wire.stores_built));
    std::uint64_t frames = 0;
    for (const IoStats& round : over_wire.per_round) {
      frames += round.wire.frames_sent;
    }
    EXPECT_EQ(frames, over_wire.io.wire.frames_sent);
  }
}

TEST(SimNetTransportTest, WorkersHoldOnlyTheNewestGeneration) {
  const World w = MakeWorld();
  Cluster wired(SimNetConfigFor(3));
  // Overshoot the fake population so detection needs several residual
  // rounds — each publishing a fresh store generation to every worker.
  detect::IterativeConfig multi = w.cfg;
  multi.target_detections = 140;
  const auto result = DetectFriendSpammersDistributed(w.scenario.graph,
                                                      w.seeds, multi, wired);
  EXPECT_GT(result.stores_built, 1);
  for (std::uint32_t p = 0; p < 3; ++p) {
    const ShardWorker* worker = wired.SimWorker(p);
    ASSERT_NE(worker, nullptr);
    EXPECT_GT(worker->FramesServed(), 0u);
    // Each new round's push dropped the previous generation.
    EXPECT_EQ(worker->NumStores(), 1u);
  }
  EXPECT_EQ(wired.SimWorker(7), nullptr);
}

TEST(SimNetTransportTest, FlakyLinksAndMidSweepCrashStayBitIdentical) {
  const World w = MakeWorld();
  // ISSUE acceptance: 10% flaky links + a worker crash mid-sweep.
  net::LinkFaults flaky;
  flaky.drop_p = 0.10;
  flaky.jitter_us = 20.0;
  Cluster wired(SimNetConfigFor(3, flaky, 77));
  util::ScopedFailpoint crash("engine/worker_crash",
                              util::FailpointPolicy::OnNth(40));
  const auto faulted = DetectFriendSpammersDistributed(w.scenario.graph,
                                                       w.seeds, w.cfg, wired);

  ExpectSameDetection(faulted, w.serial, "flaky simnet + crash");
  EXPECT_EQ(wired.NumDeadWorkers(), 1u);
  EXPECT_GE(faulted.io.shard_failovers, 1u);
  EXPECT_GT(faulted.io.wire.timeouts, 0u) << "dropped frames cost deadlines";
  EXPECT_GT(faulted.io.wire.dropped_frames, 0u);
  EXPECT_GT(faulted.io.fetch_retries, 0u);
  EXPECT_GT(faulted.io.simulated_backoff_us, 0.0);
}

TEST(SimNetTransportTest, PartitionedLinkFailsOverAndStaysBitIdentical) {
  const World w = MakeWorld();
  // Worker 1's link is down from the start: every partition push to it
  // must fail over at store-build time, and detection must not notice.
  ClusterConfig cfg = SimNetConfigFor(3);
  cfg.sim.link_overrides.push_back({1u, net::LinkFaults{.partitioned = true}});
  // Keep the virtual deadline spend bounded: the partition burns the full
  // publish timeout once per attempt, every round.
  cfg.fetch.max_attempts = 2;
  Cluster wired(cfg);
  const auto faulted = DetectFriendSpammersDistributed(w.scenario.graph,
                                                       w.seeds, w.cfg, wired);

  ExpectSameDetection(faulted, w.serial, "partitioned simnet");
  EXPECT_GE(faulted.io.shard_failovers,
            static_cast<std::uint64_t>(faulted.stores_built))
      << "every round's push to the partitioned worker failed over";
  EXPECT_GT(faulted.io.wire.timeouts, 0u);
}

TEST(SimNetTransportTest, CorruptFramesAreRejectedAndStayBitIdentical) {
  const World w = MakeWorld();
  net::LinkFaults lossy;
  lossy.corrupt_p = 0.15;
  Cluster wired(SimNetConfigFor(3, lossy, 11));
  const auto faulted = DetectFriendSpammersDistributed(w.scenario.graph,
                                                       w.seeds, w.cfg, wired);

  ExpectSameDetection(faulted, w.serial, "corrupting simnet");
  EXPECT_GT(faulted.io.wire.corrupt_frames, 0u)
      << "the CRC must actually have rejected frames";
}

TEST(SimNetTransportTest, WireFailpointsRetryAndStayBitIdentical) {
  const World w = MakeWorld();
  Cluster wired(SimNetConfigFor(3));
  util::ScopedFailpoint lost("net/send_frame",
                             util::FailpointPolicy::Probability(0.05, 13));
  util::ScopedFailpoint flip("net/corrupt_frame",
                             util::FailpointPolicy::Probability(0.05, 17));
  const auto faulted = DetectFriendSpammersDistributed(w.scenario.graph,
                                                       w.seeds, w.cfg, wired);

  ExpectSameDetection(faulted, w.serial, "failpoint-injected wire faults");
  EXPECT_GT(faulted.io.wire.dropped_frames + faulted.io.wire.corrupt_frames,
            0u);
  EXPECT_GT(faulted.io.fetch_retries, 0u);
}

TEST(SimNetTransportTest, ReplayIsByteForByteDeterministic) {
  const World w = MakeWorld();
  net::LinkFaults flaky;
  flaky.drop_p = 0.10;
  flaky.jitter_us = 20.0;

  auto run = [&](std::uint64_t seed) {
    Cluster wired(SimNetConfigFor(3, flaky, seed));
    const auto result = DetectFriendSpammersDistributed(w.scenario.graph,
                                                        w.seeds, w.cfg, wired);
    const auto& sim = static_cast<const net::SimNetwork&>(wired.Transport());
    return std::pair<std::uint64_t, std::uint64_t>(
        sim.TraceHash(), result.io.wire.frames_sent);
  };

  const auto a = run(9);
  const auto b = run(9);
  const auto c = run(10);
  EXPECT_EQ(a.first, b.first) << "same seed: identical wire schedule";
  EXPECT_EQ(a.second, b.second);
  EXPECT_NE(a.first, c.first) << "different seed: different schedule";
}

// ---------- Config validation (ISSUE satellite) ----------

TEST(TransportConfigTest, ValidationErrorsCarryFileAndLine) {
  try {
    Cluster cluster({.num_workers = 0});
    FAIL() << "zero workers must throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("cluster.cpp:"), std::string::npos) << what;
    EXPECT_NE(what.find("num_workers"), std::string::npos) << what;
  }

  ClusterConfig bad{.num_workers = 2};
  bad.fetch.max_attempts = 0;
  try {
    Cluster cluster(bad);
    FAIL() << "zero max_attempts must throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("shard_store.cpp:"), std::string::npos) << what;
    EXPECT_NE(what.find("max_attempts"), std::string::npos) << what;
  }

  bad = ClusterConfig{.num_workers = 2};
  bad.fetch.attempt_timeout_us = -1.0;
  EXPECT_THROW(Cluster{bad}, std::invalid_argument);
  bad = ClusterConfig{.num_workers = 2};
  bad.fetch.publish_timeout_us = -1.0;
  EXPECT_THROW(Cluster{bad}, std::invalid_argument);

  // simnet peer count must match the worker count when set.
  bad = ClusterConfig{.num_workers = 2};
  bad.sim.num_peers = 3;
  EXPECT_THROW(Cluster{bad}, std::invalid_argument);
  bad.sim.num_peers = 0;  // auto-filled: fine
  EXPECT_NO_THROW(Cluster{bad});

  // socket endpoints must be one per worker and parseable.
  bad = ClusterConfig{.num_workers = 2};
  bad.transport = net::TransportKind::kSocket;
  bad.socket.endpoints = {"unix:/tmp/only_one.sock"};
  EXPECT_THROW(Cluster{bad}, std::invalid_argument);
  bad.socket.endpoints = {"unix:/tmp/a.sock", "tcp:localhost"};
  EXPECT_THROW(Cluster{bad}, std::invalid_argument);
}

TEST(TransportConfigTest, KindParsingAndEnvKnob) {
  EXPECT_THROW(net::ParseTransportKind("loopback"), std::invalid_argument);
  EXPECT_EQ(net::ParseTransportKind("simnet"), net::TransportKind::kSimNet);
  EXPECT_EQ(net::ParseTransportKind("socket"), net::TransportKind::kSocket);
  EXPECT_THROW(net::ParseTransportKind("carrier-pigeon"),
               std::invalid_argument);
  EXPECT_STREQ(net::TransportKindName(net::TransportKind::kSimNet),
               "simnet");
}

}  // namespace
}  // namespace rejecto::engine
