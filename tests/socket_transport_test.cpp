// Multiprocess socket-backend tests: real forked worker processes serving
// RJNET001 frames over UNIX-domain sockets, with the master running the
// full distributed detection against them. For the real backend they show
// that detection over sockets is bit-identical to the serial pipeline
// (detect::DetectFriendSpammers), that a worker killed mid-run (hard _Exit,
// indistinguishable from SIGKILL) triggers reconnect-then-failover, and
// that a corrupted stream is torn down and resent on a fresh connection.
// Fork-based — excluded from the TSan lane (fork + threads don't mix under
// sanitizers).
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "detect/iterative.h"
#include "engine/cluster.h"
#include "engine/dist_detector.h"
#include "engine/net_worker.h"
#include "gen/erdos_renyi.h"
#include "net/socket_transport.h"
#include "sim/scenario.h"
#include "util/failpoint.h"
#include "util/rng.h"

namespace rejecto::engine {
namespace {

std::string SockPath(const std::string& tag, int i) {
  return "/tmp/rejecto_sock_" + std::to_string(::getpid()) + "_" + tag +
         "_" + std::to_string(i) + ".sock";
}

// Forks a real worker process running the shard service on `endpoint`.
pid_t SpawnWorker(const std::string& endpoint,
                  const net::WorkerOptions& options = {}) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    int rc = 3;
    try {
      rc = RunShardWorker(endpoint, options);
    } catch (...) {
      rc = 2;
    }
    std::_Exit(rc);
  }
  return pid;
}

int WaitForExit(pid_t pid) {
  int status = 0;
  ::waitpid(pid, &status, 0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
}

struct World {
  sim::Scenario scenario;
  detect::Seeds seeds;
  detect::IterativeConfig cfg;
};

World MakeWorld() {
  util::Rng rng(55);
  const auto legit =
      gen::ErdosRenyi({.num_nodes = 300, .num_edges = 1200}, rng);
  sim::ScenarioConfig scfg;
  scfg.seed = 5;
  scfg.num_fakes = 60;
  World w{sim::BuildScenario(legit, scfg), {}, {}};
  util::Rng seed_rng(6);
  w.seeds = w.scenario.SampleSeeds(8, 4, seed_rng);
  w.cfg.target_detections = 60;
  w.cfg.maar.seed = 3;
  return w;
}

ClusterConfig SocketConfigFor(const std::vector<std::string>& endpoints) {
  ClusterConfig cfg{.num_workers =
                        static_cast<std::uint32_t>(endpoints.size()),
                    .prefetch_batch = 32,
                    .buffer_capacity = 512};
  cfg.transport = net::TransportKind::kSocket;
  cfg.socket.endpoints = endpoints;
  // Generous real-time deadlines: CI machines stall; retries cover it.
  cfg.fetch.attempt_timeout_us = 2'000'000.0;
  cfg.fetch.publish_timeout_us = 5'000'000.0;
  cfg.fetch.backoff_us = 1'000.0;
  return cfg;
}

void ExpectSameDetection(const DistDetectionResult& got,
                         const detect::DetectionResult& want) {
  EXPECT_EQ(got.detection.detected, want.detected);
  EXPECT_EQ(got.detection.hit_target, want.hit_target);
  ASSERT_EQ(got.detection.rounds.size(), want.rounds.size());
  for (std::size_t r = 0; r < want.rounds.size(); ++r) {
    EXPECT_EQ(got.detection.rounds[r].detected, want.rounds[r].detected)
        << "round " << r;
    EXPECT_EQ(got.detection.rounds[r].ratio, want.rounds[r].ratio)
        << "round " << r;
  }
}

TEST(SocketTransportTest, HelloRoundTripAndCleanShutdown) {
  const std::string path = SockPath("hello", 0);
  const pid_t worker = SpawnWorker("unix:" + path);
  ASSERT_GT(worker, 0);
  {
    net::SocketConfig cfg;
    cfg.endpoints = {"unix:" + path};
    net::SocketTransport transport(cfg);
    ASSERT_TRUE(transport.PeerConnected(0));

    net::Message req;
    req.type = net::MsgType::kHello;
    req.request_id = transport.NextRequestId();
    net::Message resp;
    double elapsed = 0.0;
    ASSERT_EQ(transport.Call(0, req, &resp, 2'000'000.0, &elapsed),
              net::CallStatus::kOk);
    EXPECT_EQ(resp.type, net::MsgType::kHello);
    EXPECT_EQ(resp.request_id, req.request_id);
    EXPECT_GT(elapsed, 0.0);
    EXPECT_EQ(transport.Stats().frames_sent, 1u);
    EXPECT_EQ(transport.Stats().frames_received, 1u);

    transport.ShutdownPeers();
  }
  EXPECT_EQ(WaitForExit(worker), 0) << "worker exits 0 on kShutdown";
}

TEST(SocketTransportTest, DetectionBitIdenticalOverRealSockets) {
  const World w = MakeWorld();
  const auto baseline =
      detect::DetectFriendSpammers(w.scenario.graph, w.seeds, w.cfg);

  std::vector<std::string> endpoints;
  std::vector<pid_t> workers;
  for (int i = 0; i < 3; ++i) {
    endpoints.push_back("unix:" + SockPath("detect", i));
    workers.push_back(SpawnWorker(endpoints.back()));
    ASSERT_GT(workers.back(), 0);
  }

  {
    Cluster wired(SocketConfigFor(endpoints));
    const auto over_wire = DetectFriendSpammersDistributed(
        w.scenario.graph, w.seeds, w.cfg, wired);
    ExpectSameDetection(over_wire, baseline);
    EXPECT_GT(over_wire.io.wire.frames_sent, 0u);
    EXPECT_GT(over_wire.io.wire.bytes_received, 0u);
    EXPECT_EQ(over_wire.io.shard_failovers, 0u);
    EXPECT_EQ(wired.NumDeadWorkers(), 0u);
    wired.ShutdownTransport();
  }
  for (pid_t pid : workers) EXPECT_EQ(WaitForExit(pid), 0);
}

// ISSUE acceptance: kill one worker process mid-run; the master must
// reconnect-or-failover and produce the bit-identical detection.
TEST(SocketTransportTest, WorkerKilledMidRunFailsOverBitIdentical) {
  const World w = MakeWorld();
  const auto baseline =
      detect::DetectFriendSpammers(w.scenario.graph, w.seeds, w.cfg);

  std::vector<std::string> endpoints;
  std::vector<pid_t> workers;
  for (int i = 0; i < 3; ++i) {
    endpoints.push_back("unix:" + SockPath("crash", i));
    net::WorkerOptions options;
    // Worker 1 hard-exits mid-run: after its first-round partition push
    // plus a few fetches, _Exit(137) — as abrupt as SIGKILL.
    if (i == 1) options.die_after_frames = 5;
    workers.push_back(SpawnWorker(endpoints.back(), options));
    ASSERT_GT(workers.back(), 0);
  }

  {
    Cluster wired(SocketConfigFor(endpoints));
    const auto faulted = DetectFriendSpammersDistributed(
        w.scenario.graph, w.seeds, w.cfg, wired);
    ExpectSameDetection(faulted, baseline);
    EXPECT_TRUE(wired.WorkerDead(1));
    EXPECT_EQ(wired.NumDeadWorkers(), 1u);
    EXPECT_GE(faulted.io.shard_failovers + faulted.io.wire.reconnects, 1u);
    EXPECT_GT(faulted.io.wire.reconnects, 0u)
        << "the master must have tried to reconnect before failing over";
    wired.ShutdownTransport();
  }
  EXPECT_EQ(WaitForExit(workers[0]), 0);
  EXPECT_EQ(WaitForExit(workers[1]), 137) << "the crash injection fired";
  EXPECT_EQ(WaitForExit(workers[2]), 0);
}

// A corrupted byte on the master's receive path poisons the stream; the
// master must tear the connection down, reconnect, resend, and succeed —
// all inside one engine-level attempt.
TEST(SocketTransportTest, CorruptStreamReconnectsAndResends) {
  const std::string path = SockPath("corrupt", 0);
  const pid_t worker = SpawnWorker("unix:" + path);
  ASSERT_GT(worker, 0);
  {
    net::SocketConfig cfg;
    cfg.endpoints = {"unix:" + path};
    net::SocketTransport transport(cfg);

    util::ScopedFailpoint flip("net/corrupt_frame",
                               util::FailpointPolicy::OnNth(1));
    net::Message req;
    req.type = net::MsgType::kHello;
    req.request_id = transport.NextRequestId();
    net::Message resp;
    ASSERT_EQ(transport.Call(0, req, &resp, 2'000'000.0, nullptr),
              net::CallStatus::kOk)
        << "reconnect-and-resend must recover from one corrupt frame";
    EXPECT_EQ(resp.request_id, req.request_id);
    EXPECT_EQ(transport.Stats().corrupt_frames, 1u);
    EXPECT_EQ(transport.Stats().reconnects, 1u);

    transport.ShutdownPeers();
  }
  EXPECT_EQ(WaitForExit(worker), 0);
}

TEST(SocketTransportTest, UnreachableWorkerFailsConstructionLoudly) {
  net::SocketConfig cfg;
  cfg.endpoints = {"unix:/tmp/rejecto_nobody_listens_here.sock"};
  cfg.connect_attempts = 2;
  cfg.connect_retry_delay_us = 1'000.0;
  EXPECT_THROW(net::SocketTransport{cfg}, std::runtime_error);
}

TEST(SocketTransportTest, EndpointParsing) {
  const auto unix_ep = net::ParseEndpoint("unix:/tmp/w0.sock");
  EXPECT_EQ(unix_ep.kind, net::Endpoint::Kind::kUnix);
  EXPECT_EQ(unix_ep.path, "/tmp/w0.sock");
  const auto bare = net::ParseEndpoint("/tmp/w1.sock");
  EXPECT_EQ(bare.kind, net::Endpoint::Kind::kUnix);
  const auto tcp = net::ParseEndpoint("tcp:127.0.0.1:7001");
  EXPECT_EQ(tcp.kind, net::Endpoint::Kind::kTcp);
  EXPECT_EQ(tcp.host, "127.0.0.1");
  EXPECT_EQ(tcp.port, 7001);
  EXPECT_THROW(net::ParseEndpoint(""), std::invalid_argument);
  EXPECT_THROW(net::ParseEndpoint("tcp:localhost"), std::invalid_argument);
  EXPECT_THROW(net::ParseEndpoint("tcp:h:99999"), std::invalid_argument);
  EXPECT_THROW(net::ParseEndpoint("unix:"), std::invalid_argument);
}

}  // namespace
}  // namespace rejecto::engine
