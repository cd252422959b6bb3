// Table II: Rejecto's execution time with respect to the input graph size
// on the cluster.
//
// The paper runs the Spark prototype on 5x 60GB EC2 machines over 0.5M-10M
// user graphs (~16 edges/user) and reports near-linear scaling. We
// reproduce the identical data layout in-process (DESIGN.md substitution
// #4) — sharded worker storage, master-resident bucket list, batched
// prefetch with LRU — at laptop scale (50K .. 800K users, x2 steps), with
// every shard RPC crossing a clean simnet link, whose delay and bandwidth
// give sim_net_sec. The shape to check is near-linear growth of both
// runtime and simulated network traffic with graph size.
#include <algorithm>
#include <iostream>

#include "detect/maar.h"
#include "engine/cluster.h"
#include "engine/dist_detector.h"
#include "engine/dist_maar.h"
#include "engine/shard_store.h"
#include "gen/barabasi_albert.h"
#include "harness.h"
#include "sim/scenario.h"
#include "util/table.h"
#include "util/timer.h"

int main() {
  using namespace rejecto;
  const auto ctx = bench::ExperimentContext::FromEnv();

  const std::vector<graph::NodeId> sizes =
      ctx.fast ? std::vector<graph::NodeId>{50'000, 100'000}
               : std::vector<graph::NodeId>{50'000, 100'000, 200'000,
                                            400'000, 800'000};

  util::Table t({"users", "edges", "arcs", "shards", "time_sec",
                 "sim_net_sec", "fetch_requests", "mb_transferred",
                 "prefetch_hit_rate"});
  t.set_precision(3);
  // Per-round transport counters of the simnet wire probe; busy_us is
  // virtual time inside Transport::Call.
  util::Table wire_rounds({"users", "round", "frames_sent", "frames_received",
                           "bytes_sent", "bytes_received", "retries",
                           "timeouts", "reconnects", "failovers", "busy_us"});
  wire_rounds.set_precision(0);

  for (graph::NodeId n : sizes) {
    // ~16 edges/user as in Table II; a 5% fake region sends spam.
    util::Rng grng(ctx.seed + n);
    const auto legit =
        gen::BarabasiAlbert({.num_nodes = n, .edges_per_node = 8}, grng);
    sim::ScenarioConfig scfg;
    scfg.seed = ctx.seed + n;
    scfg.num_fakes = n / 20;
    scfg.careless_fraction = 0.05;
    const auto scenario = sim::BuildScenario(legit, scfg);

    // The master's prefetch buffer holds a fixed fraction of the node set,
    // mirroring how the paper provisions the cluster so memory scales with
    // the graph ("provided that the aggregate memory ... suffices").
    engine::ClusterConfig ccfg;
    ccfg.num_workers = 4;
    ccfg.prefetch_batch = 512;
    ccfg.buffer_capacity = std::max<std::size_t>(8192, n / 2);
    engine::Cluster cluster(ccfg);
    const engine::ShardedGraphStore store(scenario.graph, cluster);

    // A full (reduced-sweep) MAAR solve on the cluster substrate: the k
    // sweep, multi-init KL runs, and Dinkelbach refinement all pull
    // adjacency through the workers — what the paper's Table II times.
    detect::MaarConfig maar;
    maar.k_min = 0.25;
    maar.k_max = 4.0;
    maar.k_scale = 4.0;  // 3 sweep points
    maar.num_random_inits = 0;
    maar.dinkelbach_rounds = 1;
    maar.seed = ctx.seed;

    util::WallTimer timer;
    const auto result = engine::SolveMaarDistributed(scenario.graph, store,
                                                     cluster, {}, maar);
    const double secs = timer.Seconds();

    // Wire probe at the smallest size: the full iterative detection on a
    // fresh cluster of the same config. One row of per-round transport
    // counters per detection round shows how traffic decays as rounds
    // prune the residual graph.
    if (n == sizes.front()) {
      engine::Cluster wired(ccfg);
      util::Rng srng(ctx.seed + 9);
      const auto seeds = scenario.SampleSeeds(16, 6, srng);
      detect::IterativeConfig dcfg;
      dcfg.target_detections = scfg.num_fakes;
      dcfg.maar = maar;
      const auto wire = engine::DetectFriendSpammersDistributed(
          scenario.graph, seeds, dcfg, wired);
      for (std::size_t r = 0; r < wire.per_round.size(); ++r) {
        const engine::IoStats& io = wire.per_round[r];
        wire_rounds.AddRow(
            {static_cast<std::int64_t>(n), static_cast<std::int64_t>(r),
             static_cast<std::int64_t>(io.wire.frames_sent),
             static_cast<std::int64_t>(io.wire.frames_received),
             static_cast<std::int64_t>(io.wire.bytes_sent),
             static_cast<std::int64_t>(io.wire.bytes_received),
             static_cast<std::int64_t>(io.fetch_retries),
             static_cast<std::int64_t>(io.wire.timeouts),
             static_cast<std::int64_t>(io.wire.reconnects),
             static_cast<std::int64_t>(io.shard_failovers), io.wire.busy_us});
      }
      std::cout << "wire probe (simnet, " << n << " users): "
                << wire.per_round.size() << " rounds, "
                << wire.io.wire.frames_sent << " frames, "
                << wire.io.wire.bytes_sent + wire.io.wire.bytes_received
                << " bytes on the wire\n";
    }

    t.AddRow({static_cast<std::int64_t>(n),
              static_cast<std::int64_t>(
                  scenario.graph.Friendships().NumEdges()),
              static_cast<std::int64_t>(scenario.graph.Rejections().NumArcs()),
              std::int64_t{4}, secs,
              result.io.simulated_network_us / 1e6,
              static_cast<std::int64_t>(result.io.fetch_requests),
              static_cast<double>(result.io.bytes_transferred) / 1e6,
              result.io.HitRate()});
    (void)result.cut;
  }
  ctx.Emit("table2",
           "Table II: distributed MAAR solve runtime vs graph size (4"
           " simulated workers)",
           t);
  ctx.Emit("table2_wire",
           "Table II wire probe: per-round simnet transport counters",
           wire_rounds);
  std::cout << "\nShape check: time and traffic grow near-linearly with"
               " users (the paper's 0.5M->10M scaling claim at laptop"
               " scale).\n";
  return 0;
}
