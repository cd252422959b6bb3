// Worker-resident sharded graph storage (paper §V).
//
// The Rejecto prototype keeps the (huge) social graph distributed across
// Spark workers as RDD partitions while the master holds only per-node
// algorithm state. This substrate reproduces that data layout: the
// augmented graph's adjacency is hash-sharded across the cluster's workers,
// construction pushes each partition to its worker as RJNET001 kBuildShard
// frames, and the master pulls per-node adjacency through FetchBatch as
// kFetchRequest frames. What carries the frames is the cluster's transport
// (net/transport.h): net::SimNetwork with in-process engine::ShardWorkers
// (the default; zero-fault links are the simulated-cluster cost model), or
// net::SocketTransport to real worker processes.
//
// Failure tolerance (docs/ROBUSTNESS.md): every shard RPC — partition push
// or fetch — runs one retry loop. Each attempt consults the
// "engine/worker_crash" failpoint (the worker dies and its partition is
// lost); fetches also consult "engine/fetch_shard" (a transient failure
// that burns the attempt's timeout). The same loop absorbs transport
// faults: timeouts from dropped/partitioned links, CRC-rejected corrupt
// frames, and dead peers, retrying with exponential backoff up to
// FetchPolicy::max_attempts. When retries are exhausted or a worker
// crashes, degraded mode fails the shard over: its partition is rebuilt
// from the source graph — the lineage recompute of the prototype's RDDs —
// and served master-locally, so detection continues bit-identical to a
// failure-free run. With degraded mode off the same condition throws.
// Failure resolution runs on the master thread in increasing shard order,
// so injected faults are deterministic.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "graph/augmented_graph.h"
#include "graph/types.h"
#include "net/transport.h"

namespace rejecto::engine {

// A node's complete neighborhood in the augmented graph.
struct NodeAdjacency {
  std::vector<graph::NodeId> friends;
  std::vector<graph::NodeId> rejectors;  // cast rejections onto this node
  std::vector<graph::NodeId> rejectees;  // rejected by this node

  // Simulated wire size: 4 bytes per id plus a fixed header.
  std::uint64_t WireBytes() const noexcept {
    return 16 + 4 * (friends.size() + rejectors.size() + rejectees.size());
  }
};

// Master-side retry/failover policy for shard RPCs. Lives on ClusterConfig
// (the deployment's knobs) and is copied into every store the cluster
// builds. attempt_timeout_us is the per-request transport deadline of a
// fetch and publish_timeout_us bounds a shard partition push.
struct FetchPolicy {
  std::uint32_t max_attempts = 3;        // tries per shard RPC before failover
  double backoff_us = 1000.0;            // wait before retry #1
  double backoff_multiplier = 2.0;       // exponential backoff growth
  double attempt_timeout_us = 5000.0;    // per-attempt request deadline
  double publish_timeout_us = 250'000.0; // per-attempt shard-push deadline
  // Fail a dead/unreachable shard over to a replica rebuilt from the source
  // graph instead of aborting the sweep.
  bool degraded_mode = true;

  // Rejects zero attempts, negative backoff/timeouts, and a shrinking
  // backoff with a file:line-prefixed std::invalid_argument naming `who`
  // (e.g. "ClusterConfig.fetch").
  void Validate(const std::string& who) const;
};

// Cumulative master<->worker traffic accounting.
struct IoStats {
  std::uint64_t fetch_requests = 0;  // batched RPCs issued
  std::uint64_t nodes_fetched = 0;
  std::uint64_t bytes_transferred = 0;
  std::uint64_t cache_hits = 0;      // served from the prefetch buffer
  std::uint64_t cache_misses = 0;
  std::uint64_t fetch_retries = 0;   // shard RPC attempts repeated
  std::uint64_t shard_failovers = 0; // partitions rebuilt from lineage
  double simulated_network_us = 0.0;  // simnet virtual time
  double simulated_backoff_us = 0.0;  // retry backoff waits (simulated)
  // Wire-level counters: frames, bytes on the wire, timeouts, reconnects,
  // corrupt/dropped frames.
  net::TransportStats wire;

  double HitRate() const noexcept {
    const std::uint64_t total = cache_hits + cache_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(cache_hits) /
                            static_cast<double>(total);
  }

  // Field-wise sum, so aggregation sites can't silently drop a counter.
  void Accumulate(const IoStats& o) noexcept {
    fetch_requests += o.fetch_requests;
    nodes_fetched += o.nodes_fetched;
    bytes_transferred += o.bytes_transferred;
    cache_hits += o.cache_hits;
    cache_misses += o.cache_misses;
    fetch_retries += o.fetch_retries;
    shard_failovers += o.shard_failovers;
    simulated_network_us += o.simulated_network_us;
    simulated_backoff_us += o.simulated_backoff_us;
    wire.Accumulate(o.wire);
  }
};

class Cluster;

class ShardedGraphStore {
 public:
  // Shards g's adjacency round-robin (node id mod num_workers), one shard
  // per worker of `cluster`, under the cluster's FetchPolicy. Worker-death
  // tracking is shared with `cluster`: a shard whose worker is already dead
  // is built as a failover replica up front (counted in Failovers()), and a
  // crash injected mid-sweep marks the worker dead for every later store
  // the cluster builds. Construction publishes every live shard's partition
  // to its worker as kBuildShard frames; a push that cannot be delivered
  // within the fetch policy fails the shard over at build time (degraded
  // mode) or throws. `cluster` and `g` must outlive the store — `g` is the
  // lineage source for shard failover.
  ShardedGraphStore(const graph::AugmentedGraph& g, Cluster& cluster);

  ~ShardedGraphStore();

  graph::NodeId NumNodes() const noexcept { return num_nodes_; }
  std::uint32_t NumShards() const noexcept {
    return static_cast<std::uint32_t>(shards_.size());
  }

  std::uint32_t ShardOf(graph::NodeId v) const noexcept {
    return v % NumShards();
  }

  // Master-side degree state, computed once at construction (the maxima
  // are AugmentedGraph's); reading it never fetches.
  std::uint32_t RejInDegree(graph::NodeId v) const { return rej_in_[v]; }
  std::uint32_t RejOutDegree(graph::NodeId v) const { return rej_out_[v]; }
  std::uint64_t MaxFriendshipDegree() const noexcept {
    return max_friendship_degree_;
  }
  std::uint64_t MaxRejectionDegree() const noexcept {
    return max_rejection_degree_;
  }

  // Pulls the adjacency of each requested node, grouping the request by
  // shard: one kFetchRequest frame per live shard touched, retried/failed
  // over per FetchPolicy. `stats` is charged one fetch_request and the
  // payload bytes per answered frame, with wire counters in stats.wire.
  // Master-thread only.
  std::vector<NodeAdjacency> FetchBatch(std::span<const graph::NodeId> nodes,
                                        IoStats& stats) const;

  // Runs fn(shard_index) for every shard on the worker pool and waits —
  // the analogue of a Spark transformation over all partitions. (This
  // worker-local compute executes in-process; only the fetch/update RPC
  // boundary crosses the transport. See DESIGN.md.)
  void ForEachShard(const std::function<void(std::uint32_t)>& fn) const;

  // Worker-local access to a node's adjacency — no simulated network I/O.
  // Only call for nodes of the shard the caller is processing (inside a
  // ForEachShard body); cross-shard reads must go through FetchBatch.
  const NodeAdjacency& Local(graph::NodeId v) const {
    return shards_[ShardOf(v)].nodes[v / NumShards()];
  }

  // Shards built as failover replicas because their worker was already
  // dead at construction. Publish-time failovers are metered into
  // PublishIo().shard_failovers and FetchBatch-time failovers into the
  // caller's IoStats, so summing all three never double-counts.
  std::uint64_t Failovers() const noexcept { return failovers_; }

  // True if shard s currently serves from a rebuilt replica.
  bool IsReplica(std::uint32_t s) const { return replica_[s] != 0; }

  // Wire traffic of the construction-time shard publish.
  const IoStats& PublishIo() const noexcept { return publish_io_; }

 private:
  struct Shard {
    // Dense local storage: local index = global id / num_shards.
    std::vector<NodeAdjacency> nodes;
  };

  // How a shard RPC's caller reads one intact response.
  enum class Reply : std::uint8_t {
    kTaken,  // the answer: stop
    kRetry,  // unusable (stale, truncated, undecodable): try again
    kLost,   // the worker lost the partition: fail over now
  };

  // Rebuilds shard s's partition from the source graph (deterministic, so
  // a replica is bit-identical to the partition it replaces).
  void BuildShard(std::uint32_t s) const;
  // Degraded-mode failover of an unreachable shard; throws when degraded
  // mode is off.
  void FailoverShard(std::uint32_t s, IoStats& stats) const;
  // The one retry/backoff/failover loop around transport Calls, shared by
  // partition pushes and fetches. Per attempt it evaluates
  // "engine/worker_crash", then `fault_site` if non-null, then sends
  // `request` under a fresh request id; `take` judges each response.
  // Meters time, retries and wire counters into `stats`. Returns true when
  // `take` accepted a response, false after failing the shard over.
  bool CallShard(std::uint32_t s, net::Message& request, double timeout_us,
                 const char* fault_site, IoStats& stats,
                 const std::function<Reply(const net::Message&)>& take) const;
  // Fetches `positions` of `nodes` from shard s's worker into `out`;
  // returns false when the shard failed over instead.
  bool FetchFromWorker(std::uint32_t s, std::span<const graph::NodeId> nodes,
                       const std::vector<std::size_t>& positions,
                       std::vector<NodeAdjacency>& out, IoStats& stats) const;
  // Pushes shard s to its worker; on failure the shard fails over (or the
  // constructor throws without degraded mode).
  void PublishShard(std::uint32_t s);

  graph::NodeId num_nodes_ = 0;
  std::vector<std::uint32_t> rej_in_;
  std::vector<std::uint32_t> rej_out_;
  std::uint64_t max_friendship_degree_ = 0;
  std::uint64_t max_rejection_degree_ = 0;
  const graph::AugmentedGraph* source_;  // lineage for failover rebuilds
  // Failure handling mutates shard state from const FetchBatch; all of it
  // runs on the master thread (FetchBatch is not itself thread-safe).
  mutable std::vector<Shard> shards_;
  mutable std::vector<char> replica_;
  mutable std::uint64_t failovers_ = 0;
  Cluster* cluster_;  // worker pool, transport, worker-death tracking
  std::uint64_t store_id_ = 0;
  IoStats publish_io_;
  FetchPolicy policy_;
};

}  // namespace rejecto::engine
