#include "engine/shard_store.h"

#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "engine/cluster.h"
#include "engine/wire.h"
#include "util/failpoint.h"

namespace rejecto::engine {
namespace {

std::string At(int line) {
  return std::string("shard_store.cpp:") + std::to_string(line) + ": ";
}

// Wire counters are cumulative on the transport; per-operation IoStats get
// the snapshot difference.
net::TransportStats Delta(const net::TransportStats& now,
                          const net::TransportStats& then) {
  net::TransportStats d;
  d.frames_sent = now.frames_sent - then.frames_sent;
  d.frames_received = now.frames_received - then.frames_received;
  d.bytes_sent = now.bytes_sent - then.bytes_sent;
  d.bytes_received = now.bytes_received - then.bytes_received;
  d.timeouts = now.timeouts - then.timeouts;
  d.reconnects = now.reconnects - then.reconnects;
  d.corrupt_frames = now.corrupt_frames - then.corrupt_frames;
  d.dropped_frames = now.dropped_frames - then.dropped_frames;
  d.busy_us = now.busy_us - then.busy_us;
  return d;
}

// Real backoff for the socket backend; simnet only meters it.
// Capped so a test with an aggressive multiplier can't stall for seconds.
void SleepBackoff(double backoff_us) {
  constexpr double kMaxSleepUs = 50'000.0;
  const auto us = static_cast<std::int64_t>(
      backoff_us < kMaxSleepUs ? backoff_us : kMaxSleepUs);
  if (us > 0) std::this_thread::sleep_for(std::chrono::microseconds(us));
}

}  // namespace

void FetchPolicy::Validate(const std::string& who) const {
  if (max_attempts == 0) {
    throw std::invalid_argument(At(__LINE__) + who +
                                ".max_attempts must be >= 1");
  }
  if (backoff_us < 0.0) {
    throw std::invalid_argument(At(__LINE__) + who +
                                ".backoff_us must be non-negative");
  }
  if (backoff_multiplier < 1.0) {
    throw std::invalid_argument(At(__LINE__) + who +
                                ".backoff_multiplier must be >= 1");
  }
  if (attempt_timeout_us < 0.0) {
    throw std::invalid_argument(At(__LINE__) + who +
                                ".attempt_timeout_us must be non-negative");
  }
  if (publish_timeout_us < 0.0) {
    throw std::invalid_argument(At(__LINE__) + who +
                                ".publish_timeout_us must be non-negative");
  }
}

ShardedGraphStore::ShardedGraphStore(const graph::AugmentedGraph& g,
                                     Cluster& cluster)
    : num_nodes_(g.NumNodes()),
      rej_in_(g.NumNodes()),
      rej_out_(g.NumNodes()),
      max_friendship_degree_(g.MaxFriendshipDegree()),
      max_rejection_degree_(g.MaxRejectionDegree()),
      source_(&g),
      cluster_(&cluster),
      store_id_(cluster.NextStoreId()),
      policy_(cluster.Config().fetch) {
  for (graph::NodeId v = 0; v < num_nodes_; ++v) {
    rej_in_[v] = g.Rejections().InDegree(v);
    rej_out_[v] = g.Rejections().OutDegree(v);
  }
  const auto num_shards = static_cast<std::uint32_t>(cluster.Pool().size());
  shards_.resize(num_shards);
  replica_.assign(num_shards, 0);
  // Shard loading is embarrassingly parallel across shards.
  ForEachShard([&](std::uint32_t s) { BuildShard(s); });
  // Partitions of already-dead workers start life as failover replicas: the
  // data was just rebuilt from lineage, which is exactly the degraded-mode
  // path — but constructing a store for a dead worker without degraded mode
  // is an operator error.
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    if (cluster.WorkerDead(s)) {
      if (!policy_.degraded_mode) {
        throw std::runtime_error(
            "ShardedGraphStore: worker " + std::to_string(s) +
            " is dead and degraded mode is off");
      }
      replica_[s] = 1;
      ++failovers_;
    }
  }
  // Distribute the partitions: every live shard is pushed to its worker as
  // a kBuildShard frame, in shard order on the master thread so the wire
  // schedule is deterministic.
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    if (replica_[s] == 0) PublishShard(s);
  }
}

ShardedGraphStore::~ShardedGraphStore() = default;

void ShardedGraphStore::BuildShard(std::uint32_t s) const {
  const std::uint32_t num_shards = NumShards();
  Shard& shard = shards_[s];
  shard.nodes.assign((num_nodes_ + num_shards - 1 - s) / num_shards,
                     NodeAdjacency{});
  const graph::AugmentedGraph& g = *source_;
  for (graph::NodeId v = static_cast<graph::NodeId>(s); v < num_nodes_;
       v += num_shards) {
    NodeAdjacency& a = shard.nodes[v / num_shards];
    const auto fr = g.Friendships().Neighbors(v);
    const auto rin = g.Rejections().Rejectors(v);
    const auto rout = g.Rejections().Rejectees(v);
    a.friends.assign(fr.begin(), fr.end());
    a.rejectors.assign(rin.begin(), rin.end());
    a.rejectees.assign(rout.begin(), rout.end());
  }
}

void ShardedGraphStore::FailoverShard(std::uint32_t s, IoStats& stats) const {
  if (!policy_.degraded_mode) {
    throw std::runtime_error(
        "ShardedGraphStore: shard " + std::to_string(s) +
        " unavailable after " + std::to_string(policy_.max_attempts) +
        " attempts and degraded mode is off");
  }
  // Lineage recompute: the replacement worker rebuilds the partition from
  // the source graph, so the replica is bit-identical to what was lost.
  BuildShard(s);
  replica_[s] = 1;
  ++stats.shard_failovers;
}

bool ShardedGraphStore::CallShard(
    std::uint32_t s, net::Message& request, double timeout_us,
    const char* fault_site, IoStats& stats,
    const std::function<Reply(const net::Message&)>& take) const {
  util::Failpoints& fp = util::Failpoints::Instance();
  net::Transport& transport = cluster_->Transport();
  const bool simulated =
      cluster_->TransportKind() == net::TransportKind::kSimNet;
  const net::TransportStats before = transport.Stats();
  bool taken = false;
  double backoff = policy_.backoff_us;
  for (std::uint32_t attempt = 1;; ++attempt) {
    if (fp.ShouldFail("engine/worker_crash")) {
      // The worker died; its in-memory partition is gone. Every store this
      // cluster builds from now on sees the death.
      cluster_->KillWorker(s);
      break;
    }
    const bool injected = fault_site != nullptr && fp.ShouldFail(fault_site);
    if (injected) {
      // The master burns the attempt's timeout discovering the failure.
      stats.simulated_network_us += timeout_us;
    } else {
      // Straggler-proof: a fresh id per attempt, so a response limping in
      // after its attempt timed out is discarded by the transport, not us.
      request.request_id = transport.NextRequestId();
      net::Message resp;
      double elapsed = 0.0;
      const net::CallStatus st =
          transport.Call(s, request, &resp, timeout_us, &elapsed);
      if (simulated) stats.simulated_network_us += elapsed;
      if (st == net::CallStatus::kPeerDead) {
        cluster_->KillWorker(s);
        break;
      }
      if (st == net::CallStatus::kOk) {
        const Reply reply = take(resp);
        taken = reply == Reply::kTaken;
        if (reply != Reply::kRetry) break;
      }
    }
    if (attempt >= policy_.max_attempts) break;
    ++stats.fetch_retries;
    stats.simulated_backoff_us += backoff;
    if (!injected && !simulated) SleepBackoff(backoff);
    backoff *= policy_.backoff_multiplier;
  }
  stats.wire.Accumulate(Delta(transport.Stats(), before));
  if (!taken) FailoverShard(s, stats);
  return taken;
}

void ShardedGraphStore::PublishShard(std::uint32_t s) {
  net::Message req;
  req.type = net::MsgType::kBuildShard;
  {
    wire::BuildShard b;
    b.store_id = store_id_;
    b.shard = s;
    b.num_shards = NumShards();
    b.num_nodes = num_nodes_;
    // The local partition stays put (lineage source + worker-local
    // compute); the worker gets a copy.
    b.rows = shards_[s].nodes;
    wire::EncodeBuildShard(b, req.body);
  }
  const std::size_t rows = shards_[s].nodes.size();
  // A push that never lands fails over inside CallShard, counted in
  // publish_io_.shard_failovers, not Failovers(), so aggregating both never
  // double-counts.
  const bool acked = CallShard(
      s, req, policy_.publish_timeout_us, nullptr, publish_io_,
      [&](const net::Message& resp) {
        if (resp.type != net::MsgType::kBuildAck) return Reply::kRetry;
        try {
          const wire::BuildAck ack = wire::DecodeBuildAck(resp.body);
          if (ack.store_id == store_id_ && ack.shard == s &&
              ack.row_count == rows) {
            return Reply::kTaken;
          }
        } catch (const std::exception&) {
          // Undecodable ack body: treat like any failed attempt.
        }
        return Reply::kRetry;
      });
  if (acked) publish_io_.bytes_transferred += req.body.size();
}

bool ShardedGraphStore::FetchFromWorker(
    std::uint32_t s, std::span<const graph::NodeId> nodes,
    const std::vector<std::size_t>& positions, std::vector<NodeAdjacency>& out,
    IoStats& stats) const {
  std::vector<graph::NodeId> ids;
  ids.reserve(positions.size());
  for (std::size_t i : positions) ids.push_back(nodes[i]);
  net::Message req;
  req.type = net::MsgType::kFetchRequest;
  wire::EncodeFetchRequest(store_id_, ids, req.body);
  return CallShard(
      s, req, policy_.attempt_timeout_us, "engine/fetch_shard", stats,
      [&](const net::Message& resp) {
        if (resp.type == net::MsgType::kFetchResponse) {
          try {
            wire::FetchResponse fr = wire::DecodeFetchResponse(resp.body);
            // A stale generation or truncated row set is retried.
            if (fr.store_id != store_id_ || fr.rows.size() != ids.size()) {
              return Reply::kRetry;
            }
            for (std::size_t k = 0; k < positions.size(); ++k) {
              stats.bytes_transferred += fr.rows[k].WireBytes();
              out[positions[k]] = std::move(fr.rows[k]);
            }
            ++stats.fetch_requests;
            return Reply::kTaken;
          } catch (const std::exception&) {
            return Reply::kRetry;  // passed CRC but didn't decode
          }
        }
        if (resp.type == net::MsgType::kError) {
          try {
            // The worker process restarted and lost this store's partition
            // — for this store that's a crash, even though the peer is
            // alive.
            if (wire::DecodeError(resp.body).first ==
                wire::ErrorCode::kUnknownStore) {
              return Reply::kLost;
            }
          } catch (const std::exception&) {
          }
        }
        return Reply::kRetry;
      });
}

std::vector<NodeAdjacency> ShardedGraphStore::FetchBatch(
    std::span<const graph::NodeId> nodes, IoStats& stats) const {
  const std::uint32_t num_shards = NumShards();
  std::vector<std::vector<std::size_t>> by_shard(num_shards);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i] >= num_nodes_) {
      throw std::out_of_range("ShardedGraphStore::FetchBatch: node id");
    }
    by_shard[ShardOf(nodes[i])].push_back(i);
  }

  // One kFetchRequest frame per touched shard, issued on the master thread
  // in increasing shard order — deterministic fault injection, and the
  // reason the pool size cannot perturb the wire schedule. Anything not
  // answered over the wire is served from the (possibly just rebuilt)
  // local replica — bit-identical data, by lineage determinism.
  std::vector<NodeAdjacency> out(nodes.size());
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    if (by_shard[s].empty()) continue;
    if (replica_[s] == 0 &&
        FetchFromWorker(s, nodes, by_shard[s], out, stats)) {
      continue;
    }
    for (std::size_t i : by_shard[s]) {
      out[i] = shards_[s].nodes[nodes[i] / num_shards];
    }
  }
  stats.nodes_fetched += nodes.size();
  return out;
}

void ShardedGraphStore::ForEachShard(
    const std::function<void(std::uint32_t)>& fn) const {
  cluster_->Pool().ParallelFor(NumShards(),
                     [&](std::size_t s) { fn(static_cast<std::uint32_t>(s)); });
}

}  // namespace rejecto::engine
