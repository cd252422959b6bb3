#include "engine/cluster.h"

#include <stdexcept>
#include <string>

#include "engine/net_worker.h"

namespace rejecto::engine {
namespace {

// "cluster.cpp:42: ..." — so a bad config thrown five layers deep in a
// bench harness still points at the check that rejected it.
std::string At(int line) {
  return std::string("cluster.cpp:") + std::to_string(line) + ": ";
}

// Runs before the thread pool spins up: a zero-worker pool must never be
// constructed, so validation cannot live in the constructor body.
ClusterConfig Validated(ClusterConfig config) {
  if (config.num_workers == 0 ||
      config.num_workers > static_cast<std::uint32_t>(util::kMaxThreads)) {
    throw std::invalid_argument(
        At(__LINE__) + "ClusterConfig::num_workers must be in [1, " +
        std::to_string(util::kMaxThreads) + "]; got " +
        std::to_string(config.num_workers));
  }
  if (config.prefetch_batch == 0 ||
      config.prefetch_batch > config.buffer_capacity) {
    throw std::invalid_argument(
        At(__LINE__) +
        "ClusterConfig::prefetch_batch must be in [1, buffer_capacity]; got " +
        std::to_string(config.prefetch_batch) + " with buffer_capacity " +
        std::to_string(config.buffer_capacity));
  }
  config.fetch.Validate("ClusterConfig::fetch");
  switch (config.transport) {
    case net::TransportKind::kSimNet:
      if (config.sim.num_peers == 0) {
        config.sim.num_peers = config.num_workers;
      } else if (config.sim.num_peers != config.num_workers) {
        throw std::invalid_argument(
            At(__LINE__) + "ClusterConfig::sim.num_peers (" +
            std::to_string(config.sim.num_peers) +
            ") must be 0 or equal num_workers (" +
            std::to_string(config.num_workers) + ")");
      }
      for (const auto& [peer, faults] : config.sim.link_overrides) {
        if (peer >= config.num_workers) {
          throw std::invalid_argument(
              At(__LINE__) + "ClusterConfig::sim.link_overrides names peer " +
              std::to_string(peer) + " but the cluster has " +
              std::to_string(config.num_workers) + " workers");
        }
        (void)faults;
      }
      break;
    case net::TransportKind::kSocket:
      if (config.socket.endpoints.size() != config.num_workers) {
        throw std::invalid_argument(
            At(__LINE__) + "ClusterConfig::socket.endpoints has " +
            std::to_string(config.socket.endpoints.size()) +
            " entries for " + std::to_string(config.num_workers) +
            " workers");
      }
      // Parse now so a typo'd endpoint dies here, not mid-connect.
      for (const std::string& e : config.socket.endpoints) {
        net::ParseEndpoint(e);
      }
      if (config.socket.connect_attempts == 0) {
        throw std::invalid_argument(
            At(__LINE__) + "ClusterConfig::socket.connect_attempts must be "
            ">= 1");
      }
      break;
  }
  return config;
}

}  // namespace

Cluster::Cluster(const ClusterConfig& config)
    : config_(Validated(config)),
      pool_(config_.num_workers),
      dead_(config_.num_workers, 0) {
  switch (config_.transport) {
    case net::TransportKind::kSimNet: {
      auto sim = std::make_unique<net::SimNetwork>(config_.sim);
      sim_workers_.reserve(config_.num_workers);
      for (std::uint32_t w = 0; w < config_.num_workers; ++w) {
        sim_workers_.push_back(std::make_unique<ShardWorker>());
        ShardWorker* worker = sim_workers_.back().get();
        sim->SetHandler(
            w, [worker](const net::Message& m) { return worker->Serve(m); });
      }
      transport_ = std::move(sim);
      break;
    }
    case net::TransportKind::kSocket:
      transport_ = std::make_unique<net::SocketTransport>(config_.socket);
      break;
  }
}

Cluster::~Cluster() { ShutdownTransport(); }

void Cluster::ShutdownTransport() {
  if (config_.transport == net::TransportKind::kSocket) {
    static_cast<net::SocketTransport*>(transport_.get())->ShutdownPeers();
  }
}

void Cluster::KillWorker(std::uint32_t worker) {
  if (worker >= dead_.size()) {
    throw std::out_of_range("Cluster::KillWorker: worker index");
  }
  dead_[worker] = 1;
  // An in-process sim worker "dies" by losing its frame handler: every
  // frame to it from now on vanishes like frames to a crashed process.
  if (config_.transport == net::TransportKind::kSimNet) {
    transport_->SetHandler(worker, nullptr);
  }
}

void Cluster::ReviveWorker(std::uint32_t worker) {
  if (worker >= dead_.size()) {
    throw std::out_of_range("Cluster::ReviveWorker: worker index");
  }
  dead_[worker] = 0;
  if (config_.transport == net::TransportKind::kSimNet) {
    // The revived worker restarts empty — its partitions were lost; the
    // next store push repopulates it.
    sim_workers_[worker] = std::make_unique<ShardWorker>();
    ShardWorker* w = sim_workers_[worker].get();
    transport_->SetHandler(
        worker, [w](const net::Message& m) { return w->Serve(m); });
  }
}

std::uint32_t Cluster::NumDeadWorkers() const noexcept {
  std::uint32_t n = 0;
  for (char d : dead_) n += d != 0;
  return n;
}

const ShardWorker* Cluster::SimWorker(std::uint32_t worker) const noexcept {
  if (config_.transport != net::TransportKind::kSimNet ||
      worker >= sim_workers_.size()) {
    return nullptr;
  }
  return sim_workers_[worker].get();
}

}  // namespace rejecto::engine
