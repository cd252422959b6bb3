// Fully-distributed Rejecto pipeline (paper §V end-to-end).
//
// detect::DetectFriendSpammers with every per-round MAAR solve executed on
// the cluster substrate: each residual graph is re-sharded across the
// workers (the prototype rebuilds its RDDs after pruning, caching them in
// memory) and solved via engine::SolveMaarDistributed. Results are
// identical to the serial pipeline; I/O statistics accumulate across all
// rounds and sweeps.
#pragma once

#include <vector>

#include "detect/iterative.h"
#include "engine/cluster.h"
#include "engine/shard_store.h"

namespace rejecto::engine {

struct DistDetectionResult {
  detect::DetectionResult detection;
  IoStats io;              // summed over every KL run of every round
  int stores_built = 0;    // residual re-shardings (one per round)
  // One entry per round: that round's store publish + KL sweep traffic,
  // including wire counters (io is the field-wise sum of these).
  std::vector<IoStats> per_round;
};

DistDetectionResult DetectFriendSpammersDistributed(
    const graph::AugmentedGraph& g, const detect::Seeds& seeds,
    const detect::IterativeConfig& config, Cluster& cluster);

}  // namespace rejecto::engine
