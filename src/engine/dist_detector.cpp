#include "engine/dist_detector.h"

#include "engine/dist_maar.h"

namespace rejecto::engine {

DistDetectionResult DetectFriendSpammersDistributed(
    const graph::AugmentedGraph& g, const detect::Seeds& seeds,
    const detect::IterativeConfig& config, Cluster& cluster) {
  DistDetectionResult result;
  auto runner = [&](const graph::AugmentedGraph& residual,
                    const detect::Seeds& round_seeds,
                    const detect::MaarConfig& maar) {
    // Re-shard the residual graph — the prototype's per-round RDD rebuild.
    // The cluster-aware store carries the fetch retry/failover policy and
    // rebuilds dead workers' partitions as replicas up front.
    const ShardedGraphStore store(residual, cluster);
    ++result.stores_built;
    IoStats round_io;
    round_io.Accumulate(store.PublishIo());  // wire backends: partition push
    round_io.shard_failovers += store.Failovers();
    DistMaarResult r =
        SolveMaarDistributed(residual, store, cluster, round_seeds, maar);
    round_io.Accumulate(r.io);
    result.io.Accumulate(round_io);
    result.per_round.push_back(round_io);
    return r.cut;
  };
  result.detection = detect::DetectFriendSpammers(g, seeds, config, runner);
  return result;
}

}  // namespace rejecto::engine
