// Distributed MAAR solve: detect::MaarSolver's k-sweep + Dinkelbach driver
// with engine::DistributedKl as the inner partitioner, so the full Rejecto
// cut search runs against the cluster substrate (sharded adjacency, master
// bucket list, prefetch). Produces the exact cut the serial solver would
// (DistributedKl runs ExtendedKl's own kernel over the sharded store) plus
// accumulated I/O statistics for every KL invocation of the sweep — this
// is what Table II times.
#pragma once

#include "detect/maar.h"
#include "engine/cluster.h"
#include "engine/shard_store.h"

namespace rejecto::engine {

struct DistMaarResult {
  detect::MaarCut cut;
  IoStats io;  // summed over all KL runs of the sweep
};

// `store` must hold the same augmented graph `g`. The cluster provides the
// worker pool and prefetch configuration.
DistMaarResult SolveMaarDistributed(const graph::AugmentedGraph& g,
                                    const ShardedGraphStore& store,
                                    Cluster& cluster,
                                    const detect::Seeds& seeds,
                                    const detect::MaarConfig& config);

}  // namespace rejecto::engine
