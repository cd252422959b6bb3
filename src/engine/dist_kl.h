// Distributed extended Kernighan–Lin (paper §V).
//
// The same algorithm as detect::ExtendedKl with the prototype's Spark data
// layout: node status (side, cross-friend / rejection aggregates, switch
// gains, bucket list) lives on the master; adjacency lives on the workers
// in a ShardedGraphStore and is pulled on demand through a PrefetchBuffer
// whose prefetch candidates are the bucket list's current top-gain nodes.
// Aggregate initialization runs shard-parallel, like the prototype's RDD
// transformations. The result is bit-identical to detect::ExtendedKl (an
// equivalence the tests assert); what differs is the metered I/O.
#pragma once

#include "detect/extended_kl.h"
#include "engine/cluster.h"
#include "engine/shard_store.h"
#include "graph/augmented_graph.h"

namespace rejecto::engine {

struct DistKlResult {
  detect::KlResult kl;
  IoStats io;
  std::uint32_t num_shards = 0;
};

// The store must be built over the same graph `g` (g is only used for the
// node count and final cut audit; adjacency flows through the store).
DistKlResult DistributedKl(const ShardedGraphStore& store,
                           std::vector<char> init_in_u,
                           const std::vector<char>& locked,
                           const detect::KlConfig& kl_config,
                           Cluster& cluster);

}  // namespace rejecto::engine
