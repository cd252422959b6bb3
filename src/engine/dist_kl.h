// Distributed extended Kernighan–Lin (paper §V).
//
// detect::ExtendedKl's own kernel over a row source backed by a
// ShardedGraphStore, in the prototype's Spark data layout: node status
// (aggregates, gains, bucket list) lives on the master, adjacency on the
// workers. Aggregate init reads each shard's rows on its own worker, like
// the prototype's RDD transformations. Each switch pulls its row through a
// PrefetchBuffer whose candidates are the bucket list's top-gain nodes.
// The pass gain bound reads only master-side degree arrays, so a pass that
// stops early fetches nothing for the nodes it never pops. Each pass
// rewinds to its checkpoint and replays the kept prefix, refetching those
// rows. The result is bit-identical to detect::ExtendedKl
// (the tests assert it); what differs is the metered I/O.
#pragma once

#include "detect/extended_kl.h"
#include "engine/cluster.h"
#include "engine/shard_store.h"

namespace rejecto::engine {

struct DistKlResult {
  detect::KlResult kl;
  IoStats io;
};

// Same contract as detect::ExtendedKl, with the store as the graph; the
// prefetch buffer is sized by the cluster's config.
DistKlResult DistributedKl(const ShardedGraphStore& store,
                           std::vector<char> init_in_u,
                           const std::vector<char>& locked,
                           const detect::KlConfig& kl_config,
                           Cluster& cluster);

}  // namespace rejecto::engine
