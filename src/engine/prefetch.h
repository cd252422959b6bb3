// Master-side prefetch buffer with LRU replacement (paper §V).
//
// Fetching one node's adjacency per switch would cost a master<->worker
// round trip per step; the prototype instead prefetches the nodes most
// likely to be switched next — those with the highest potential gains in
// the bucket list — in batches, and evicts with LRU. The caller supplies
// the candidates; DistributedKl's row source hands in the live bucket
// list's top-gain nodes.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <unordered_map>
#include <vector>

#include "engine/shard_store.h"
#include "graph/types.h"

namespace rejecto::engine {

class PrefetchBuffer {
 public:
  // capacity: max cached adjacencies; batch_size: nodes pulled per miss
  // (the missed node plus up to batch_size-1 candidates).
  PrefetchBuffer(const ShardedGraphStore& store, std::size_t capacity,
                 std::size_t batch_size);

  // Returns v's adjacency, fetching a batch on miss. `candidates` supplies
  // ids worth prefetching alongside v (may repeat v or cached ids — both
  // are skipped). The reference stays valid until the next Get.
  using CandidateSupplier =
      std::function<void(std::size_t want, std::vector<graph::NodeId>& out)>;
  const NodeAdjacency& Get(graph::NodeId v,
                           const CandidateSupplier& candidates);

  // Get without prefetching beyond v itself.
  const NodeAdjacency& Get(graph::NodeId v);

  const IoStats& Stats() const noexcept { return stats_; }

 private:
  void InsertEvicting(graph::NodeId v, NodeAdjacency adj);

  const ShardedGraphStore* store_;
  std::size_t capacity_;
  std::size_t batch_size_;
  IoStats stats_;

  // LRU: most-recent at front.
  std::list<std::pair<graph::NodeId, NodeAdjacency>> lru_;
  std::unordered_map<graph::NodeId, decltype(lru_)::iterator> cache_;
  std::vector<graph::NodeId> scratch_;
};

}  // namespace rejecto::engine
