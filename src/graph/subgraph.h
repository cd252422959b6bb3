// Node-induced subgraph compaction.
//
// The iterative detector (§IV-E) prunes each detected spammer group — with
// all its friendships and rejections — and re-solves MAAR on the residual
// graph. Compaction produces a fresh dense-id AugmentedGraph plus the
// mapping back to the parent graph's ids.
//
// Implemented as a direct CSR→CSR filter: per-node counts of kept
// neighbors, a prefix sum into fresh offset arrays, and a filtered copy of
// each row with ids remapped. Because the new-id map is monotone in the old
// id, filtered rows stay sorted, so no GraphBuilder pass and no global edge
// sort is needed. The count and fill sweeps are parallelized over node
// blocks when a pool is given; every thread writes disjoint ranges, so the
// output is identical at any thread count.
#pragma once

#include <vector>

#include "graph/augmented_graph.h"
#include "graph/types.h"

namespace rejecto::util {
class ThreadPool;
}  // namespace rejecto::util

namespace rejecto::graph {

struct CompactedGraph {
  AugmentedGraph graph;
  // new dense id -> id in the parent graph
  std::vector<NodeId> parent_id;
};

// Keeps exactly the nodes with keep[u] != 0 and the edges/arcs with both
// endpoints kept. Precondition: keep.size() == g.NumNodes().
CompactedGraph InducedSubgraph(const AugmentedGraph& g,
                               const std::vector<char>& keep,
                               util::ThreadPool* pool = nullptr);

}  // namespace rejecto::graph
