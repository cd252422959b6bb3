// Mutable accumulator producing immutable CSR graphs.
//
// GraphBuilder collects undirected friendship edges and directed rejection
// arcs, then freezes them into SocialGraph / RejectionGraph / AugmentedGraph.
// Self-loops are refused when added; duplicates are dropped at build time (a
// duplicate friend edge cannot exist in a symmetric OSN; repeated rejections
// between the same ordered pair collapse to one arc, §III-A).
//
// Contract of every built CSR: offsets has NumNodes() + 1 entries from 0,
// and each row holds its distinct neighbor ids in ascending order, whatever
// order or orientation the edges and arcs were added in. The rejection
// in-adjacency is the exact transpose of the deduplicated out-adjacency.
//
// Cost: a counting build. Degrees are counted straight from the pending
// edges/arcs and prefix-summed into offsets, ids are scattered into their
// rows, and each row is sorted, deduplicated and compacted to the left in
// place: O(n + m + sum of d log d) time. The in-adjacency is one more
// scatter of the out-rows in ascending source order, so its rows come out
// sorted and unique with no sort. No temporaries beyond the output arrays
// (a friendship costs two 4 B slots, an arc one per direction, 24 B per
// node of offsets), except that rows which shed duplicates are moved once
// to an exact-size array. The sort build this replaced held a 16 B pair per
// friendship and 8 B per arc direction besides, and sorted them in
// O(m log m). Measured on 4 vCPUs: the 126,647-request log of the
// bench/e2e batch_ram attack builds in 5.6 ms instead of 34.2 ms (medians
// of 10 runs), a 110,000-user one in 42 ms instead of 240 ms
// (BM_GraphBuilderBuildAugmented).
#pragma once

#include <vector>

#include "graph/augmented_graph.h"
#include "graph/rejection_graph.h"
#include "graph/social_graph.h"
#include "graph/types.h"

namespace rejecto::graph {

class GraphBuilder {
 public:
  // num_nodes may grow implicitly: adding an edge touching node u extends
  // the node range to u+1. Ids run up to kInvalidNode - 1, so the range
  // holds at most kInvalidNode nodes: an id equal to kInvalidNode, or
  // AddNode/AddNodes past the range, throws std::invalid_argument.
  explicit GraphBuilder(NodeId num_nodes = 0) : num_nodes_(num_nodes) {}

  NodeId NumNodes() const noexcept { return num_nodes_; }

  // Reserves and returns the id of a fresh node.
  NodeId AddNode();

  // Adds `count` fresh nodes, returning the first new id.
  NodeId AddNodes(NodeId count);

  // Undirected friendship. Self-loops are rejected.
  void AddFriendship(NodeId u, NodeId v);

  // Directed rejection: `from` rejected a request sent by `to`.
  void AddRejection(NodeId from, NodeId to);

  std::size_t NumPendingEdges() const noexcept { return edges_.size(); }
  std::size_t NumPendingArcs() const noexcept { return arcs_.size(); }

  // Freeze. Builders remain reusable (building does not consume state), so a
  // scenario can snapshot the friendship graph before and after an attack.
  SocialGraph BuildSocial() const;
  RejectionGraph BuildRejection() const;
  AugmentedGraph BuildAugmented() const;

 private:
  // Checks both ids, then grows the node range to cover them, so a refused
  // edge or arc leaves the builder unchanged.
  void Touch(NodeId u, NodeId v);

  NodeId num_nodes_ = 0;
  std::vector<Edge> edges_;
  std::vector<Arc> arcs_;
};

}  // namespace rejecto::graph
