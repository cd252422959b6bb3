// Row-span view of an AugmentedGraph for the detection kernels.
//
// Partition and ExtendedKl are templates on their row source (see
// detect/partition.h for the contract); GraphSource is the in-memory one, a
// value type holding one pointer, so the hot loops read the CSRs with no
// indirection beyond the graph's own, and the AugmentedGraph call sites
// keep working through the implicit conversion. Spans live as long as the
// graph.
#pragma once

#include <cstdint>
#include <span>

#include "graph/augmented_graph.h"
#include "graph/types.h"

namespace rejecto::graph {

class GraphSource {
 public:
  // Empty source; usable only after assignment (Partition's default state).
  GraphSource() = default;

  // Implicit by design: every Partition/ExtendedKl call site holding an
  // AugmentedGraph keeps compiling unchanged. The graph must outlive the
  // source.
  GraphSource(const AugmentedGraph& g) : g_(&g) {}  // NOLINT

  NodeId NumNodes() const { return g_->NumNodes(); }

  std::uint64_t MaxFriendshipDegree() const {
    return g_->MaxFriendshipDegree();
  }
  std::uint64_t MaxRejectionDegree() const { return g_->MaxRejectionDegree(); }

  std::uint32_t RejInDegree(NodeId u) const {
    return g_->Rejections().InDegree(u);
  }
  std::uint32_t RejOutDegree(NodeId u) const {
    return g_->Rejections().OutDegree(u);
  }

  std::span<const NodeId> Friends(NodeId u) const {
    return g_->Friendships().Neighbors(u);
  }
  std::span<const NodeId> Rejectees(NodeId u) const {
    return g_->Rejections().Rejectees(u);
  }
  std::span<const NodeId> Rejectors(NodeId u) const {
    return g_->Rejections().Rejectors(u);
  }

  // Calls fn(v, Friends(v), Rejectors(v), Rejectees(v)) for every node, in
  // id order on the calling thread.
  template <class Fn>
  void ForEachRow(Fn&& fn) const {
    const NodeId n = NumNodes();
    for (NodeId v = 0; v < n; ++v) {
      fn(v, Friends(v), Rejectors(v), Rejectees(v));
    }
  }

 private:
  const AugmentedGraph* g_ = nullptr;
};

}  // namespace rejecto::graph
