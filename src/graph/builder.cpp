#include "graph/builder.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/buffer.h"

namespace rejecto::graph {
namespace {

// CSR arrays, built directly on the aligned memory tier the graphs keep
// them on.
struct Csr {
  util::AlignedVector<std::size_t> offsets;
  util::AlignedVector<NodeId> adj;
};

// Counting scatter: `for_each(emit)` must call emit(row, id) once per entry,
// the same entries in the same order on both of its two calls (one to
// count, one to scatter). Row u's count lands in offsets[u + 2], so after
// the prefix sum offsets[u + 1] is row u's start; used as row u's cursor
// during the scatter it ends at row u's end, which leaves the CSR layout
// with no shift pass. Rows hold ids in emission order.
template <typename ForEach>
Csr Scatter(NodeId num_nodes, ForEach&& for_each) {
  const std::size_t n = num_nodes;
  Csr csr;
  csr.offsets.assign(n + 1, 0);
  std::size_t* const offsets = csr.offsets.data();
  std::size_t total = 0;
  for_each([&](NodeId row, NodeId) {
    ++total;
    if (std::size_t{row} + 2 <= n) ++offsets[std::size_t{row} + 2];
  });
  for (std::size_t i = 2; i <= n; ++i) offsets[i] += offsets[i - 1];
  csr.adj.resize(total);
  NodeId* const adj = csr.adj.data();
  for_each([&](NodeId row, NodeId id) {
    adj[offsets[std::size_t{row} + 1]++] = id;
  });
  return csr;
}

// Sorts and dedups each row in place and compacts the rows to the left, so
// row u holds its distinct ids in ascending order.
void SortAndDedupRows(Csr& csr) {
  std::size_t* const offsets = csr.offsets.data();
  NodeId* const adj = csr.adj.data();
  std::size_t start = 0;  // row u's start before compaction
  std::size_t kept = 0;   // entries kept in rows < u
  for (std::size_t u = 0; u + 1 < csr.offsets.size(); ++u) {
    const std::size_t end = offsets[u + 1];
    std::sort(adj + start, adj + end);
    const std::size_t len = std::unique(adj + start, adj + end) - (adj + start);
    if (kept != start) std::copy(adj + start, adj + start + len, adj + kept);
    kept += len;
    offsets[u + 1] = kept;
    start = end;
  }
  if (kept == csr.adj.size()) return;
  // Duplicates were dropped: move the rows to an exact-size array so the
  // graph does not keep their slots for its lifetime (an edge list listing
  // each friendship in both orientations would otherwise double it).
  util::AlignedVector<NodeId> exact;
  exact.Append(adj, kept);
  csr.adj = std::move(exact);
}

}  // namespace

NodeId GraphBuilder::AddNode() { return AddNodes(1); }

NodeId GraphBuilder::AddNodes(NodeId count) {
  if (count > kInvalidNode - num_nodes_) {
    throw std::invalid_argument(
        "GraphBuilder: AddNodes past the 32-bit node id range");
  }
  const NodeId first = num_nodes_;
  num_nodes_ += count;
  return first;
}

void GraphBuilder::AddFriendship(NodeId u, NodeId v) {
  if (u == v) {
    throw std::invalid_argument("GraphBuilder: self-friendship is not allowed");
  }
  Touch(u, v);
  edges_.push_back({std::min(u, v), std::max(u, v)});
}

void GraphBuilder::AddRejection(NodeId from, NodeId to) {
  if (from == to) {
    throw std::invalid_argument("GraphBuilder: self-rejection arc <u,u>");
  }
  Touch(from, to);
  arcs_.push_back({from, to});
}

void GraphBuilder::Touch(NodeId u, NodeId v) {
  if (u == kInvalidNode || v == kInvalidNode) {
    throw std::invalid_argument(
        "GraphBuilder: node id kInvalidNode is outside the node range");
  }
  num_nodes_ = std::max({num_nodes_, u + 1, v + 1});
}

SocialGraph GraphBuilder::BuildSocial() const {
  Csr csr = Scatter(num_nodes_, [this](auto&& emit) {
    for (const Edge& e : edges_) {
      emit(e.u, e.v);
      emit(e.v, e.u);
    }
  });
  SortAndDedupRows(csr);
  return SocialGraph(num_nodes_, std::move(csr.offsets), std::move(csr.adj));
}

RejectionGraph GraphBuilder::BuildRejection() const {
  Csr out = Scatter(num_nodes_, [this](auto&& emit) {
    for (const Arc& a : arcs_) emit(a.from, a.to);
  });
  SortAndDedupRows(out);

  // The in-adjacency is the transpose of the deduplicated out-adjacency:
  // scattering u in ascending order leaves every in-row sorted and unique.
  Csr in = Scatter(num_nodes_, [&out, this](auto&& emit) {
    for (NodeId u = 0; u < num_nodes_; ++u) {
      for (std::size_t i = out.offsets[u]; i < out.offsets[u + 1]; ++i) {
        emit(out.adj[i], u);
      }
    }
  });

  return RejectionGraph(num_nodes_, std::move(out.offsets), std::move(out.adj),
                        std::move(in.offsets), std::move(in.adj));
}

AugmentedGraph GraphBuilder::BuildAugmented() const {
  return AugmentedGraph(BuildSocial(), BuildRejection());
}

}  // namespace rejecto::graph
