#include "graph/layout.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <stdexcept>

#include "graph/csr_build.h"
#include "util/buffer.h"
#include "util/thread_pool.h"

namespace rejecto::graph {

using internal::ForEachNode;
using internal::PrefixSum;

namespace {

void CheckLayoutSize(const Layout& layout, NodeId n, const char* who) {
  if (layout.IsIdentity()) {
    if (!layout.old_of_new.empty()) {
      throw std::invalid_argument(std::string(who) +
                                  ": half-empty layout (new_of_old empty but "
                                  "old_of_new is not)");
    }
    return;
  }
  if (layout.new_of_old.size() != n || layout.old_of_new.size() != n) {
    throw std::invalid_argument(std::string(who) + ": layout size mismatch");
  }
}

// Remaps one CSR (offsets/adjacency) into layout order: row t of the output
// is the remapped row of old node old_of_new[t]. Each output row is a
// disjoint range filled and sorted independently, so the block-parallel
// fill is deterministic at any thread count; no global edge sort happens.
template <typename RowFn>
void PermuteCsr(NodeId n, const Layout& layout, const RowFn& row,
                util::ThreadPool* pool,
                util::AlignedVector<std::size_t>& offsets,
                util::AlignedVector<NodeId>& adjacency) {
  offsets.assign(n + 1, 0);
  ForEachNode(pool, n, [&](std::size_t t) {
    offsets[t + 1] = row(layout.old_of_new[t]).size();
  });
  PrefixSum(offsets);
  adjacency.resize(offsets[n]);
  ForEachNode(pool, n, [&](std::size_t t) {
    std::size_t w = offsets[t];
    for (NodeId v : row(layout.old_of_new[t])) {
      adjacency[w++] = layout.new_of_old[v];
    }
    std::sort(adjacency.begin() + static_cast<std::ptrdiff_t>(offsets[t]),
              adjacency.begin() + static_cast<std::ptrdiff_t>(w));
  });
}

}  // namespace

LayoutPolicy ParseLayoutPolicy(const std::string& name) {
  if (name == "identity") return LayoutPolicy::kIdentity;
  if (name == "bfs") return LayoutPolicy::kBfs;
  throw std::invalid_argument("ParseLayoutPolicy: unknown layout '" + name +
                              "' (expected 'identity' or 'bfs')");
}

const char* LayoutPolicyName(LayoutPolicy policy) {
  switch (policy) {
    case LayoutPolicy::kIdentity:
      return "identity";
    case LayoutPolicy::kBfs:
      return "bfs";
  }
  return "unknown";
}

Layout IdentityLayout(NodeId n) {
  Layout layout;
  layout.new_of_old.resize(n);
  layout.old_of_new.resize(n);
  std::iota(layout.new_of_old.begin(), layout.new_of_old.end(), NodeId{0});
  std::iota(layout.old_of_new.begin(), layout.old_of_new.end(), NodeId{0});
  return layout;
}

Layout LayoutFromPermutation(std::vector<NodeId> new_of_old) {
  const std::size_t n = new_of_old.size();
  Layout layout;
  layout.old_of_new.assign(n, kInvalidNode);
  for (std::size_t old = 0; old < n; ++old) {
    const NodeId t = new_of_old[old];
    if (t >= n || layout.old_of_new[t] != kInvalidNode) {
      throw std::invalid_argument(
          "LayoutFromPermutation: not a bijection on [0, n)");
    }
    layout.old_of_new[t] = static_cast<NodeId>(old);
  }
  layout.new_of_old = std::move(new_of_old);
  return layout;
}

Layout ComputeLayout(const AugmentedGraph& g, LayoutPolicy policy,
                     util::ThreadPool* /*pool*/) {
  if (policy == LayoutPolicy::kIdentity) return Layout{};

  const NodeId n = g.NumNodes();
  const SocialGraph& fr = g.Friendships();
  const RejectionGraph& rej = g.Rejections();

  // Combined degree over both relations: the BFS treats friendship edges
  // and rejection arcs (either direction) alike — the switch kernel
  // traverses all three lists, so all three define "close".
  std::vector<std::uint32_t> degree(n);
  for (NodeId v = 0; v < n; ++v) {
    degree[v] = fr.Degree(v) + rej.InDegree(v) + rej.OutDegree(v);
  }

  // Component seeds: highest combined degree first, ties on the smaller id.
  std::vector<NodeId> seeds(n);
  std::iota(seeds.begin(), seeds.end(), NodeId{0});
  std::stable_sort(seeds.begin(), seeds.end(), [&](NodeId a, NodeId b) {
    return degree[a] > degree[b];
  });

  Layout layout;
  layout.new_of_old.assign(n, kInvalidNode);
  layout.old_of_new.reserve(n);
  std::vector<char> visited(n, 0);
  std::vector<NodeId> queue;
  queue.reserve(n);

  auto assign = [&](NodeId old) {
    layout.new_of_old[old] = static_cast<NodeId>(layout.old_of_new.size());
    layout.old_of_new.push_back(old);
  };

  // Plain FIFO expansion, children in row order. (A frontier re-sorted by
  // descending degree was tried first and benched SLOWER than this: the
  // sort interleaves children of different parents, which breaks exactly
  // the parent-adjacency that makes traversal-ordered passes stream.)
  for (NodeId seed : seeds) {
    if (visited[seed]) continue;
    visited[seed] = 1;
    queue.clear();
    queue.push_back(seed);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const NodeId u = queue[head];
      assign(u);
      auto collect = [&](std::span<const NodeId> row) {
        for (NodeId w : row) {
          if (!visited[w]) {
            visited[w] = 1;
            queue.push_back(w);
          }
        }
      };
      collect(fr.Neighbors(u));
      collect(rej.Rejectees(u));
      collect(rej.Rejectors(u));
    }
  }
  return layout;
}

SocialGraph ApplyLayout(const SocialGraph& g, const Layout& layout,
                        util::ThreadPool* pool) {
  CheckLayoutSize(layout, g.NumNodes(), "ApplyLayout");
  if (layout.IsIdentity()) return g;
  const NodeId n = g.NumNodes();
  util::AlignedVector<std::size_t> offsets;
  util::AlignedVector<NodeId> adjacency;
  PermuteCsr(
      n, layout, [&](NodeId old) { return g.Neighbors(old); }, pool, offsets,
      adjacency);
  return SocialGraph::FromCsr(n, std::move(offsets), std::move(adjacency));
}

RejectionGraph ApplyLayout(const RejectionGraph& g, const Layout& layout,
                           util::ThreadPool* pool) {
  CheckLayoutSize(layout, g.NumNodes(), "ApplyLayout");
  if (layout.IsIdentity()) return g;
  const NodeId n = g.NumNodes();
  util::AlignedVector<std::size_t> out_off, in_off;
  util::AlignedVector<NodeId> out_adj, in_adj;
  // Both directions are remapped independently; the in-adjacency stays the
  // exact mirror of the out-adjacency because a permutation drops nothing.
  PermuteCsr(
      n, layout, [&](NodeId old) { return g.Rejectees(old); }, pool, out_off,
      out_adj);
  PermuteCsr(
      n, layout, [&](NodeId old) { return g.Rejectors(old); }, pool, in_off,
      in_adj);
  return RejectionGraph::FromCsr(n, std::move(out_off), std::move(out_adj),
                                 std::move(in_off), std::move(in_adj));
}

AugmentedGraph ApplyLayout(const AugmentedGraph& g, const Layout& layout,
                           util::ThreadPool* pool) {
  return AugmentedGraph(ApplyLayout(g.Friendships(), layout, pool),
                        ApplyLayout(g.Rejections(), layout, pool));
}

Layout InvertLayout(const Layout& layout) {
  Layout inverse;
  inverse.new_of_old = layout.old_of_new;
  inverse.old_of_new = layout.new_of_old;
  return inverse;
}

std::vector<char> MaskToLayout(const Layout& layout,
                               const std::vector<char>& mask) {
  CheckLayoutSize(layout, static_cast<NodeId>(mask.size()), "MaskToLayout");
  if (layout.IsIdentity()) return mask;
  std::vector<char> out(mask.size());
  for (std::size_t old = 0; old < mask.size(); ++old) {
    out[layout.new_of_old[old]] = mask[old];
  }
  return out;
}

std::vector<char> MaskFromLayout(const Layout& layout,
                                 const std::vector<char>& mask) {
  CheckLayoutSize(layout, static_cast<NodeId>(mask.size()), "MaskFromLayout");
  if (layout.IsIdentity()) return mask;
  std::vector<char> out(mask.size());
  for (std::size_t t = 0; t < mask.size(); ++t) {
    out[layout.old_of_new[t]] = mask[t];
  }
  return out;
}

std::vector<NodeId> IdsToLayout(const Layout& layout,
                                const std::vector<NodeId>& ids) {
  if (layout.IsIdentity()) return ids;
  std::vector<NodeId> out;
  out.reserve(ids.size());
  for (NodeId v : ids) {
    if (v >= layout.new_of_old.size()) {
      throw std::invalid_argument("IdsToLayout: id out of range");
    }
    out.push_back(layout.new_of_old[v]);
  }
  return out;
}

std::vector<NodeId> IdsFromLayout(const Layout& layout,
                                  const std::vector<NodeId>& ids) {
  if (layout.IsIdentity()) return ids;
  std::vector<NodeId> out;
  out.reserve(ids.size());
  for (NodeId v : ids) {
    if (v >= layout.old_of_new.size()) {
      throw std::invalid_argument("IdsFromLayout: id out of range");
    }
    out.push_back(layout.old_of_new[v]);
  }
  return out;
}

}  // namespace rejecto::graph
