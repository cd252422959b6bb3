// Locality-preserving vertex reordering for the CSR graphs.
//
// Hot passes in the detector visit nodes in graph-traversal order — a KL
// sweep chases the gain frontier, vote propagation expands ring by ring,
// warm epochs revisit last round's cut boundary. Under an arbitrary
// interned vertex order every step of such a pass lands on a random CSR
// row and a random aggregate cache line. A Layout is a permutation of the
// node ids that assigns traversal-adjacent nodes adjacent ids; applying it
// once re-bases all three CSRs so a propagation-ordered pass walks the row
// storage and the per-node arrays nearly sequentially — streaming loads
// the prefetcher can cover instead of dependent random misses.
//
// Ordering heuristic (LayoutPolicy::kBfs): a plain FIFO BFS over the union
// of friendship and rejection adjacency, seeded component by component
// from the highest-combined-degree hub, children enqueued in row order —
// so consecutive ids are parent/child or frontier-adjacent, and each
// community occupies one contiguous id range. The order is a pure function
// of the graph (seeds tie-break on the smaller original id), so the same
// graph always yields the same permutation on every platform and thread
// count.
//
// Determinism contract: detection is invariant under relayout. For any
// valid permutation — not just ComputeLayout's — running
// DetectFriendSpammers on ApplyLayout(g) with MaarConfig::rank set to
// Layout::old_of_new returns the SAME detected set (original ids, same
// order), MAAR ratios, and per-round cuts as the identity run, at any
// thread count. Every order-sensitive tie-break in the pipeline (bucket
// insertion order, deferred relink order, trim order, output order) is
// keyed on the original id through that rank array; see detect/maar.h.
//
// ApplyLayout is a CSR→CSR remap in the subgraph-compaction mold (count →
// prefix → fill, block-parallel over disjoint output rows, no GraphBuilder
// pass and no global edge sort): each remapped row is sorted independently
// in cache. Deterministic at any thread count.
#pragma once

#include <string>
#include <vector>

#include "graph/augmented_graph.h"
#include "graph/types.h"

namespace rejecto::util {
class ThreadPool;
}  // namespace rejecto::util

namespace rejecto::graph {

enum class LayoutPolicy {
  kIdentity = 0,  // keep the interned order (no remap, no rank overhead)
  kBfs = 1,       // FIFO BFS from high-degree hubs, children in row order
};

// Parses "identity" / "bfs" (case-sensitive); throws on anything else.
LayoutPolicy ParseLayoutPolicy(const std::string& name);

const char* LayoutPolicyName(LayoutPolicy policy);

// A bijection between original ids and laid-out ids. Either both arrays are
// empty (identity) or both have size n and are mutual inverses.
struct Layout {
  std::vector<NodeId> new_of_old;  // original id -> laid-out id
  std::vector<NodeId> old_of_new;  // laid-out id -> original id

  bool IsIdentity() const noexcept { return new_of_old.empty(); }

  friend bool operator==(const Layout&, const Layout&) = default;
};

// The explicit identity permutation over n nodes (both arrays filled).
Layout IdentityLayout(NodeId n);

// Builds a Layout from an explicit old->new permutation; validates that it
// is a bijection on [0, n) and derives the inverse.
Layout LayoutFromPermutation(std::vector<NodeId> new_of_old);

// Computes the ordering for `policy` on g. kIdentity returns an empty
// (identity) Layout. Deterministic; the pool is unused today (the BFS is a
// one-time sequential pass) but part of the contract so callers can hand
// the detector's pool down uniformly.
Layout ComputeLayout(const AugmentedGraph& g, LayoutPolicy policy,
                     util::ThreadPool* pool = nullptr);

// Remaps a graph into the layout's id space. An identity Layout returns a
// copy. Precondition: layout arrays sized to the graph's node count (or
// empty).
SocialGraph ApplyLayout(const SocialGraph& g, const Layout& layout,
                        util::ThreadPool* pool = nullptr);
RejectionGraph ApplyLayout(const RejectionGraph& g, const Layout& layout,
                           util::ThreadPool* pool = nullptr);
AugmentedGraph ApplyLayout(const AugmentedGraph& g, const Layout& layout,
                           util::ThreadPool* pool = nullptr);

// Swaps the two directions: ApplyLayout(g, InvertLayout(L)) undoes
// ApplyLayout(g, L).
Layout InvertLayout(const Layout& layout);

// Mask/id translation at the API boundary. To* maps original-id-indexed
// data into layout space; From* maps back.
std::vector<char> MaskToLayout(const Layout& layout,
                               const std::vector<char>& mask);
std::vector<char> MaskFromLayout(const Layout& layout,
                                 const std::vector<char>& mask);
std::vector<NodeId> IdsToLayout(const Layout& layout,
                                const std::vector<NodeId>& ids);
std::vector<NodeId> IdsFromLayout(const Layout& layout,
                                  const std::vector<NodeId>& ids);

}  // namespace rejecto::graph
