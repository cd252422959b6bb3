#include "graph/subgraph.h"

#include <cstddef>
#include <cstring>
#include <functional>
#include <span>
#include <stdexcept>
#include <utility>

#include "util/buffer.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace rejecto::graph {

namespace {

// Runs fn(i) for i in [0, n), on the pool when one is given.
void ForEachNode(util::ThreadPool* pool, std::size_t n,
                 const std::function<void(std::size_t)>& fn) {
  if (pool != nullptr && pool->size() > 1) {
    pool->ParallelFor(n, fn);
  } else {
    for (std::size_t i = 0; i < n; ++i) fn(i);
  }
}

// offsets[i+1] holds the count for new node i on entry; exclusive prefix
// sum in place turns it into a CSR offset array.
template <typename Offsets>
void PrefixSum(Offsets& offsets) {
  for (std::size_t i = 1; i < offsets.size(); ++i) {
    offsets[i] += offsets[i - 1];
  }
}

}  // namespace

CompactedGraph InducedSubgraph(const AugmentedGraph& g,
                               const std::vector<char>& keep,
                               util::ThreadPool* pool) {
  const NodeId n = g.NumNodes();
  if (keep.size() != n) {
    throw std::invalid_argument("InducedSubgraph: mask size mismatch");
  }
  std::vector<NodeId> new_id(n, kInvalidNode);
  CompactedGraph out;
  for (NodeId u = 0; u < n; ++u) {
    if (keep[u]) {
      new_id[u] = static_cast<NodeId>(out.parent_id.size());
      out.parent_id.push_back(u);
    }
  }
  const std::size_t m = out.parent_id.size();

  // The AVX2 path gathers mask bytes and left-packs kept lanes (masked
  // stores only — nothing is written outside a row's disjoint output range,
  // so the parallel fills stay race-free). Both paths preserve row order,
  // and new_id is monotone, so the result is bit-identical to the scalar
  // filter at any thread count.
  const bool use_avx2 =
      util::simd::ActiveMode() == util::simd::SimdMode::kAvx2;
  util::AlignedVector<unsigned char> keep_padded;
  if (use_avx2) {
    keep_padded.resize(keep.size());
    std::memcpy(keep_padded.data(), keep.data(), keep.size());
  }
  const auto count_kept = [&](std::span<const NodeId> row) {
    if (use_avx2) {
      return row.size() -
             util::simd::CountZeroAt(keep_padded.data(), row.data(),
                                     row.size());
    }
    std::size_t c = 0;
    for (NodeId v : row) c += keep[v] != 0;
    return c;
  };
  const auto fill_row = [&](std::span<const NodeId> row, NodeId* dst) {
    if (use_avx2) {
      util::simd::FilterMapRow(keep_padded.data(), new_id.data(), row.data(),
                               row.size(), dst);
      return;
    }
    std::size_t w = 0;
    for (NodeId v : row) {
      if (keep[v]) dst[w++] = new_id[v];
    }
  };

  // Node-block sweeps over the kept nodes, a node's three rows together
  // (0 = friendships, 1 = rejectees, 2 = rejectors).
  const SocialGraph& fr = g.Friendships();
  const RejectionGraph& rej = g.Rejections();
  const auto for_each_kept_row = [&](auto&& visit) {
    ForEachNode(pool, m, [&](std::size_t nid) {
      const NodeId u = out.parent_id[nid];
      visit(0, u, fr.Neighbors(u));
      visit(1, u, rej.Rejectees(u));
      visit(2, u, rej.Rejectors(u));
    });
  };

  util::AlignedVector<std::size_t> offs[3] = {
      util::AlignedVector<std::size_t>(m + 1, 0),
      util::AlignedVector<std::size_t>(m + 1, 0),
      util::AlignedVector<std::size_t>(m + 1, 0)};
  for_each_kept_row([&](int csr, NodeId u, std::span<const NodeId> row) {
    offs[csr][new_id[u] + 1] = count_kept(row);
  });
  for (auto& off : offs) PrefixSum(off);

  util::AlignedVector<NodeId> adjs[3] = {
      util::AlignedVector<NodeId>(offs[0][m]),
      util::AlignedVector<NodeId>(offs[1][m]),
      util::AlignedVector<NodeId>(offs[2][m])};
  // new_id is monotone in the old id and the source rows are sorted, so
  // each filtered row lands already sorted; the in-adjacency stays the
  // exact mirror of the out-adjacency because both sides drop the same
  // arcs. Rows are disjoint ranges, so parallel fills don't race.
  for_each_kept_row([&](int csr, NodeId u, std::span<const NodeId> row) {
    fill_row(row, adjs[csr].data() + offs[csr][new_id[u]]);
  });

  const NodeId num_new = static_cast<NodeId>(m);
  out.graph = AugmentedGraph(
      SocialGraph::FromCsr(num_new, std::move(offs[0]), std::move(adjs[0])),
      RejectionGraph::FromCsr(num_new, std::move(offs[1]), std::move(adjs[1]),
                              std::move(offs[2]), std::move(adjs[2])));
  return out;
}

}  // namespace rejecto::graph
