#include "graph/subgraph.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <stdexcept>
#include <utility>

#include "graph/compressed_view.h"
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

// The filter both overloads share: the keep -> new-id mapping, the
// per-row count/fill kernels and the CSR assembly. An overload supplies
// only its traversal: for_each_kept_row(parent_id, visit) must call
// visit(csr, u, row) exactly once per kept node u and CSR (0 = friendships,
// 1 = rejectees, 2 = rejectors, CompressedGraphView's order), from any
// number of threads. Whichever source it reads, the residual CSR comes out
// bit-identical.
template <typename ForEachKeptRow>
CompactedGraph Compact(NodeId n, const std::vector<char>& keep,
                       ForEachKeptRow&& for_each_kept_row) {
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

  util::AlignedVector<std::size_t> offs[3] = {
      util::AlignedVector<std::size_t>(m + 1, 0),
      util::AlignedVector<std::size_t>(m + 1, 0),
      util::AlignedVector<std::size_t>(m + 1, 0)};
  for_each_kept_row(out.parent_id,
                    [&](int csr, NodeId u, std::span<const NodeId> row) {
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
  for_each_kept_row(out.parent_id,
                    [&](int csr, NodeId u, std::span<const NodeId> row) {
                      fill_row(row, adjs[csr].data() + offs[csr][new_id[u]]);
                    });

  const NodeId num_new = static_cast<NodeId>(m);
  out.graph = AugmentedGraph(
      SocialGraph::FromCsr(num_new, std::move(offs[0]), std::move(adjs[0])),
      RejectionGraph::FromCsr(num_new, std::move(offs[1]), std::move(adjs[1]),
                              std::move(offs[2]), std::move(adjs[2])));
  return out;
}

}  // namespace

CompactedGraph InducedSubgraph(const AugmentedGraph& g,
                               const std::vector<char>& keep,
                               util::ThreadPool* pool) {
  const SocialGraph& fr = g.Friendships();
  const RejectionGraph& rej = g.Rejections();
  // Node-block sweeps over the kept nodes, a node's three rows together.
  const auto for_each_kept_row = [&](const std::vector<NodeId>& parent_id,
                                     auto&& visit) {
    ForEachNode(pool, parent_id.size(), [&](std::size_t nid) {
      const NodeId u = parent_id[nid];
      visit(0, u, fr.Neighbors(u));
      visit(1, u, rej.Rejectees(u));
      visit(2, u, rej.Rejectors(u));
    });
  };
  return Compact(g.NumNodes(), keep, for_each_kept_row);
}

CompactedGraph InducedSubgraph(const CompressedGraphView& view,
                               const std::vector<char>& keep,
                               util::ThreadPool* pool) {
  // Block-granular sweeps over the three CSRs (item = csr * num_blocks +
  // block), each block decoded into per-thread scratch. A block's kept rows
  // map to a contiguous nid range (new_id is monotone), so blocks write
  // disjoint slices of the offset/adjacency arrays and the parallel sweeps
  // are race-free.
  const NodeId nb = view.NumBlocks();
  const std::size_t work = static_cast<std::size_t>(nb) * 3;
  struct Scratch {
    util::AlignedVector<std::uint32_t> ro;
    util::AlignedVector<NodeId> adj;
  };
  const auto for_each_kept_row = [&](const std::vector<NodeId>&,
                                     auto&& visit) {
    const auto sweep_block = [&](Scratch& s, std::size_t item) {
      const int csr = static_cast<int>(item / nb);
      const NodeId b = static_cast<NodeId>(item % nb);
      const NodeId first_row = b * view.BlockRows();
      const std::uint32_t rows = view.BlockRowCount(csr, b);
      view.DecodeBlockInto(csr, b, s.ro, s.adj);
      for (std::uint32_t r = 0; r < rows; ++r) {
        const NodeId u = first_row + r;
        if (!keep[u]) continue;
        visit(csr, u, {s.adj.data() + s.ro[r], s.adj.data() + s.ro[r + 1]});
      }
    };
    if (pool != nullptr && work > 1) {
      std::vector<Scratch> scratch(std::min(work, pool->size()));
      pool->ParallelFor(work, [&](std::size_t block, std::size_t item) {
        sweep_block(scratch[block], item);
      });
    } else {
      Scratch scratch;
      for (std::size_t item = 0; item < work; ++item) {
        sweep_block(scratch, item);
      }
    }
  };
  return Compact(view.NumNodes(), keep, for_each_kept_row);
}

}  // namespace rejecto::graph
