// Extended Kernighan–Lin for rejection-augmented social graphs
// (paper §IV-D, Algorithm 1).
//
// For a fixed k > 0, minimizes W(U) = |F(Ū,U)| − k·|R⃗(Ū,U)| by FM-style
// single-node switching (no balance constraint — region sizes are unknown a
// priori): each pass greedily pops the max-gain node from a bucket list,
// tentatively switches it (even at negative gain, to climb out of local
// minima), then applies the switch-sequence prefix with the largest positive
// cumulative gain. Passes repeat until no improving prefix exists. Locked
// nodes (seeds, §IV-F) never enter the bucket list. A pass stops popping
// once an exact upper bound on what the unpopped nodes can still gain
// (detect/pass_bound.h) shows no later prefix can beat the best one; the
// prefix kept, and so every result, is the one popping every node would
// keep. The prefix is applied by rewinding the partition to a checkpoint
// taken at the pass start and replaying it (Partition::Mark/Rewind), not
// by undoing the rest of the pass switch by switch.
//
// The inner loop is the classic FM delta-gain kernel: a switch makes ONE
// traversal of the node's friends/rejectors/rejectees
// (Partition::SwitchFused), fusing the aggregate updates with bucket
// maintenance and the pass bound's upkeep, and a node only relinks when its
// quantized bucket actually changes (BucketList::Adjust). All working state
// lives in a KlScratch that callers may reuse across invocations; the
// steady-state pass loop then performs no heap allocation at all (the only
// allocation per call is the result mask copy).
//
// Like Partition, BasicExtendedKl and BasicKlScratch are templates on the
// row source (definitions in detect/extended_kl_impl.h); ExtendedKl and
// KlScratch are the graph::GraphSource ones.
#pragma once

#include <cstdint>
#include <vector>

#include "detect/bucket_list.h"
#include "detect/partition.h"
#include "detect/pass_bound.h"
#include "graph/augmented_graph.h"
#include "graph/graph_source.h"
#include "util/buffer.h"

namespace rejecto::detect {

struct KlConfig {
  double k = 1.0;                 // rejection weight (> 0)
  int max_passes = 16;            // safety bound; convergence is typical in <6
  double gain_resolution = 64.0;  // bucket quantization (buckets per unit)
};

struct KlStats {
  int passes = 0;
  std::uint64_t switches_applied = 0;  // sum of applied prefix lengths
  std::uint64_t switches_tried = 0;    // nodes popped and switched, all passes
  double final_objective = 0.0;        // W(U) at termination
};

struct KlResult {
  std::vector<char> in_u;
  graph::CutQuantities cut;
  KlStats stats;
};

// Reusable workspace for ExtendedKl. Default-constructed empty; every
// ExtendedKl call Reset()s it for the given graph, growing capacity only
// when the graph is larger than any seen before. Not thread-safe — use one
// scratch per thread (MaarSolver keeps one per sweep worker, side by side in
// one vector). Cache-line aligned so no two threads' scratches share a
// line: every switch writes `touched`, `seq` and the partition totals,
// which would otherwise falsely share with the next scratch's header.
template <class Source>
struct alignas(64) BasicKlScratch {
  BasicPartition<Source> partition;
  typename BasicPartition<Source>::Checkpoint checkpoint;  // at pass start
  BucketList bucket;
  util::AlignedVector<graph::NodeId> seq;   // this pass's switch sequence
  util::AlignedVector<graph::NodeId> touched;  // neighbors hit per switch
  PassBound bound;  // what the rest of the pass can still gain
};
using KlScratch = BasicKlScratch<graph::GraphSource>;

// `locked` may be empty (nothing pinned); otherwise size must equal
// src.NumNodes(). init_in_u must already respect the lock placement. When
// `scratch` is null a call-local workspace is used; results are identical
// either way, and identical whatever graph the scratch last served.
template <class Source>
KlResult BasicExtendedKl(const Source& src, const std::vector<char>& init_in_u,
                         const std::vector<char>& locked,
                         const KlConfig& config,
                         BasicKlScratch<Source>* scratch = nullptr);

// The in-memory kernel. AugmentedGraph call sites convert to `src`
// implicitly.
KlResult ExtendedKl(const graph::GraphSource& src,
                    const std::vector<char>& init_in_u,
                    const std::vector<char>& locked, const KlConfig& config,
                    KlScratch* scratch = nullptr);

// Grows `scratch` once to what ExtendedKl needs on `src` at weight `k` (the
// bucket array scales with max_F + k·max_R, the pass checkpoint with the
// node count), so runs at k or below never regrow it. A scratch grown run
// by run up a k sweep allocates a larger array at every k, each alive
// beside the one it replaces while it grows.
void ReserveKlScratch(const graph::GraphSource& src, double k,
                      const KlConfig& config, KlScratch& scratch);

}  // namespace rejecto::detect
