// Incrementally-maintained bipartition state for the extended KL heuristic.
//
// Rejecto minimizes, for a fixed weight k > 0, the linear objective
//     W(U) = |F(Ū,U)| − k · |R⃗(Ū,U)|                     (paper §IV-D)
// where U is the suspicious region and R⃗(Ū,U) are rejections cast from
// outside U onto U. Partition tracks, per node v (packed in one 16-byte
// NodeAggregates record so a gain read touches a single cache line, the
// same line a neighbor update just wrote):
//     deg           — v's friendship degree (immutable per graph)
//     cross_friends — v's friends on the other side
//     in_from_w     — rejections v received from nodes currently in Ū
//     out_to_u      — rejections v cast onto nodes currently in U
// which make both the switch gain of any node and the global cut totals
// O(1) to read, and a node switch O(deg + rejdeg) to apply. The exact
// O(E+R) recomputation in AugmentedGraph::ComputeCut is the test oracle.
//
// Every aggregate is an integer function of the mask, so a pass can be
// taken back wholesale: Mark saves the three mutable counters and the
// totals into a Checkpoint, and Rewind restores them after flipping the
// switched nodes' mask bytes back, with no adjacency read at all.
//
// The class is a template on its row source (definitions in
// detect/partition_impl.h): `Partition` is the graph::GraphSource one, and
// engine/dist_kl.cpp instantiates it over the sharded store. A Source has
// NumNodes(), MaxFriendshipDegree(), MaxRejectionDegree(), the degree
// reads RejInDegree(v) and RejOutDegree(v), which fetch no row, the rows
// Friends/Rejectors/Rejectees(v), which a switch reads back to back for one
// v, and ForEachRow(fn), which calls fn(v, friends, rejectors, rejectees)
// once per node, possibly from several threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/augmented_graph.h"
#include "graph/graph_source.h"
#include "graph/types.h"
#include "util/buffer.h"

namespace rejecto::detect {

class BucketList;
class PassBound;

template <class Source>
class BasicPartition {
 public:
  // An empty shell; call Reset before use. Lets a KL scratch workspace keep
  // one Partition alive across passes and graphs.
  BasicPartition() = default;

  // in_u[v] != 0 places v in the suspicious region U.
  // The source's graph must outlive the partition; AugmentedGraph call
  // sites convert implicitly.
  BasicPartition(const Source& src, const std::vector<char>& in_u);

  // Re-seeds the partition for (a possibly different) source and mask,
  // reusing the aggregate arrays' capacity. Equivalent to constructing
  // BasicPartition(src, in_u) but without fresh allocations once the
  // workspace has seen a graph at least as large.
  void Reset(const Source& src, const std::vector<char>& in_u);

  graph::NodeId NumNodes() const noexcept {
    return static_cast<graph::NodeId>(in_u_.size());
  }
  bool InU(graph::NodeId v) const { return in_u_[v] != 0; }
  graph::NodeId SizeU() const noexcept { return size_u_; }

  // Moves v to the other side, updating all aggregates.
  void Switch(graph::NodeId v);

  // Fused FM switch: one traversal of v's friends, rejectors and rejectees
  // applies the aggregate deltas AND maintains the gain buckets. Neighbor
  // ids are recorded into `touched` (cleared here; duplicates kept) during
  // the delta sweep; bucket moves are then applied in a deferred sweep via
  // BucketList::Adjust with the *final* aggregates, so a node reachable
  // through several of v's adjacency lists relinks exactly once, at its
  // first occurrence — the same intra-bucket LIFO order the unfused
  // Switch-then-refresh loop produces. Gains are recomputed from the
  // integer aggregates with the same expression as DeltaObjective, never
  // accumulated in floating point, keeping cuts bit-identical. With a
  // `bound`, the same sweep keeps the pass gain bound current: v must have
  // left it (PassBound::Remove), and each neighbour still in the bucket list
  // loses v from its f or r and has its term recomputed.
  void SwitchFused(graph::NodeId v, double k, BucketList& bl,
                   util::AlignedVector<graph::NodeId>& touched,
                   PassBound* bound = nullptr);

  // Change of W(U) if v switched now: ΔW(v) = ΔF(v) − k·ΔR(v) with
  //   ΔF(v) = deg(v) − 2·cross_friends(v)
  //   ΔR(v) = s(v)·(out_to_u(v) − in_from_w(v)),  s(v) = +1 if v∈U else −1.
  // The switch *gain* (reduction of W) is −DeltaObjective.
  double DeltaObjective(graph::NodeId v, double k) const {
    return static_cast<double>(DeltaFriends(v)) -
           k * static_cast<double>(DeltaRejections(v));
  }

  std::int64_t DeltaFriends(graph::NodeId v) const {
    return static_cast<std::int64_t>(agg_[v].deg & kDegMask) -
           2 * static_cast<std::int64_t>(agg_[v].cross_friends);
  }

  std::int64_t DeltaRejections(graph::NodeId v) const {
    const std::int64_t d = static_cast<std::int64_t>(agg_[v].out_to_u) -
                           static_cast<std::int64_t>(agg_[v].in_from_w);
    return (agg_[v].deg & kSideBit) ? d : -d;
  }

  // deg(v), without the side bit.
  std::uint32_t FriendDegree(graph::NodeId v) const {
    return agg_[v].deg & kDegMask;
  }

  // v's friends on its own side (f of detect/pass_bound.h's gain bound).
  std::uint32_t SameSideFriends(graph::NodeId v) const {
    return FriendDegree(v) - agg_[v].cross_friends;
  }

  // Rejection arcs, cast or received, between v and the other side (r of
  // the pass gain bound), from the aggregates and the source's rejection
  // degrees: no row read.
  std::uint32_t CrossArcs(graph::NodeId v) const {
    const NodeAggregates& a = agg_[v];
    return (a.deg & kSideBit)
               ? a.in_from_w + (src_.RejOutDegree(v) - a.out_to_u)
               : (src_.RejInDegree(v) - a.in_from_w) + a.out_to_u;
  }

  // The partition state at a pass start, minus what the graph and the mask
  // already determine: 12 bytes per node (the three mutable counters; deg is
  // immutable and the side bit is re-derived from the mask) plus the
  // totals. Owned by the caller so a KL workspace sizes it once.
  struct Checkpoint {
    struct Counters {
      std::uint32_t cross_friends;
      std::uint32_t out_to_u;
      std::uint32_t in_from_w;
    };
    util::AlignedVector<Counters> counters;
    std::uint64_t cross_friendships = 0;
    std::uint64_t rejections_into_u = 0;
    graph::NodeId size_u = 0;
  };

  // Saves the current state into `cp`, growing it only when the graph is
  // larger than any it has held.
  void Mark(Checkpoint& cp) const;

  // Returns to the state `cp` saved. `switched` lists the nodes switched
  // since the Mark, each once (an FM pass switches a node at most once);
  // their mask bytes flip back, then one sequential sweep restores every
  // counter and side bit. O(|V| + count), reading no adjacency.
  void Rewind(const Checkpoint& cp, const graph::NodeId* switched,
              std::size_t count);

  // Current cut totals (kept in lockstep with switches).
  graph::CutQuantities Quantities() const noexcept;

  // W(U) under weight k.
  double Objective(double k) const noexcept {
    return static_cast<double>(cross_friendships_) -
           k * static_cast<double>(rejections_into_u_);
  }

  // Extracts the membership mask.
  const std::vector<char>& Mask() const noexcept { return in_u_; }

 private:
  // Per-node aggregates, packed so the switch traversal's write and the
  // subsequent gain recompute share a cache line. 16 bytes, 4 per line.
  // The top bit of `deg` caches the node's side (set ⇔ v ∈ U), so the hot
  // loops never take a second random access into in_u_ for a neighbor —
  // in_u_ stays authoritative and is kept in lockstep at each switch.
  static constexpr std::uint32_t kSideBit = 0x8000'0000u;
  static constexpr std::uint32_t kDegMask = ~kSideBit;
  struct NodeAggregates {
    std::uint32_t deg = 0;            // friendship degree | side bit
    std::uint32_t cross_friends = 0;  // friends on the other side
    std::uint32_t out_to_u = 0;       // rejections cast onto U
    std::uint32_t in_from_w = 0;      // rejections received from Ū
  };

  // Recomputes size_u_, the per-node aggregates and the cut totals from
  // src_ and in_u_ (which must already be set and size-consistent).
  void InitAggregates();

  // The switch itself, shared by Switch and SwitchFused: moves v to the
  // other side and applies every aggregate delta, reading v's three rows
  // once. Appends the rows to `touched` when it is non-null. Returns v's
  // friend count, the length of the friends run in `touched`.
  std::size_t Flip(graph::NodeId v,
                   util::AlignedVector<graph::NodeId>* touched);

  Source src_;
  // Normalized to strict 0/1 bytes by InitAggregates, so side comparisons
  // and the SIMD zero-byte counts agree for any caller-supplied mask.
  std::vector<char> in_u_;
  graph::NodeId size_u_ = 0;

  util::AlignedVector<NodeAggregates> agg_;
  // Padded 0/1 copy of in_u_ for the gather-based InitAggregates path
  // (std::vector<char> has no overread slack); empty in scalar mode.
  util::AlignedVector<unsigned char> mask_scratch_;

  std::uint64_t cross_friendships_ = 0;  // |F(Ū,U)|
  std::uint64_t rejections_into_u_ = 0;  // |R⃗(Ū,U)|
};

extern template class BasicPartition<graph::GraphSource>;
using Partition = BasicPartition<graph::GraphSource>;

}  // namespace rejecto::detect
