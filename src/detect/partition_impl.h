// detect::BasicPartition's members, for the files that instantiate it:
// detect/partition.cpp (GraphSource) and engine/dist_kl.cpp (the store).
#pragma once

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include <cstring>
#include <span>
#include <stdexcept>
#include <type_traits>

#include "detect/bucket_list.h"
#include "detect/partition.h"
#include "detect/pass_bound.h"
#include "util/dcheck.h"
#include "util/simd.h"

namespace rejecto::detect {
namespace partition_detail {

// The fused-switch delta kernel treats the NodeAggregates array as a flat
// u32 array: word 4w is agg_[w].deg, word 4w+1 is agg_[w].cross_friends.
//
// Branch-free scalar form of the cross-friends update: sides differ exactly
// when the top bit of deg ^ v_side is set, and the count moves by +1 (differ)
// or -1 (match) — (deg ^ v_side) >> 31 is 1 or 0, so 2x-1 is the delta in
// unsigned arithmetic.
inline void CrossFriendDeltasScalar(std::uint32_t* agg_words,
                                    const graph::NodeId* row, std::size_t n,
                                    std::uint32_t v_side) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t base = static_cast<std::size_t>(row[i]) << 2;
    const std::uint32_t differs = (agg_words[base] ^ v_side) >> 31;
    agg_words[base + 1] += 2 * differs - 1;
  }
}

#if defined(__x86_64__) || defined(__i386__)
// AVX2 form: gathers 8 deg words at once so the random-access cache misses
// overlap, then applies the computed ±1 deltas scalar (the target lines are
// warm after the gather). Same integer arithmetic as the scalar form —
// bit-identical. Requires node ids < 2^29 (word index shifted left by 2
// must stay a positive s32 for the gather).
__attribute__((target("avx2"))) inline void CrossFriendDeltasAvx2(
    std::uint32_t* agg_words, const graph::NodeId* row, std::size_t n,
    std::uint32_t v_side) {
  const __m256i side = _mm256_set1_epi32(static_cast<int>(v_side));
  const __m256i one = _mm256_set1_epi32(1);
  alignas(32) std::uint32_t delta[8];
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i vidx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + i));
    const __m256i words = _mm256_slli_epi32(vidx, 2);
    const __m256i degs = _mm256_i32gather_epi32(
        reinterpret_cast<const int*>(agg_words), words, 4);
    const __m256i differs =
        _mm256_srli_epi32(_mm256_xor_si256(degs, side), 31);
    _mm256_store_si256(
        reinterpret_cast<__m256i*>(delta),
        _mm256_sub_epi32(_mm256_add_epi32(differs, differs), one));
    for (int j = 0; j < 8; ++j) {
      agg_words[(static_cast<std::size_t>(row[i + j]) << 2) + 1] += delta[j];
    }
  }
  CrossFriendDeltasScalar(agg_words, row + i, n - i, v_side);
}
#endif  // x86

inline void CrossFriendDeltas(std::uint32_t* agg_words,
                              const graph::NodeId* row, std::size_t n,
                              std::uint32_t v_side, bool use_avx2) {
#if defined(__x86_64__) || defined(__i386__)
  if (use_avx2 && n >= 16) {
    CrossFriendDeltasAvx2(agg_words, row, n, v_side);
    return;
  }
#else
  (void)use_avx2;
#endif
  CrossFriendDeltasScalar(agg_words, row, n, v_side);
}

}  // namespace partition_detail

template <class Source>
BasicPartition<Source>::BasicPartition(const Source& src,
                                       const std::vector<char>& in_u) {
  Reset(src, in_u);
}

template <class Source>
void BasicPartition<Source>::Reset(const Source& src,
                                   const std::vector<char>& in_u) {
  if (in_u.size() != src.NumNodes()) {
    throw std::invalid_argument("Partition: mask size mismatch");
  }
  src_ = src;
  in_u_ = in_u;  // copy-assign reuses the existing capacity
  InitAggregates();
}

template <class Source>
void BasicPartition<Source>::InitAggregates() {
  const graph::NodeId n = static_cast<graph::NodeId>(in_u_.size());
  size_u_ = 0;
  cross_friendships_ = 0;
  rejections_into_u_ = 0;
  agg_.assign(n, NodeAggregates{});

  // Normalize the mask to strict 0/1: callers promise "non-zero means in U",
  // and normalizing makes the side comparisons below, the side bit, and the
  // SIMD zero-byte counts all agree on the same membership.
  for (graph::NodeId v = 0; v < n; ++v) in_u_[v] = in_u_[v] != 0 ? 1 : 0;

  // Each node's aggregates are a function of its own rows and the mask, so
  // the source may visit the rows in any order and from several threads:
  // the visits write disjoint records and read only the mask. The totals
  // are summed afterwards, in id order.
  using Row = std::span<const graph::NodeId>;
  if (util::simd::ActiveMode() == util::simd::SimdMode::kAvx2 && n > 0) {
    // Gather path: every per-node aggregate is an exact zero-byte count over
    // the normalized mask (cross = neighbors on the other side, in_from_w =
    // rejectors outside U, out_to_u = rejectees inside U), so the results
    // match the scalar loops bit for bit.
    mask_scratch_.resize(n);
    std::memcpy(mask_scratch_.data(), in_u_.data(), n);
    const unsigned char* mask = mask_scratch_.data();
    src_.ForEachRow([&](graph::NodeId v, Row friends, Row rejectors,
                        Row rejectees) {
      NodeAggregates& a = agg_[v];
      a.deg = static_cast<std::uint32_t>(friends.size()) |
              (in_u_[v] ? kSideBit : 0u);
      const std::size_t friends_out =
          util::simd::CountZeroAt(mask, friends.data(), friends.size());
      a.cross_friends = static_cast<std::uint32_t>(
          in_u_[v] ? friends_out : friends.size() - friends_out);
      a.in_from_w = static_cast<std::uint32_t>(
          util::simd::CountZeroAt(mask, rejectors.data(), rejectors.size()));
      a.out_to_u = static_cast<std::uint32_t>(
          rejectees.size() -
          util::simd::CountZeroAt(mask, rejectees.data(), rejectees.size()));
    });
  } else {
    src_.ForEachRow([&](graph::NodeId v, Row friends, Row rejectors,
                        Row rejectees) {
      NodeAggregates& a = agg_[v];
      a.deg = static_cast<std::uint32_t>(friends.size()) |
              (in_u_[v] ? kSideBit : 0u);
      for (graph::NodeId w : friends) {
        if (in_u_[v] != in_u_[w]) ++a.cross_friends;
      }
      for (graph::NodeId x : rejectors) {
        if (!in_u_[x]) ++a.in_from_w;
      }
      for (graph::NodeId y : rejectees) {
        if (in_u_[y]) ++a.out_to_u;
      }
    });
  }
  for (graph::NodeId v = 0; v < n; ++v) {
    if (in_u_[v]) {
      ++size_u_;
      cross_friendships_ += agg_[v].cross_friends;
      rejections_into_u_ += agg_[v].in_from_w;
    }
  }
}

template <class Source>
void BasicPartition<Source>::Switch(graph::NodeId v) {
  if (v >= NumNodes()) throw std::out_of_range("Partition::Switch: node id");
  Flip(v, nullptr);
}

template <class Source>
std::size_t BasicPartition<Source>::Flip(
    graph::NodeId v, util::AlignedVector<graph::NodeId>* touched) {
  // Update the global totals with the pre-switch deltas.
  cross_friendships_ = static_cast<std::uint64_t>(
      static_cast<std::int64_t>(cross_friendships_) + DeltaFriends(v));
  rejections_into_u_ = static_cast<std::uint64_t>(
      static_cast<std::int64_t>(rejections_into_u_) + DeltaRejections(v));

  const bool was_in_u = InU(v);
  in_u_[v] = was_in_u ? 0 : 1;
  size_u_ += was_in_u ? -1 : 1;
  agg_[v].deg ^= kSideBit;

  const auto friends = src_.Friends(v);
  const auto rejectors = src_.Rejectors(v);
  const auto rejectees = src_.Rejectees(v);

  // The touched buffer is the three adjacency rows back to back — one bulk
  // memcpy per row instead of a push_back per neighbor. Duplicates (a node
  // that is both friend and rejector/rejectee of v) stay in the buffer; the
  // deferred sweep makes them no-ops.
  if (touched != nullptr) {
    touched->Append(friends.data(), friends.size());
    touched->Append(rejectors.data(), rejectors.size());
    touched->Append(rejectees.data(), rejectees.size());
  }

  // v's own cross-friend count flips; partners' counts shift by one,
  // branch-free (AVX2-gathered on long rows).
  agg_[v].cross_friends = (agg_[v].deg & kDegMask) - agg_[v].cross_friends;
  const std::uint32_t v_side = agg_[v].deg & kSideBit;
  const bool use_avx2 =
      util::simd::ActiveMode() == util::simd::SimdMode::kAvx2 &&
      NumNodes() < (1u << 29);
  static_assert(sizeof(NodeAggregates) == 4 * sizeof(std::uint32_t));
  partition_detail::CrossFriendDeltas(
      reinterpret_cast<std::uint32_t*>(agg_.data()), friends.data(),
      friends.size(), v_side, use_avx2);
  // v entering U (resp. leaving) makes each rejector x of v gain (lose) an
  // out-arc into U; each rejectee y of v gains (loses) an in-arc from Ū when
  // v leaves U (resp. enters).
  const std::int32_t into_u = was_in_u ? -1 : 1;
  for (graph::NodeId x : rejectors) {
    agg_[x].out_to_u = static_cast<std::uint32_t>(
        static_cast<std::int32_t>(agg_[x].out_to_u) + into_u);
  }
  for (graph::NodeId y : rejectees) {
    agg_[y].in_from_w = static_cast<std::uint32_t>(
        static_cast<std::int32_t>(agg_[y].in_from_w) - into_u);
  }
  return friends.size();
}

template <class Source>
void BasicPartition<Source>::SwitchFused(
    graph::NodeId v, double k, BucketList& bl,
    util::AlignedVector<graph::NodeId>& touched, PassBound* bound) {
  REJECTO_DCHECK(v < NumNodes(), "Partition::SwitchFused: node id");
  touched.clear();
  const std::size_t num_friends = Flip(v, &touched);

  // Deferred bucket maintenance with the final aggregates: the first
  // occurrence of each neighbor relinks it (head of its new bucket), later
  // occurrences and unchanged buckets are no-ops inside Adjust — the exact
  // relink sequence of the unfused refresh loop. The gain is recomputed
  // from the integer aggregates (never accumulated in floating point), so
  // quantization and pick order match the unfused path bit for bit. The
  // Contains guard skips the gain recompute for nodes already popped or
  // locked — Adjust would ignore them anyway. The link records are
  // prefetched a fixed lookahead ahead of the sweep, not during the delta
  // traversal, which on long rows evicts them before the sweep comes.
  //
  // The bound's upkeep: a neighbour w still in the bucket list has not
  // switched this pass, and v just did, so they shared a side at the pass
  // start exactly when they differ now. A friend w then loses v from its f,
  // a rejection partner from the other side loses one arc from its r (once
  // per arc: the rejectors and rejectees runs list each arc once).
  const std::size_t count = touched.size();
  const std::uint32_t v_side = agg_[v].deg & kSideBit;
  constexpr std::size_t kLookahead = 8;
  // One loop per run, with and without the bound, so neither the bound
  // test nor the run test sits in the loop body.
  auto sweep = [&](std::size_t begin, std::size_t end, auto with_bound,
                   auto friend_run) {
    std::int64_t ub_change = 0;
    for (std::size_t i = begin; i < end; ++i) {
      if (i + kLookahead < count) {
        bl.PrefetchNode(touched[i + kLookahead]);
        if constexpr (with_bound) bound->Prefetch(touched[i + kLookahead]);
      }
      const graph::NodeId w = touched[i];
      if (!bl.Contains(w)) continue;
      const std::int64_t df = DeltaFriends(w);
      const std::int64_t dr = DeltaRejections(w);
      // DeltaObjective's expression, on the same integers.
      bl.Adjust(w, -(static_cast<double>(df) - k * static_cast<double>(dr)));
      if constexpr (with_bound) {
        const std::uint32_t differs = (agg_[w].deg ^ v_side) >> 31;
        ub_change += friend_run ? bound->Update(w, differs, 0, df, dr)
                                : bound->Update(w, 0, 1 - differs, df, dr);
      }
    }
    if constexpr (with_bound) bound->Shift(ub_change);
  };
  if (bound == nullptr) {
    sweep(0, count, std::false_type{}, std::true_type{});
  } else {
    sweep(0, num_friends, std::true_type{}, std::true_type{});
    sweep(num_friends, count, std::true_type{}, std::false_type{});
  }
}

template <class Source>
void BasicPartition<Source>::Mark(Checkpoint& cp) const {
  const graph::NodeId n = NumNodes();
  cp.counters.resize(n);
  for (graph::NodeId v = 0; v < n; ++v) {
    cp.counters[v] = {agg_[v].cross_friends, agg_[v].out_to_u,
                      agg_[v].in_from_w};
  }
  cp.cross_friendships = cross_friendships_;
  cp.rejections_into_u = rejections_into_u_;
  cp.size_u = size_u_;
}

template <class Source>
void BasicPartition<Source>::Rewind(const Checkpoint& cp,
                                    const graph::NodeId* switched,
                                    std::size_t count) {
  const graph::NodeId n = NumNodes();
  REJECTO_DCHECK(cp.counters.size() == n, "Partition::Rewind: checkpoint size");
  for (std::size_t i = 0; i < count; ++i) {
    REJECTO_DCHECK(switched[i] < n, "Partition::Rewind: node id");
    in_u_[switched[i]] ^= 1;
  }
  for (graph::NodeId v = 0; v < n; ++v) {
    NodeAggregates& a = agg_[v];
    a.deg = (a.deg & kDegMask) | (in_u_[v] ? kSideBit : 0u);
    a.cross_friends = cp.counters[v].cross_friends;
    a.out_to_u = cp.counters[v].out_to_u;
    a.in_from_w = cp.counters[v].in_from_w;
  }
  cross_friendships_ = cp.cross_friendships;
  rejections_into_u_ = cp.rejections_into_u;
  size_u_ = cp.size_u;
}

template <class Source>
graph::CutQuantities BasicPartition<Source>::Quantities() const noexcept {
  graph::CutQuantities q;
  q.cross_friendships = cross_friendships_;
  q.rejections_into_u = rejections_into_u_;
  // rejections_from_u is not part of the objective, so it is not tracked
  // incrementally; derive it: for v ∈ Ū, arcs into v from U equal
  // InDegree(v) − in_from_w(v).
  std::uint64_t from_u = 0;
  for (graph::NodeId v = 0; v < NumNodes(); ++v) {
    if (!in_u_[v]) {
      from_u += src_.RejInDegree(v) - agg_[v].in_from_w;
    }
  }
  q.rejections_from_u = from_u;
  return q;
}

}  // namespace rejecto::detect
