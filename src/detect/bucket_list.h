// Fiduccia–Mattheyses gain bucket list (paper §IV-C, [21]).
//
// An array of intrusive doubly-linked lists indexed by *quantized* switch
// gain, giving O(1) max-gain lookup, insert, delete, and update. Rejecto's
// gains are ΔF − k·ΔR with integer ΔF/ΔR but real k, so gains are mapped to
// buckets by round(gain × resolution) and clamped to the structure's range;
// exact gains live with the caller (quantization only perturbs pick order
// among near-equal gains, never the applied prefix accounting — see
// DESIGN.md). Within a bucket order is LIFO, the classic FM policy.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/types.h"
#include "util/buffer.h"

namespace rejecto::detect {

class BucketList {
 public:
  // An empty workspace with no node or bucket capacity; call Reset before
  // use. Lets callers keep one BucketList alive across many KL passes.
  BucketList() = default;

  // `num_nodes` bounds the node-id universe; `max_abs_gain` is the largest
  // |gain| that maps to a distinct bucket (larger gains clamp to the end
  // buckets); `resolution` is buckets per unit gain. Bucket indices are
  // int32, so max_abs_gain × resolution must stay below 2^30 (a gain bound
  // of ~1.68·10⁷ at the default 64 buckets per unit); a larger bound throws
  // std::invalid_argument naming it. Gains passed in must not be NaN.
  BucketList(graph::NodeId num_nodes, double max_abs_gain, double resolution);

  // Re-targets the structure to a (possibly different) geometry, reusing
  // the existing arrays. When the list is empty — the normal case between
  // KL passes, since every pass drains it via PopMax — this is O(growth):
  // an emptied list already has every head at kNil and every bucket_of_ at
  // kAbsent, so only capacity growth needs initialization. A non-empty
  // list is wiped in O(capacity).
  void Reset(graph::NodeId num_nodes, double max_abs_gain, double resolution);

  bool Empty() const noexcept { return size_ == 0; }
  graph::NodeId Size() const noexcept { return size_; }
  bool Contains(graph::NodeId v) const { return links_[v].bucket != kAbsent; }

  // Hints the cache that v's link record is about to be touched. The fused
  // switch calls this while traversing adjacency, one sweep ahead of the
  // Adjust calls that will read links_[v].
  void PrefetchNode(graph::NodeId v) const noexcept {
    __builtin_prefetch(&links_[v]);
  }

  // Precondition for Insert: !Contains(v). For Remove/Update: Contains(v).
  void Insert(graph::NodeId v, double gain);
  void Remove(graph::NodeId v);
  void Update(graph::NodeId v, double new_gain);

  // Update for the fused-switch hot path: moves v to the bucket of
  // new_gain, a no-op when v is absent (locked or already switched) or when
  // the quantized bucket is unchanged. Identical relink position (bucket
  // head, LIFO) to Remove+Insert, without the presence-check branches.
  // Defined inline: this runs once per touched neighbor per switch, and the
  // call overhead of the out-of-line Update/Unlink/Insert trio is a
  // measurable fraction of the old kernel's cost.
  void Adjust(graph::NodeId v, double new_gain) noexcept {
    NodeLink& lv = links_[v];
    const std::int32_t cur = lv.bucket;
    if (cur == kAbsent) return;  // locked, or already switched this pass
    const std::int32_t b = QuantizeClamped(new_gain);
    if (b == cur) return;
    // Unlink from the current bucket; size_ is unchanged net of the relink.
    const std::size_t old_h = static_cast<std::size_t>(cur + max_bucket_);
    if (lv.prev != kNil) {
      links_[static_cast<std::size_t>(lv.prev)].next = lv.next;
    } else {
      heads_[old_h] = lv.next;
    }
    if (lv.next != kNil) links_[static_cast<std::size_t>(lv.next)].prev = lv.prev;
    // Relink at the head of bucket b — the exact position Insert would pick.
    lv.bucket = b;
    const std::size_t h = static_cast<std::size_t>(b + max_bucket_);
    lv.next = heads_[h];
    lv.prev = kNil;
    if (heads_[h] != kNil) {
      links_[static_cast<std::size_t>(heads_[h])].prev =
          static_cast<std::int32_t>(v);
    }
    heads_[h] = static_cast<std::int32_t>(v);
    if (b > cur_max_) cur_max_ = b;
  }

  // Returns a node with the maximal quantized gain without removing it, or
  // graph::kInvalidNode when empty.
  graph::NodeId MaxGainNode() const noexcept;

  // Removes and returns a max-gain node (kInvalidNode when empty).
  graph::NodeId PopMax();

  // Empties the list without popping in order: a pass that stops early
  // leaves nodes behind, and Reset is O(growth) only on an empty list.
  // O(size + the buckets PopMax would have walked).
  void Drain() noexcept;

  // Appends up to `k` currently-present nodes in descending bucket order
  // (LIFO within a bucket) — the prefetch candidates of the distributed
  // engine (§V): the nodes most likely to be switched soonest.
  void CollectTop(std::size_t k, std::vector<graph::NodeId>& out) const;

  // Introspection for tests and capacity-reuse assertions.
  std::int32_t Quantize(double gain) const noexcept;
  // Quantized bucket of v; only meaningful when Contains(v).
  std::int32_t BucketOf(graph::NodeId v) const { return links_[v].bucket; }
  std::size_t NodeCapacity() const noexcept { return links_.size(); }
  std::size_t BucketCapacity() const noexcept { return heads_.size(); }

 private:
  static constexpr std::int32_t kAbsent = INT32_MIN;
  static constexpr std::int32_t kNil = -1;

  // Per-node intrusive links and bucket index, packed so a relink touches
  // one cache line per involved node instead of three parallel arrays.
  struct NodeLink {
    std::int32_t next = kNil;
    std::int32_t prev = kNil;
    std::int32_t bucket = kAbsent;  // kAbsent when not in the structure
  };

  // clamp(std::llround(gain × resolution_)) for any non-NaN gain, without
  // the libm call: inside the clamp |scaled| < max_bucket_ < 2^30, so the
  // truncation t fits an int32 and scaled − t is exact (same sign, |t| ≥
  // |scaled|/2 once |scaled| ≥ 1); halves round away from zero.
  std::int32_t QuantizeClamped(double gain) const noexcept {
    const double scaled = gain * resolution_;
    if (scaled >= static_cast<double>(max_bucket_)) return max_bucket_;
    if (scaled <= static_cast<double>(-max_bucket_)) return -max_bucket_;
    const auto t = static_cast<std::int32_t>(scaled);
    const double frac = scaled - static_cast<double>(t);
    return t + static_cast<std::int32_t>(frac >= 0.5) -
           static_cast<std::int32_t>(frac <= -0.5);
  }
  void Unlink(graph::NodeId v);

  double resolution_ = 1.0;
  std::int32_t max_bucket_ = 0;           // buckets span [-max_bucket_, +max_bucket_]
  // Both stores live on the aligned memory tier: the 12-byte NodeLink
  // records are the per-switch random-access hot set.
  util::AlignedVector<std::int32_t> heads_;  // per-bucket head (kNil if empty)
  util::AlignedVector<NodeLink> links_;      // kNil-terminated intrusive lists
  std::int32_t cur_max_ = 0;              // highest possibly-non-empty bucket
  graph::NodeId size_ = 0;
};

}  // namespace rejecto::detect
