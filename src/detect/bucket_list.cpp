#include "detect/bucket_list.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <stdexcept>

namespace rejecto::detect {

BucketList::BucketList(graph::NodeId num_nodes, double max_abs_gain,
                       double resolution) {
  Reset(num_nodes, max_abs_gain, resolution);
}

void BucketList::Reset(graph::NodeId num_nodes, double max_abs_gain,
                       double resolution) {
  if (resolution <= 0.0 || !std::isfinite(max_abs_gain) || max_abs_gain < 0) {
    throw std::invalid_argument("BucketList: bad resolution or gain bound");
  }
  // Buckets span [-max_bucket_, max_bucket_] and are addressed as
  // b + max_bucket_ in int32, so 2·max_bucket_ must fit one.
  constexpr double kMaxBucket = (INT32_MAX - 1) / 2;
  const double top = std::ceil(max_abs_gain * resolution) + 1.0;
  if (!(top <= kMaxBucket)) {
    char msg[160];
    std::snprintf(msg, sizeof msg,
                  "BucketList: gain bound %g at resolution %g needs more "
                  "than %.0f buckets a side",
                  max_abs_gain, resolution, kMaxBucket);
    throw std::invalid_argument(msg);
  }
  resolution_ = resolution;
  max_bucket_ = static_cast<std::int32_t>(top);
  const std::size_t num_buckets =
      static_cast<std::size_t>(2 * max_bucket_) + 1;
  const std::size_t nodes = static_cast<std::size_t>(num_nodes);
  if (size_ != 0) {
    // Dirty workspace (a pass was abandoned mid-way): wipe everything.
    heads_.assign(std::max(num_buckets, heads_.size()), kNil);
    links_.assign(std::max(nodes, links_.size()), NodeLink{});
    size_ = 0;
  } else {
    // Empty invariant: Unlink leaves every head at kNil and every bucket
    // index at kAbsent, so existing capacity needs no touch-up and a
    // steady-state Reset allocates nothing.
    if (heads_.size() < num_buckets) heads_.resize(num_buckets, kNil);
    if (links_.size() < nodes) links_.resize(nodes, NodeLink{});
  }
  cur_max_ = -max_bucket_;
}

std::int32_t BucketList::Quantize(double gain) const noexcept {
  return QuantizeClamped(gain);
}

void BucketList::Insert(graph::NodeId v, double gain) {
  NodeLink& lv = links_[v];
  if (lv.bucket != kAbsent) {
    throw std::invalid_argument("BucketList::Insert: node already present");
  }
  const std::int32_t b = QuantizeClamped(gain);
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
  ++size_;
}

void BucketList::Unlink(graph::NodeId v) {
  NodeLink& lv = links_[v];
  const std::size_t h = static_cast<std::size_t>(lv.bucket + max_bucket_);
  if (lv.prev != kNil) {
    links_[static_cast<std::size_t>(lv.prev)].next = lv.next;
  } else {
    heads_[h] = lv.next;
  }
  if (lv.next != kNil) links_[static_cast<std::size_t>(lv.next)].prev = lv.prev;
  lv.bucket = kAbsent;
  --size_;
}

void BucketList::Remove(graph::NodeId v) {
  if (links_[v].bucket == kAbsent) {
    throw std::invalid_argument("BucketList::Remove: node not present");
  }
  Unlink(v);
}

void BucketList::Update(graph::NodeId v, double new_gain) {
  if (links_[v].bucket == kAbsent) {
    throw std::invalid_argument("BucketList::Update: node not present");
  }
  const std::int32_t b = QuantizeClamped(new_gain);
  if (b == links_[v].bucket) return;
  Unlink(v);
  Insert(v, new_gain);
}

graph::NodeId BucketList::MaxGainNode() const noexcept {
  if (size_ == 0) return graph::kInvalidNode;
  std::int32_t b = cur_max_;
  while (heads_[static_cast<std::size_t>(b + max_bucket_)] == kNil) --b;
  return static_cast<graph::NodeId>(
      heads_[static_cast<std::size_t>(b + max_bucket_)]);
}

void BucketList::CollectTop(std::size_t k,
                            std::vector<graph::NodeId>& out) const {
  if (size_ == 0 || k == 0) return;
  std::size_t collected = 0;
  for (std::int32_t b = cur_max_; b >= -max_bucket_ && collected < k; --b) {
    for (std::int32_t v = heads_[static_cast<std::size_t>(b + max_bucket_)];
         v != kNil && collected < k;
         v = links_[static_cast<std::size_t>(v)].next) {
      out.push_back(static_cast<graph::NodeId>(v));
      ++collected;
    }
  }
}

graph::NodeId BucketList::PopMax() {
  if (size_ == 0) return graph::kInvalidNode;
  while (heads_[static_cast<std::size_t>(cur_max_ + max_bucket_)] == kNil) {
    --cur_max_;  // lazily descend; raised again on Insert
  }
  const auto v = static_cast<graph::NodeId>(
      heads_[static_cast<std::size_t>(cur_max_ + max_bucket_)]);
  Unlink(v);
  return v;
}

void BucketList::Drain() noexcept {
  for (std::int32_t b = cur_max_; size_ != 0; --b) {
    std::int32_t& head = heads_[static_cast<std::size_t>(b + max_bucket_)];
    for (std::int32_t v = head; v != kNil;) {
      NodeLink& lv = links_[static_cast<std::size_t>(v)];
      v = lv.next;
      lv.bucket = kAbsent;
      --size_;
    }
    head = kNil;
  }
  cur_max_ = -max_bucket_;
}

}  // namespace rejecto::detect
