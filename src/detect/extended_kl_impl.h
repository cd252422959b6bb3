// detect::BasicExtendedKl, for the files that instantiate it:
// detect/extended_kl.cpp (GraphSource) and engine/dist_kl.cpp (the store).
#pragma once

#include <algorithm>
#include <cstddef>
#include <stdexcept>

#include "detect/extended_kl.h"

namespace rejecto::detect {
namespace kl_detail {

constexpr double kGainEps = 1e-7;

// Largest possible |gain| of any single switch: every friend edge and every
// rejection arc incident to the node can contribute at most 1 and k, so
// max_F + k·max_R over the graph's cached degree maxima dominates
// max_v (deg(v) + k·rejdeg(v)). O(1) per call — the MAAR sweep invokes KL
// dozens of times per solve, and the maxima are precomputed when the
// (possibly compacted) AugmentedGraph is built. The looser bound never
// changes results: no actual gain reaches either bound, so bucket indices
// (round(gain × resolution), clamp untriggered) are identical.
template <class Source>
double GainBound(const Source& src, double k) {
  const double b = static_cast<double>(src.MaxFriendshipDegree()) +
                   k * static_cast<double>(src.MaxRejectionDegree());
  return std::max(1.0, b);
}

}  // namespace kl_detail

template <class Source>
KlResult BasicExtendedKl(const Source& src, const std::vector<char>& init_in_u,
                         const std::vector<char>& locked,
                         const KlConfig& config,
                         BasicKlScratch<Source>* scratch) {
  const graph::NodeId n = src.NumNodes();
  if (!(config.k > 0.0)) {  // NaN too: a NaN gain has no bucket
    throw std::invalid_argument("ExtendedKl: k must be positive");
  }
  if (!locked.empty() && locked.size() != n) {
    throw std::invalid_argument("ExtendedKl: locked mask size mismatch");
  }
  auto is_locked = [&](graph::NodeId v) {
    return !locked.empty() && locked[v] != 0;
  };

  BasicKlScratch<Source> local;
  BasicKlScratch<Source>& ws = scratch != nullptr ? *scratch : local;
  ws.partition.Reset(src, init_in_u);
  BasicPartition<Source>& p = ws.partition;

  const double k = config.k;
  const double gain_bound = kl_detail::GainBound(src, k);

  KlStats stats;
  ws.seq.reserve(n);
  // One switch touches at most deg(v) + rejdeg(v) neighbors; reserving once
  // here keeps SwitchFused's push_backs allocation-free for the whole call.
  ws.touched.reserve(static_cast<std::size_t>(src.MaxFriendshipDegree() +
                                              src.MaxRejectionDegree()));
  // |F| and |R| size the pass bound's rounding margin.
  std::uint64_t degree_sum = 0;
  std::uint64_t rejections = 0;
  for (graph::NodeId v = 0; v < n; ++v) {
    degree_sum += p.FriendDegree(v);
    rejections += src.RejInDegree(v);
  }

  for (int pass = 0; pass < config.max_passes; ++pass) {
    ++stats.passes;
    p.Mark(ws.checkpoint);
    ws.bucket.Reset(n, gain_bound, config.gain_resolution);
    BucketList& bl = ws.bucket;
    PassBound& bound = ws.bound;
    // After the bucket Reset, which refuses a non-finite gain bound.
    bound.Configure(n, k, src.MaxFriendshipDegree(), src.MaxRejectionDegree(),
                    degree_sum / 2, rejections);
    bound.BeginPass();
    for (graph::NodeId v = 0; v < n; ++v) {
      if (is_locked(v)) continue;
      bl.Insert(v, -p.DeltaObjective(v, k));
      bound.Add(v, p.SameSideFriends(v), p.CrossArcs(v), p.DeltaFriends(v),
                p.DeltaRejections(v));
    }

    ws.seq.clear();
    double cum = 0.0;
    // A prefix is the new best when its cum beats the best one's (0 for the
    // empty prefix) by more than kGainEps.
    double target = kl_detail::kGainEps;
    std::size_t best_prefix = 0;  // number of leading switches to keep

    // Pop until the list is empty or no later prefix can beat the best one
    // (detect/pass_bound.h); either way the kept prefix is the same.
    while (!bl.Empty() && !bound.Exhausted(cum, target)) {
      const graph::NodeId v = bl.PopMax();
      const double gain = -p.DeltaObjective(v, k);
      bound.Remove(v);
      p.SwitchFused(v, k, bl, ws.touched, &bound);
      ws.seq.push_back(v);
      cum += gain;
      if (cum > target) {
        target = cum + kl_detail::kGainEps;
        best_prefix = ws.seq.size();
      }
    }
    bl.Drain();
    stats.switches_tried += ws.seq.size();

    // Keep only the best prefix (nothing, if no positive prefix exists):
    // rewind to the pass start and replay the prefix. Kept prefixes are
    // short (14% of the switches on the 44,000-node benchmark attack), so
    // this beats undoing the suffix switch by switch, and the aggregates,
    // being integer functions of the mask, come out identical either way.
    // The bucket list is drained, so the plain (bucket-free) Switch
    // suffices.
    if (best_prefix < ws.seq.size()) {
      p.Rewind(ws.checkpoint, ws.seq.data(), ws.seq.size());
      for (std::size_t i = 0; i < best_prefix; ++i) p.Switch(ws.seq[i]);
    }
    stats.switches_applied += best_prefix;
    if (best_prefix == 0) break;  // converged: no improving prefix
  }

  KlResult result;
  result.cut = p.Quantities();
  stats.final_objective = p.Objective(k);
  result.stats = stats;
  result.in_u = p.Mask();
  return result;
}

}  // namespace rejecto::detect
