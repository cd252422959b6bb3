// An upper bound on the gain the rest of an FM pass can still add.
//
// Algorithm 1 (paper §IV-D) pops every unlocked node in a pass and then
// keeps the best prefix. Once no later prefix can beat the best one so far,
// the rest of the pass is wasted work, so ExtendedKl stops there. The kept
// prefix is the one the full pass would keep, bit for bit.
//
// The bound. Let P be the unpopped nodes of the pass: none of them has
// switched yet, so each still sits on its pass-start side. Switching any
// set S ⊆ P gains Σ_{u∈S} gain(u) plus one correction per edge or arc
// with both ends in S: +2 for a friendship whose ends share a side, −2 for
// one that crosses, +k for a rejection arc whose ends sit on different
// sides, −k for one whose ends share a side. Dropping the negative
// corrections and splitting each positive one between its two ends,
//     gain(S) ≤ Σ_{u∈P} term(u),
//     term(u) = max(0, gain(u) + f(u) + (k/2)·r(u)),
// where f(u) counts u's friends in P on u's side and r(u) the rejection
// arcs, either way, between u and nodes of P on the other side. Locked
// nodes are never in P; counting them in f and r only loosens the bound.
//
// Each term is kept in fixed point, rounded up, so UB = Σ term is an exact
// integer sum and never drifts however many updates it sees. The pass adds
// its gains in floating point, though, so the stop test also allows for
// the rounding of every gain and every sum the rest of the pass could
// still make: `margin` (see docs/ALGORITHM.md §7 for the derivation).
//
// Upkeep rides on work the switch already does: a pop removes the node's
// term, and SwitchFused's deferred sweep lowers f or r of each neighbour
// still in P and recomputes its term from the integer aggregates the new
// gain comes from. The state is 16 bytes per node and lives in KlScratch.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "graph/types.h"
#include "util/buffer.h"

namespace rejecto::detect {

class PassBound {
 public:
  // Fixes the fixed-point scale and the rounding margin for one KL call on
  // a graph of `n` nodes at weight `k`, given its degree maxima and its
  // friendship and rejection totals. Sizes the per-node records, reusing
  // their capacity. Throws std::invalid_argument when n·(2·max_F +
  // 1.5·k·max_R + 3·max_R + 1) reaches 2^61, where not even whole units fit
  // an int64 sum (far beyond what BucketList accepts at its default
  // resolution).
  void Configure(graph::NodeId n, double k, std::uint64_t max_friend_degree,
                 std::uint64_t max_rejection_degree,
                 std::uint64_t friendships, std::uint64_t rejections) {
    // Without rejection arcs every r and ΔR is 0, so k drops out (and may
    // be arbitrarily large).
    const bool arcs = max_rejection_degree > 0;
    const double term_max =
        2.0 * static_cast<double>(max_friend_degree) +
        (arcs ? (1.5 * k + 3.0) * static_cast<double>(max_rejection_degree)
              : 0.0) +
        1.0;
    int exp = 0;
    std::frexp(static_cast<double>(n) * term_max, &exp);  // < 2^exp
    const int shift = std::min(20, 61 - exp);
    if (shift < 0) {
      throw std::invalid_argument(
          "ExtendedKl: graph too large for the pass gain bound");
    }
    unit_scale_ = std::int64_t{1} << shift;
    unit_ = std::ldexp(1.0, -shift);
    // k/2 in units of 2^-shift, rounded each way.
    half_k_up_ = half_k_down_ = 0;
    if (arcs) {
      const double half_k = std::ldexp(k, shift - 1);
      half_k_up_ = static_cast<std::int64_t>(std::ceil(half_k));
      half_k_down_ = static_cast<std::int64_t>(std::floor(half_k));
    }
    // |cum| never exceeds T = |F| + k·|R|, the width of W's range, and the
    // rest of a pass pops at most n nodes whose |ΔF| + k·|ΔR| sum to at most
    // 2T: 2^-52·(T + 1)·(n + 8) covers every rounding of those gains and
    // sums, and of the stop test itself, with room to spare.
    const double total =
        static_cast<double>(friendships) +
        (arcs ? k * static_cast<double>(rejections) : 0.0);
    margin_ = std::ldexp(total + 1.0, -52) * (static_cast<double>(n) + 8.0);
    nodes_.resize(n);
  }

  // Starts a pass with P empty; Add then enters each unlocked node.
  void BeginPass() noexcept { ub_ = 0; }

  // Enters u into P with f = same_side_friends and r = cross_arcs, given
  // its gain as the integer pair (ΔF, ΔR) of Partition::DeltaObjective.
  void Add(graph::NodeId u, std::uint32_t same_side_friends,
           std::uint32_t cross_arcs, std::int64_t delta_friends,
           std::int64_t delta_rejections) noexcept {
    Node& a = nodes_[u];
    a.same_side_friends = same_side_friends;
    a.cross_arcs = cross_arcs;
    a.term = Term(a, delta_friends, delta_rejections);
    ub_ += a.term;
  }

  // u left P (popped).
  void Remove(graph::NodeId u) noexcept { ub_ -= nodes_[u].term; }

  // A neighbour of u left P: f(u) drops by `friends` and r(u) by `arcs`,
  // and u's gain is now (ΔF, ΔR). Returns the change of u's term, which
  // the caller sums over its sweep and hands to Shift: a running sum kept
  // in a local stays in a register, where ub_ would be reloaded after every
  // store to a record.
  std::int64_t Update(graph::NodeId u, std::uint32_t friends,
                      std::uint32_t arcs, std::int64_t delta_friends,
                      std::int64_t delta_rejections) noexcept {
    Node& a = nodes_[u];
    a.same_side_friends -= friends;
    a.cross_arcs -= arcs;
    const std::int64_t term = Term(a, delta_friends, delta_rejections);
    const std::int64_t change = term - a.term;
    a.term = term;
    return change;
  }

  // Applies the summed changes of a sweep's Updates.
  void Shift(std::int64_t change) noexcept { ub_ += change; }

  void Prefetch(graph::NodeId u) const noexcept {
    __builtin_prefetch(&nodes_[u]);
  }

  // True when no set of nodes still in P can lift `cum` above `target`
  // (the best prefix's cum + kGainEps, the very double the pass compares
  // against), so no later prefix can become the best one.
  bool Exhausted(double cum, double target) const noexcept {
    return static_cast<double>(ub_) * unit_ <= (target - cum) - margin_;
  }

  // UB in gain units (rounded); for tests.
  double Value() const noexcept { return static_cast<double>(ub_) * unit_; }

 private:
  struct Node {
    std::uint32_t same_side_friends = 0;  // f
    std::uint32_t cross_arcs = 0;         // r
    std::int64_t term = 0;                // in units of 2^-shift
  };
  static_assert(sizeof(Node) == 16);

  // max(0, (f − ΔF) + (k/2)·(2ΔR + r)) in fixed point, rounded up: the
  // gain is −ΔF + k·ΔR.
  std::int64_t Term(const Node& a, std::int64_t delta_friends,
                    std::int64_t delta_rejections) const noexcept {
    const std::int64_t whole =
        static_cast<std::int64_t>(a.same_side_friends) - delta_friends;
    const std::int64_t halves =
        2 * delta_rejections + static_cast<std::int64_t>(a.cross_arcs);
    const std::int64_t half_k = halves >= 0 ? half_k_up_ : half_k_down_;
    return std::max<std::int64_t>(whole * unit_scale_ + half_k * halves, 0);
  }

  util::AlignedVector<Node> nodes_;
  std::int64_t ub_ = 0;
  std::int64_t unit_scale_ = 1;
  std::int64_t half_k_up_ = 0;
  std::int64_t half_k_down_ = 0;
  double unit_ = 1.0;
  double margin_ = 0.0;
};

}  // namespace rejecto::detect
