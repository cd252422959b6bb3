#include "serve/policy.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace rejecto::serve {

namespace {

constexpr double kTokenScale = 65536.0;  // 16.16 fixed point

std::uint64_t PackState(std::uint32_t last_tick, double tokens) {
  const auto fp = static_cast<std::uint32_t>(tokens * kTokenScale);
  return (static_cast<std::uint64_t>(last_tick) << 32) | fp;
}

}  // namespace

TokenBucketPolicy::TokenBucketPolicy(const TokenBucketConfig& config)
    : config_(config), state_(config.num_senders) {
  if (!(config_.capacity >= 1.0) || config_.capacity > 65535.0) {
    throw std::invalid_argument(
        "TokenBucketPolicy: capacity must be in [1, 65535]");
  }
  // An infinite rate would refill a same-tick request by 0 × inf = NaN,
  // and std::min(capacity, NaN) is capacity: a limiter that never limits.
  if (!(config_.refill_per_tick >= 0.0) ||
      !std::isfinite(config_.refill_per_tick)) {
    throw std::invalid_argument(
        "TokenBucketPolicy: refill_per_tick must be finite and >= 0");
  }
  const std::uint64_t full = PackState(0, config_.capacity);
  for (auto& s : state_) s.store(full, std::memory_order_relaxed);
}

Verdict TokenBucketPolicy::Evaluate(const PolicyInput& in, Verdict incoming) {
  if (in.sender >= state_.size()) return incoming;
  std::atomic<std::uint64_t>& slot = state_[in.sender];
  const auto now = static_cast<std::uint32_t>(in.logical_time);
  std::uint64_t cur = slot.load(std::memory_order_relaxed);
  bool limited;
  for (;;) {
    const auto last = static_cast<std::uint32_t>(cur >> 32);
    const double tokens =
        static_cast<double>(cur & 0xffffffffULL) / kTokenScale;
    // Wrapping u32 delta; a nominally-negative delta (out-of-order logical
    // times) shows up as a huge wrapped value — treat it as 0 elapsed and
    // keep the newer `last`, so replays with per-sender monotone times are
    // exact and disorder only under-refills.
    std::uint32_t elapsed = now - last;
    std::uint32_t next_last = now;
    if (elapsed > 0x7fffffffU) {
      elapsed = 0;
      next_last = last;
    }
    double refilled = std::min(
        config_.capacity,
        tokens + static_cast<double>(elapsed) * config_.refill_per_tick);
    limited = refilled < 1.0;
    if (!limited) refilled -= 1.0;
    const std::uint64_t next = PackState(next_last, refilled);
    // A sender already limited within this tick (or replayed out of order)
    // leaves its state as it was: skip the write, so repeat requests from a
    // flooding sender only read its line.
    if (next == cur) break;
    if (slot.compare_exchange_weak(cur, next, std::memory_order_acq_rel,
                                   std::memory_order_relaxed)) {
      break;
    }
  }
  return limited ? std::max(incoming, config_.on_limit) : incoming;
}

double TokenBucketPolicy::Tokens(graph::NodeId sender) const {
  if (sender >= state_.size()) return config_.capacity;
  const std::uint64_t cur = state_[sender].load(std::memory_order_relaxed);
  return static_cast<double>(cur & 0xffffffffULL) / kTokenScale;
}

StaticListPolicy::StaticListPolicy(std::vector<char> flagged, Verdict verdict)
    : flagged_(std::move(flagged)), verdict_(verdict) {}

Verdict StaticListPolicy::Evaluate(const PolicyInput& in, Verdict incoming) {
  if (in.sender < flagged_.size() && flagged_[in.sender] != 0) {
    return std::max(incoming, verdict_);
  }
  return incoming;
}

}  // namespace rejecto::serve
