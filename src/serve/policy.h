// Pluggable admission-policy chain: the paper's §VI-D defense-in-depth
// pipeline as code.
//
// The paper argues Rejecto should not be the only line of defense: it sits
// in a layered pipeline next to rate limiting and feedback-based scoring
// (SocialFilter's collaborative reports, SybilFence's negative feedback —
// PAPERS.md). The admission service models the pipeline as an ordered chain
// of AdmissionPolicy objects evaluated after the incremental-score verdict;
// each policy may only ESCALATE the verdict (admit -> grey -> reject, the
// chain max-combines), so layering policies never masks evidence an earlier
// layer found — exactly the fail-closed composition a defense-in-depth
// stack wants.
//
// Policies run on the lock-free reader path, so implementations must be
// thread-safe without blocking, and — for the differential harness —
// deterministic per sender given that sender's query order (per-sender
// atomic state satisfies both; global mutable state would not).
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "graph/types.h"
#include "serve/published_epoch.h"

namespace rejecto::serve {

struct PolicyInput {
  graph::NodeId sender = graph::kInvalidNode;
  // Caller-supplied logical timestamp (event index, request counter, or
  // coarse wall ticks); the unit the token bucket refills in. The serving
  // layer never reads wall clocks on the decision path, so replays are
  // deterministic.
  std::uint64_t logical_time = 0;
  const PublishedEpoch& epoch;
  // The score half of the decision, before the chain ran.
  const Decision& base;
};

class AdmissionPolicy {
 public:
  virtual ~AdmissionPolicy() = default;
  virtual const char* Name() const noexcept = 0;
  // Returns the policy's verdict for this request; the chain combines via
  // max(incoming, returned). Must be thread-safe and lock-free.
  virtual Verdict Evaluate(const PolicyInput& in, Verdict incoming) = 0;
};

// Per-sender token bucket on logical time: each sender holds `capacity`
// tokens, refilled at `refill_per_tick` per logical tick; a request costs
// one token, and an empty bucket escalates the verdict to `on_limit`. This
// is the classic request-rate limiter in front of the scorer — a flooding
// spammer exhausts its bucket long before an epoch confirms it.
struct TokenBucketConfig {
  double capacity = 20.0;        // burst budget, tokens (max 65535)
  double refill_per_tick = 1.0;  // tokens per logical-time tick, finite
  Verdict on_limit = Verdict::kGrey;
  // Size of the per-sender state table; senders with ids past it pass
  // through unlimited (size it to the id space, which never remaps).
  graph::NodeId num_senders = 0;
};

class TokenBucketPolicy final : public AdmissionPolicy {
 public:
  // Throws std::invalid_argument for a capacity outside [1, 65535] or a
  // refill_per_tick that is negative, NaN or infinite.
  explicit TokenBucketPolicy(const TokenBucketConfig& config);

  const char* Name() const noexcept override { return "token_bucket"; }
  Verdict Evaluate(const PolicyInput& in, Verdict incoming) override;

  // Tokens currently held by `sender` (stats/tests; racy under load).
  double Tokens(graph::NodeId sender) const;

 private:
  TokenBucketConfig config_;
  // Packed per-sender state: (last_tick:u32 << 32) | tokens in 16.16 fixed
  // point — one CAS word, so concurrent readers serving DIFFERENT senders
  // never touch the same cache line's worth of mutex, and queries for the
  // same sender linearize through the CAS. A request that would write back
  // the word it read (a sender already limited within its tick) skips the
  // CAS, so a flooding sender's line is only read, not bounced between
  // readers. Logical time is truncated to
  // u32; refill deltas use wrapping u32 arithmetic, so runs shorter than
  // 2^31 ticks between a sender's consecutive requests are exact.
  std::vector<std::atomic<std::uint64_t>> state_;
};

// Escalates to `verdict` every sender whose id tests true in `flagged` —
// the "operator blocklist" layer (e.g. the previous epoch's confirmed
// spammers, or an external abuse feed). Immutable after construction.
class StaticListPolicy final : public AdmissionPolicy {
 public:
  StaticListPolicy(std::vector<char> flagged, Verdict verdict);

  const char* Name() const noexcept override { return "static_list"; }
  Verdict Evaluate(const PolicyInput& in, Verdict incoming) override;

 private:
  std::vector<char> flagged_;
  Verdict verdict_;
};

}  // namespace rejecto::serve
