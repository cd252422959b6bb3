// Deterministic fault-injection framework.
//
// Every IO and worker boundary in the repository names a *failpoint site*
// ("wal/append_write", "engine/fetch_shard", ...) and asks the process-wide
// registry whether an injected failure should fire there. Sites are inert
// until armed — the unarmed fast path is one relaxed atomic load, so
// production code pays nothing measurable for carrying the hooks.
//
// A site is armed with a trigger policy:
//   off          never fires (counts hits only)
//   on:N         fires exactly on the Nth evaluation (1-based), once
//   every:N      fires on every Nth evaluation (N, 2N, 3N, ...)
//   p:P[:seed]   fires with probability P per evaluation, from a per-site
//                xoshiro stream seeded with `seed` (default 42) — the same
//                arming always yields the same firing sequence, so fault
//                tests are bit-reproducible
//
// Arming happens programmatically (tests: Arm / ScopedFailpoint) or from
// the environment: REJECTO_FAILPOINTS="site=policy;site=policy" (read by
// util::FailpointSpec) is parsed once on first registry use, e.g.
//   REJECTO_FAILPOINTS="wal/sync=on:3;engine/fetch_shard=p:0.1:7"
//
// What "fires" means is up to the call site: WAL appends tear the record,
// loaders throw, shard fetches fail the attempt. The registry only decides
// *when*, deterministically.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace rejecto::util {

struct FailpointPolicy {
  enum class Kind : std::uint8_t { kOff, kOnNth, kEveryNth, kProbability };

  Kind kind = Kind::kOff;
  std::uint64_t n = 0;       // kOnNth / kEveryNth
  double p = 0.0;            // kProbability
  std::uint64_t seed = 42;   // kProbability

  static FailpointPolicy Off() { return {}; }
  static FailpointPolicy OnNth(std::uint64_t nth) {
    return {Kind::kOnNth, nth, 0.0, 0};
  }
  static FailpointPolicy EveryNth(std::uint64_t nth) {
    return {Kind::kEveryNth, nth, 0.0, 0};
  }
  static FailpointPolicy Probability(double p, std::uint64_t seed = 42) {
    return {Kind::kProbability, 0, p, seed};
  }

  // Parses one policy ("on:3", "every:10", "p:0.1:7", "off"); throws
  // std::invalid_argument on anything else.
  static FailpointPolicy Parse(std::string_view text);
};

class Failpoints {
 public:
  // Process-wide registry; arms from REJECTO_FAILPOINTS on first use.
  static Failpoints& Instance();

  // (Re)arms `site`, resetting its hit/fire counters and RNG stream.
  void Arm(const std::string& site, const FailpointPolicy& policy);
  void Disarm(const std::string& site);
  void DisarmAll();

  // Parses and arms a "site=policy;site=policy" spec (empty segments are
  // ignored). Throws std::invalid_argument on malformed input.
  void ArmFromSpec(const std::string& spec);

  // Evaluates the site. Unarmed sites return false without locking or
  // counting. Armed sites count the hit and report whether the policy
  // fires on it. Thread-safe; evaluation order at a site defines its "Nth".
  bool ShouldFail(std::string_view site);

  // Counters for armed sites (0 for unarmed ones).
  std::uint64_t Hits(const std::string& site) const;
  std::uint64_t Fires(const std::string& site) const;

 private:
  Failpoints();
  struct Impl;
  Impl* impl_;  // leaked singleton state; never destroyed
};

// RAII arming for tests: arms in the constructor, disarms in the
// destructor (even when the test body throws).
class ScopedFailpoint {
 public:
  ScopedFailpoint(std::string site, const FailpointPolicy& policy)
      : site_(std::move(site)) {
    Failpoints::Instance().Arm(site_, policy);
  }
  ~ScopedFailpoint() { Failpoints::Instance().Disarm(site_); }

  ScopedFailpoint(const ScopedFailpoint&) = delete;
  ScopedFailpoint& operator=(const ScopedFailpoint&) = delete;

 private:
  std::string site_;
};

}  // namespace rejecto::util
