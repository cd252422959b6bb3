#include "util/failpoint.h"

#include <atomic>
#include <charconv>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

#include "util/flags.h"
#include "util/rng.h"

namespace rejecto::util {

namespace {

std::uint64_t ParseCount(std::string_view text, std::string_view what) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size() || value == 0) {
    throw std::invalid_argument("FailpointPolicy: bad " + std::string(what) +
                                " count '" + std::string(text) + "'");
  }
  return value;
}

}  // namespace

FailpointPolicy FailpointPolicy::Parse(std::string_view text) {
  if (text == "off") return Off();
  const auto colon = text.find(':');
  const std::string_view head = text.substr(0, colon);
  const std::string_view rest =
      colon == std::string_view::npos ? std::string_view{}
                                      : text.substr(colon + 1);
  if (head == "on") return OnNth(ParseCount(rest, "on"));
  if (head == "every") return EveryNth(ParseCount(rest, "every"));
  if (head == "p") {
    const auto colon2 = rest.find(':');
    const std::string prob(rest.substr(0, colon2));
    std::size_t used = 0;
    double p = -1.0;
    try {
      p = std::stod(prob, &used);
    } catch (...) {
      // fall through to the range check below
    }
    if (used != prob.size() || p < 0.0 || p > 1.0) {
      throw std::invalid_argument("FailpointPolicy: bad probability '" +
                                  prob + "'");
    }
    std::uint64_t seed = 42;
    if (colon2 != std::string_view::npos) {
      seed = ParseCount(rest.substr(colon2 + 1), "seed");
    }
    return Probability(p, seed);
  }
  throw std::invalid_argument("FailpointPolicy: unknown policy '" +
                              std::string(text) + "'");
}

struct Failpoints::Impl {
  struct Site {
    FailpointPolicy policy;
    std::uint64_t hits = 0;
    std::uint64_t fires = 0;
    Xoshiro256 rng{42};
  };

  // Fast path: when no site is armed, ShouldFail is one relaxed load.
  std::atomic<std::size_t> armed{0};
  mutable std::mutex mu;
  std::unordered_map<std::string, Site> sites;
};

Failpoints::Failpoints() : impl_(new Impl) {
  if (const auto spec = FailpointSpec()) {
    ArmFromSpec(*spec);
  }
}

Failpoints& Failpoints::Instance() {
  static Failpoints* instance = new Failpoints();  // intentionally leaked
  return *instance;
}

void Failpoints::Arm(const std::string& site, const FailpointPolicy& policy) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  Impl::Site s;
  s.policy = policy;
  s.rng = Xoshiro256(policy.seed);
  impl_->sites.insert_or_assign(site, s);
  impl_->armed.store(impl_->sites.size(), std::memory_order_release);
}

void Failpoints::Disarm(const std::string& site) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->sites.erase(site);
  impl_->armed.store(impl_->sites.size(), std::memory_order_release);
}

void Failpoints::DisarmAll() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->sites.clear();
  impl_->armed.store(0, std::memory_order_release);
}

void Failpoints::ArmFromSpec(const std::string& spec) {
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t semi = spec.find(';', pos);
    const std::string_view segment =
        std::string_view(spec).substr(
            pos, semi == std::string::npos ? std::string::npos : semi - pos);
    pos = semi == std::string::npos ? spec.size() + 1 : semi + 1;
    if (segment.empty()) continue;
    const std::size_t eq = segment.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      throw std::invalid_argument(
          "Failpoints: malformed spec segment '" + std::string(segment) +
          "' (want site=policy)");
    }
    Arm(std::string(segment.substr(0, eq)),
        FailpointPolicy::Parse(segment.substr(eq + 1)));
  }
}

bool Failpoints::ShouldFail(std::string_view site) {
  if (impl_->armed.load(std::memory_order_acquire) == 0) return false;
  std::lock_guard<std::mutex> lock(impl_->mu);
  // Transparent lookup would need a heterogeneous hash; armed evaluation is
  // off the hot path, so a temporary string is fine.
  const auto it = impl_->sites.find(std::string(site));
  if (it == impl_->sites.end()) return false;
  Impl::Site& s = it->second;
  ++s.hits;
  bool fire = false;
  switch (s.policy.kind) {
    case FailpointPolicy::Kind::kOff:
      break;
    case FailpointPolicy::Kind::kOnNth:
      fire = s.hits == s.policy.n;
      break;
    case FailpointPolicy::Kind::kEveryNth:
      fire = s.hits % s.policy.n == 0;
      break;
    case FailpointPolicy::Kind::kProbability:
      fire = static_cast<double>(s.rng() >> 11) * 0x1.0p-53 < s.policy.p;
      break;
  }
  if (fire) ++s.fires;
  return fire;
}

std::uint64_t Failpoints::Hits(const std::string& site) const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  const auto it = impl_->sites.find(site);
  return it == impl_->sites.end() ? 0 : it->second.hits;
}

std::uint64_t Failpoints::Fires(const std::string& site) const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  const auto it = impl_->sites.find(site);
  return it == impl_->sites.end() ? 0 : it->second.fires;
}

}  // namespace rejecto::util
