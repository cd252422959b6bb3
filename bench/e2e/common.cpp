#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string>

#include "e2e.h"
#include "gen/holme_kim.h"
#include "metrics/classification.h"
#include "trace.h"

namespace rejecto::e2e {

void Gate(bool ok, const std::string& what) {
  if (!ok) throw GateFailure(what);
}

void Report::Config(const std::string& key, double value) {
  std::ostringstream os;
  os.precision(17);
  os << value;
  config_.emplace_back(key, os.str());
}

Attack MakeAttack(const AttackSpec& spec, std::uint64_t seed) {
  util::Rng rng(seed);
  const graph::SocialGraph legit = gen::HolmeKim(
      {.num_nodes = spec.users,
       .edges_per_node = spec.edges_per_node,
       .triad_probability = spec.triad},
      rng);
  // ScenarioConfig's defaults are the §VI-A attack values.
  sim::ScenarioConfig cfg;
  cfg.seed = seed + 1;
  cfg.num_fakes = spec.fakes;
  cfg.whitewashed_fakes = spec.whitewashed;
  cfg.self_rejection_rate = spec.self_rejection_rate;
  Attack a{sim::BuildScenario(legit, cfg), {}};
  util::Rng seed_rng(seed + 2);
  a.seeds = a.scenario.SampleSeeds(spec.legit_seeds, spec.spammer_seeds,
                                   seed_rng);
  return a;
}

void FreeScenario(sim::Scenario& s) {
  s.graph = graph::AugmentedGraph();
  s.log = sim::RequestLog();
  s.spamming_fakes = {};
}

void RecordAttackConfig(const AttackSpec& spec, Report& rep) {
  rep.Config("legit_users", spec.users);
  rep.Config("edges_per_node", spec.edges_per_node);
  rep.Config("triad_probability", spec.triad);
  rep.Config("fakes", spec.fakes);
  rep.Config("whitewashed_fakes", spec.whitewashed);
  rep.Config("self_rejection_rate", spec.self_rejection_rate);
  rep.Config("legit_seeds", spec.legit_seeds);
  rep.Config("spammer_seeds", spec.spammer_seeds);
}

detect::IterativeConfig DetectorConfig(std::uint64_t seed,
                                       std::uint64_t target, int threads) {
  detect::IterativeConfig cfg;
  cfg.target_detections = target;
  cfg.maar.seed = seed * 7919 + 13;
  cfg.maar.num_threads = threads;
  return cfg;
}

double Precision(const std::vector<char>& is_fake,
                 const std::vector<graph::NodeId>& detected) {
  return metrics::EvaluateDetection(is_fake, detected).Precision();
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos =
      std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

void NsHistogram::Merge(const NsHistogram& o) {
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += o.counts_[i];
  overflow_.insert(overflow_.end(), o.overflow_.begin(), o.overflow_.end());
  total_ += o.total_;
}

double NsHistogram::Quantile(double q) const {
  if (total_ == 0) return 0.0;
  // Rank of the quantile among the samples; within a one-nanosecond bucket
  // the samples are taken as spread evenly over [b - 0.5, b + 0.5).
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(total_);
  double seen = 0.0;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    const double c = static_cast<double>(counts_[b]);
    if (c > 0 && seen + c >= rank) {
      return static_cast<double>(b) - 0.5 + (rank - seen) / c;
    }
    seen += c;
  }
  std::vector<double> over(overflow_.begin(), overflow_.end());
  const double within = (rank - seen) / static_cast<double>(over.size());
  return e2e::Quantile(std::move(over), within);
}

namespace {

double StatusKb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::stod(line.substr(prefix.size()));
    }
  }
  return 0.0;
}

double RssMb() { return StatusKb("VmRSS") / 1024.0; }

}  // namespace

void MemoryPhase::Begin() {
  ResetPeak();
  start_mb_ = RssMb();
}

void MemoryPhase::ResetPeak() {
  malloc_trim(0);
  // Writing 5 resets VmHWM to the current RSS.
  std::ofstream("/proc/self/clear_refs") << "5";
}

double MemoryPhase::GrowthMb() const {
  return StatusKb("VmHWM") / 1024.0 - start_mb_;
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double SecondsSince(std::int64_t start_ns) {
  return static_cast<double>(trace::NowNs() - start_ns) * 1e-9;
}

ZipfSenders::ZipfSenders(graph::NodeId n, double s, std::uint64_t seed)
    : cdf_(n), perm_(n) {
  double sum = 0.0;
  for (graph::NodeId i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) c /= sum;
  for (graph::NodeId i = 0; i < n; ++i) perm_[i] = i;
  util::Rng rng(seed);
  rng.Shuffle(perm_);
}

graph::NodeId ZipfSenders::Next(util::Rng& rng) const {
  const double u = rng.NextDouble();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  const auto rank = std::min<std::size_t>(
      static_cast<std::size_t>(it - cdf_.begin()), perm_.size() - 1);
  return perm_[rank];
}

}  // namespace rejecto::e2e
