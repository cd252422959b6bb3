// Shared pieces of the end-to-end benchmark: run options, the metric
// report, correctness gates, input generation and measurement helpers.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "detect/iterative.h"
#include "detect/seeds.h"
#include "engine/epoch_detector.h"
#include "serve/published_epoch.h"
#include "sim/scenario.h"
#include "stream/mutation_log.h"
#include "trace.h"
#include "util/rng.h"

namespace rejecto::e2e {

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 0.0;  // length of the timed phase; --seconds is required
  bool trace = false;
  std::string out_json;    // the run record
  std::string trace_json;  // the spans (traced runs only)
  std::string tmp_dir;     // snapshot and WAL files; removed by the caller
  int threads = 1;         // nproc: detection pool width
  int readers = 2;         // admit_live reader threads
};

// A failed correctness gate. The run then prints no metrics and exits
// non-zero.
struct GateFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};
void Gate(bool ok, const std::string& what);

class Report {
 public:
  // kEndToEnd: the metrics BENCHMARK.json gates, reported by every workload.
  // kDetail: the workload's own user-visible numbers, kept in the run
  // record; compare.py also compares the few in its DETAIL table.
  // kLayer: per-layer numbers of a traced run.
  enum class Kind { kEndToEnd, kDetail, kLayer };

  struct Metric {
    Kind kind;
    std::string name;
    double value;
    std::string unit;
  };

  void Add(Kind kind, const std::string& name, double value,
           const std::string& unit) {
    metrics_.push_back({kind, name, value, unit});
  }
  void Config(const std::string& key, const std::string& value) {
    config_.emplace_back(key, '"' + value + '"');
  }
  void Config(const std::string& key, double value);
  void Note(const std::string& line) { notes_.push_back(line); }

  const std::vector<Metric>& Metrics() const { return metrics_; }
  const std::vector<std::pair<std::string, std::string>>& ConfigEntries()
      const {
    return config_;
  }
  const std::vector<std::string>& Notes() const { return notes_; }

  // Operations the timed phase attempted, and those that threw or were
  // refused.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> config_;  // raw JSON
  std::vector<std::string> notes_;
};

using WorkloadFn = void (*)(const Options&, Report&);
void RunBatchRam(const Options& opt, Report& rep);
void RunBatchOoc(const Options& opt, Report& rep);
void RunIngestEpochs(const Options& opt, Report& rep);
void RunAdmitLive(const Options& opt, Report& rep);

// ---- inputs ----

// The §VI-A paper attack overlaid on a Holme–Kim legit graph.
struct AttackSpec {
  graph::NodeId users = 20'000;
  double edges_per_node = 8.0;
  double triad = 0.5;
  graph::NodeId fakes = 2'000;
  // Fig-14 self-rejection whitewash (0 = off).
  graph::NodeId whitewashed = 0;
  double self_rejection_rate = 0.0;
  graph::NodeId legit_seeds = 100;
  graph::NodeId spammer_seeds = 30;
};

struct Attack {
  sim::Scenario scenario;
  detect::Seeds seeds;
};

// Deterministic in (spec, seed).
Attack MakeAttack(const AttackSpec& spec, std::uint64_t seed);
// Frees the generator output (graph and request log) once a workload has
// taken what it needs.
void FreeScenario(sim::Scenario& s);
void RecordAttackConfig(const AttackSpec& spec, Report& rep);

// Detection settings shared by every workload: defaults except the target,
// the seed and the pool width.
detect::IterativeConfig DetectorConfig(std::uint64_t seed,
                                       std::uint64_t target, int threads);

double Precision(const std::vector<char>& is_fake,
                 const std::vector<graph::NodeId>& detected);

// ---- measurement ----

double Median(std::vector<double> v);
// Linear-interpolated quantile, q in [0, 1]. Empty input gives 0.
double Quantile(std::vector<double> v, double q);

// Nanosecond latencies in one-nanosecond buckets (and an overflow list), so
// quantiles are exact and interpolated within the bucket.
class NsHistogram {
 public:
  void Record(std::int64_t ns) {
    if (ns < 0) ns = 0;
    if (ns < kBuckets) {
      counts_[static_cast<std::size_t>(ns)] += 1;
    } else {
      overflow_.push_back(ns);
    }
    ++total_;
  }
  void Merge(const NsHistogram& o);
  std::uint64_t Count() const { return total_; }
  double Quantile(double q) const;

 private:
  static constexpr std::int64_t kBuckets = 1 << 16;
  std::vector<std::uint64_t> counts_ = std::vector<std::uint64_t>(kBuckets);
  std::vector<std::int64_t> overflow_;
  std::uint64_t total_ = 0;
};

// How far resident memory rose over a phase: Begin() frees what the
// allocator holds, resets the kernel's high-water mark (VmHWM) and reads the
// resident size; GrowthMb() is the high-water mark since the last reset less
// that size. Inputs the benchmark allocated before Begin() do not count.
class MemoryPhase {
 public:
  void Begin();
  // Frees what the allocator holds and resets the high-water mark, keeping
  // Begin()'s resident size as the base.
  void ResetPeak();
  double GrowthMb() const;

 private:
  double start_mb_ = 0.0;
};

// Process CPU time (user + system), seconds.
double CpuSeconds();

double SecondsSince(std::int64_t start_ns);

// Senders of admission requests: Zipf(s) over [0, n) mapped through one
// fixed random permutation of ids, so the same accounts stay hot.
inline constexpr double kSenderZipf = 1.0;
class ZipfSenders {
 public:
  ZipfSenders(graph::NodeId n, double s, std::uint64_t seed);
  graph::NodeId Next(util::Rng& rng) const;

 private:
  std::vector<double> cdf_;
  std::vector<graph::NodeId> perm_;
};

// ---- the layer ladder ----
//
// Every traced run measures the same layers on its own workload's inputs,
// so each per-layer metric exists on every workload: the graph layer
// (snapshot save, open and block decode), a traced detection, the serial
// stream pipeline and the serving primitives. Which end-to-end metric a
// layer can move on which workload is in README.md.

// Graph-layer probes on `g`, plus RequestLog::BuildAugmentedGraph of
// `requests`.
void GraphLayers(const sim::RequestLog& requests,
                 const graph::AugmentedGraph& g, const std::string& tmp_dir,
                 Report& rep);

// An untraced detection: its wall time and detected set.
struct Untraced {
  double seconds = 0.0;
  std::vector<graph::NodeId> detected;
};

// One traced DetectFriendSpammers on `g`, through the MaarRunner overload
// with a span per Solve and per KL run, checked against an untraced run of
// the same detection (run here, before and after the traced one, when
// `untraced` is null). Reports the detect.* layers and trace.overhead, the
// traced ÷ untraced wall time.
void DetectLayers(const graph::AugmentedGraph& g, const detect::Seeds& seeds,
                  const detect::IterativeConfig& cfg, int threads,
                  const Untraced* untraced, Report& rep);

// A base graph plus events, replayed through the streaming engine.
struct StreamSpec {
  graph::AugmentedGraph base;
  std::vector<stream::Event> events;
  engine::EpochConfig epoch;
  // Cut an epoch on the base before the first event (the admission service
  // does this when set-up calls ForceEpoch).
  bool epoch_on_base = false;
};

// The events replayed on one thread through WalWriter::Append (Sync every
// 4096 records) and engine::EpochDetector, in 256-event chunks, with epochs
// where the service cuts them and a final epoch after the last event. This
// is the service's pipeline with nothing overlapped, and the serial replay
// its concurrent runs are checked against.
struct SerialRun {
  graph::AugmentedGraph final_graph;
  detect::DetectionResult final_result;
  // Index = epoch id, [0] the bootstrap epoch; filled when asked for.
  std::vector<std::shared_ptr<const serve::PublishedEpoch>> epochs;
  std::uint64_t events = 0;
  std::uint64_t noop = 0;
  std::uint64_t compactions = 0;
  std::uint64_t kl_runs = 0;
  std::uint64_t warm_epochs = 0;
  // The detector's own timings of its pre-epoch compactions and of each
  // epoch's RunEpochDetection call.
  double compact_s = 0.0;
  std::vector<double> epoch_detect_s;
  double wall_s = 0.0;
  std::uint64_t span = 0;  // its engine.serial_pipeline span, when traced
};
SerialRun RunSerialPipeline(const StreamSpec& spec, const detect::Seeds& seeds,
                            const std::string& wal_dir, bool capture_epochs);
// The stream.* and engine.* layers of a traced serial run, from its own
// spans among `spans`.
void StreamLayers(const SerialRun& run, const std::vector<trace::Record>& spans,
                  Report& rep);

// Scores in [0, kGreyMargin) grey instead of admitting.
inline constexpr double kGreyMargin = 2.0;

// The serving primitives, timed in batches of 64 calls against `epoch`.
void ServeLayers(std::shared_ptr<const serve::PublishedEpoch> epoch,
                 std::uint64_t seed, Report& rep);

}  // namespace rejecto::e2e
