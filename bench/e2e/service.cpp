// Service workloads on serve::AdmissionService.
//
//   ingest_epochs  request outcomes in, a fresh detection epoch out: the
//                  writes-only path (MPSC ring -> WAL -> DeltaGraph ->
//                  snapshot cut -> warm RunEpochDetection -> RCU publish)
//                  with no readers. Phase A submits closed loop (ingest
//                  throughput); phase B submits open loop at a fixed rate
//                  (freshness: an event's due time to the publication of
//                  the first epoch that holds it).
//   admit_live     a friend request in, a verdict out, beside live ingest:
//                  two reader threads decide at a reference rate, then at
//                  an overload rate, while the second half of a stream
//                  arrives open loop and epochs publish underneath them.
//
// How long a stream takes to detect is a property of its attack instance:
// two instances of the same size and settings differ by up to 2x in epoch
// detection time, with the same KL run count. So every run draws several
// instances from its seed and spreads its timed phase over all of them.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "e2e.h"
#include "graph/builder.h"
#include "serve/admission.h"
#include "serve/policy.h"
#include "sim/stream_feed.h"
#include "util/thread_pool.h"

namespace rejecto::e2e {
namespace {

using Kind = Report::Kind;

constexpr std::uint64_t kEventsPerEpoch = 32'768;
constexpr std::uint64_t kWalSyncEvery = 4'096;
constexpr std::int64_t kTickNs = 1'000'000;  // reader pacing tick

void SleepUntil(std::int64_t t_ns) {
  const std::int64_t now = trace::NowNs();
  if (now < t_ns) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(t_ns - now));
  }
}

// One attack instance as a churned event stream (duplicates, reorders,
// response flips, removals), with the detector settings every service run
// shares.
struct ServiceInputs {
  AttackSpec spec;
  stream::MutationLog log;
  detect::Seeds seeds;
  std::vector<char> is_fake;
  sim::RequestLog requests;  // kept for the traced graph probes
  engine::EpochConfig epoch;
};

ServiceInputs MakeServiceInputs(std::uint64_t seed, const Options& opt,
                                bool keep_requests) {
  ServiceInputs in;
  in.spec.users = 10'000;
  in.spec.fakes = 1'000;
  Attack attack = MakeAttack(in.spec, seed);
  sim::ChurnConfig churn;
  churn.seed = seed + 3;
  in.log = sim::GenerateChurnLog(attack.scenario.log, churn);
  in.seeds = std::move(attack.seeds);
  in.is_fake = std::move(attack.scenario.is_fake);
  if (keep_requests) in.requests = std::move(attack.scenario.log);
  FreeScenario(attack.scenario);
  in.epoch.detect = DetectorConfig(seed, in.spec.fakes, opt.threads);
  // Readers score against the round-0 cut, so epochs detect one round;
  // further rounds would swing each epoch's cost with the instance.
  in.epoch.detect.max_rounds = 1;
  in.epoch.events_per_epoch = kEventsPerEpoch;
  return in;
}

// `count` instances, the first drawn from the run's seed itself and the
// rest from seeds it generates, built in parallel on the detection pool's
// width.
std::vector<ServiceInputs> MakeInstances(std::size_t count,
                                         const Options& opt) {
  util::Rng seed_rng(opt.seed);
  util::ThreadPool pool(static_cast<std::size_t>(opt.threads));
  std::vector<std::future<ServiceInputs>> futures;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t seed = i == 0 ? opt.seed : seed_rng();
    const bool keep_requests = opt.trace && i == 0;
    futures.push_back(pool.Submit([seed, &opt, keep_requests] {
      return MakeServiceInputs(seed, opt, keep_requests);
    }));
  }
  std::vector<ServiceInputs> out;
  for (auto& f : futures) out.push_back(f.get());
  return out;
}

void RecordServiceConfig(const std::vector<ServiceInputs>& ins, Report& rep) {
  RecordAttackConfig(ins[0].spec, rep);
  rep.Config("instances", static_cast<double>(ins.size()));
  rep.Config("max_rounds", ins[0].epoch.detect.max_rounds);
  rep.Config("events_per_epoch", static_cast<double>(kEventsPerEpoch));
  double events = 0.0;
  for (const ServiceInputs& in : ins) {
    events += static_cast<double>(in.log.NumEvents());
  }
  rep.Config("events_per_instance_mean",
             events / static_cast<double>(ins.size()));
}

// A stream replayed into an empty base graph.
StreamSpec FullStream(const ServiceInputs& in) {
  StreamSpec stream;
  stream.base = graph::GraphBuilder(in.log.NumNodes()).BuildAugmented();
  stream.events.assign(in.log.Events().begin(), in.log.Events().end());
  stream.epoch = in.epoch;
  return stream;
}

// Epoch publications as a watcher thread saw them: the events each epoch
// holds and when it was first seen. Polls every 200 us.
class EpochWatcher {
 public:
  struct Seen {
    std::uint64_t events;
    std::int64_t t_ns;
  };

  explicit EpochWatcher(const serve::AdmissionService& svc)
      : svc_(svc), last_(svc.PublishedEpochId()), thread_([this] { Loop(); }) {}
  ~EpochWatcher() { Stop(); }
  EpochWatcher(const EpochWatcher&) = delete;
  EpochWatcher& operator=(const EpochWatcher&) = delete;

  std::vector<Seen> Stop() {
    if (thread_.joinable()) {
      stop_.store(true, std::memory_order_release);
      thread_.join();
    }
    return seen_;
  }

 private:
  void Loop() {
    while (!stop_.load(std::memory_order_acquire)) {
      if (svc_.PublishedEpochId() != last_) {
        const std::int64_t t = trace::NowNs();
        const auto epoch = svc_.CurrentEpoch();
        seen_.push_back({epoch->events_ingested, t});
        last_ = epoch->epoch_id;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  const serve::AdmissionService& svc_;
  std::uint64_t last_;
  std::atomic<bool> stop_{false};
  std::vector<Seen> seen_;
  std::thread thread_;  // last: starts after the members it reads
};

// Per event i, due at t0 + i * interval: the time from its due time to the
// first published epoch that holds it. `closing` is the closing
// ForceEpoch's publication, which holds every event.
std::vector<double> Freshness(std::vector<EpochWatcher::Seen> seen,
                              EpochWatcher::Seen closing, std::uint64_t n,
                              std::int64_t t0, double interval_ns) {
  seen.push_back(closing);
  std::vector<double> out;
  out.reserve(n);
  std::uint64_t i = 0;
  for (const auto& s : seen) {
    for (; i < std::min(s.events, n); ++i) {
      const double due =
          static_cast<double>(t0) + static_cast<double>(i) * interval_ns;
      out.push_back((static_cast<double>(s.t_ns) - due) * 1e-9);
    }
  }
  return out;
}

struct OpenLoop {
  std::uint64_t refused = 0;
  double late_max_s = 0.0;
};

// Submits event i at t0 + i * interval whatever the service's state. A
// refused TrySubmit is counted and the event then blocks into the ring.
OpenLoop SubmitOpenLoop(serve::AdmissionService& svc,
                        std::span<const stream::Event> events, std::int64_t t0,
                        double interval_ns) {
  OpenLoop out;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto due =
        t0 + static_cast<std::int64_t>(static_cast<double>(i) * interval_ns);
    SleepUntil(due);
    out.late_max_s = std::max(out.late_max_s, SecondsSince(due));
    if (!svc.TrySubmit(events[i])) {
      ++out.refused;
      svc.Submit(events[i]);
    }
  }
  return out;
}

// Checks a service's final epoch against the batch build of its stream
// and returns the epoch's precision.
double CheckFinalEpoch(const ServiceInputs& in,
                       const serve::PublishedEpoch& last) {
  Gate(*last.graph == in.log.BuildAugmentedGraph(),
       "the served graph differs from MutationLog::BuildAugmentedGraph");
  const double precision = Precision(in.is_fake, last.detected);
  Gate(precision >= 0.95, "precision below 0.95");
  return precision;
}

// Checks a service's final epoch against the serial replay of its stream.
void CheckSerialReplay(const serve::PublishedEpoch& last,
                       const SerialRun& serial) {
  Gate(*last.graph == serial.final_graph,
       "the served graph differs from the serial replay");
  Gate(last.detected == serial.final_result.detected,
       "the final epoch differs from the serial replay");
  Gate(!serial.final_result.rounds.empty(), "the final epoch has no rounds");
}

double Mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

// A service workload's end-to-end metrics.
struct ServiceResult {
  double setup_s = 0.0;
  double latency_p50_s = 0.0;
  double tail_s = 0.0;
  double throughput = 0.0;
  double growth_mb = 0.0;
  double precision = 0.0;
  double maar_ratio = 0.0;
};

void ServiceEndToEnd(const ServiceResult& r, Report& rep) {
  rep.Add(Kind::kEndToEnd, "setup_s", r.setup_s, "s");
  rep.Add(Kind::kEndToEnd, "latency_p50_ms", r.latency_p50_s * 1e3, "ms");
  rep.Add(Kind::kEndToEnd, "latency_tail_ms", r.tail_s * 1e3, "ms");
  rep.Add(Kind::kEndToEnd, "throughput_per_s", r.throughput, "1/s");
  rep.Add(Kind::kEndToEnd, "peak_rss_mb", r.growth_mb, "MB");
  rep.Add(Kind::kEndToEnd, "precision", r.precision, "ratio");
  rep.Add(Kind::kEndToEnd, "maar_ratio", r.maar_ratio, "ratio");
}

// The ladder rungs both service workloads share, on the final graph.
void ServiceLadder(const Options& opt, const ServiceInputs& in,
                   const SerialRun& serial,
                   std::shared_ptr<const serve::PublishedEpoch> last,
                   Report& rep) {
  StreamLayers(serial, trace::Collect(), rep);
  GraphLayers(in.requests, serial.final_graph, opt.tmp_dir, rep);
  DetectLayers(serial.final_graph, in.seeds, in.epoch.detect, opt.threads,
               nullptr, rep);
  ServeLayers(std::move(last), opt.seed, rep);
}

}  // namespace

void RunIngestEpochs(const Options& opt, Report& rep) {
  constexpr std::size_t kStreams = 12;
  constexpr double kRate = 100'000.0;  // phase B events/s
  const std::vector<ServiceInputs> ins = MakeInstances(kStreams, opt);
  std::vector<StreamSpec> streams;
  for (const ServiceInputs& in : ins) streams.push_back(FullStream(in));
  RecordServiceConfig(ins, rep);
  rep.Config("wal.sync_every_n", static_cast<double>(kWalSyncEvery));
  rep.Config("phase_b_events_per_s", kRate);

  serve::AdmissionConfig cfg;
  cfg.wal.sync_every_n = kWalSyncEvery;

  std::vector<double> setups;
  std::vector<double> fresh_p50;
  std::vector<double> fresh_p99;
  std::vector<double> yields_per_epoch;
  std::vector<double> snapshot_per_epoch;
  std::vector<double> growth_mb;
  std::vector<std::shared_ptr<const serve::PublishedEpoch>> last(kStreams);
  OpenLoop open;
  std::uint64_t a_events = 0;
  std::uint64_t b_events = 0;
  std::size_t fresh_samples = 0;
  double a_wall = 0.0;
  double cpu_s = 0.0;
  int replays = 0;

  // One replay of stream i into a fresh service with an empty base.
  const auto replay = [&](std::size_t i, bool open_loop) {
    const StreamSpec& stream = streams[i];
    const std::uint64_t n = stream.events.size();
    const std::string wal_dir =
        opt.tmp_dir + "/wal-" + std::to_string(replays++);
    std::filesystem::create_directories(wal_dir);
    cfg.epoch = stream.epoch;
    cfg.wal_path = wal_dir + "/segment";
    graph::AugmentedGraph base = stream.base;
    MemoryPhase mem;
    mem.Begin();
    const std::int64_t t_setup = trace::NowNs();
    auto svc = std::make_unique<serve::AdmissionService>(std::move(base),
                                                         ins[i].seeds, cfg);
    setups.push_back(SecondsSince(t_setup));
    if (open_loop) {
      EpochWatcher watcher(*svc);
      const std::int64_t t0 = trace::NowNs() + kTickNs;
      const double interval = 1e9 / kRate;
      const OpenLoop sub = SubmitOpenLoop(*svc, stream.events, t0, interval);
      open.refused += sub.refused;
      open.late_max_s = std::max(open.late_max_s, sub.late_max_s);
      svc->ForceEpoch();
      const EpochWatcher::Seen closing{n, trace::NowNs()};
      // Read before the freshness samples, which are the benchmark's own.
      growth_mb.push_back(mem.GrowthMb());
      const auto f = Freshness(watcher.Stop(), closing, n, t0, interval);
      fresh_p50.push_back(Median(f));
      fresh_p99.push_back(Quantile(f, 0.99));
      fresh_samples += f.size();
      b_events += n;
    } else {
      const double cpu0 = CpuSeconds();
      const std::int64_t t0 = trace::NowNs();
      for (const stream::Event& e : stream.events) svc->Submit(e);
      svc->ForceEpoch();
      a_wall += SecondsSince(t0);
      growth_mb.push_back(mem.GrowthMb());
      a_events += n;
      cpu_s += CpuSeconds() - cpu0;
    }
    rep.attempted += n;
    const serve::AdmissionStats stats = svc->Stats();
    const double epochs = static_cast<double>(stats.epochs_published);
    yields_per_epoch.push_back(static_cast<double>(stats.backpressure_yields) /
                               epochs);
    snapshot_per_epoch.push_back(stats.snapshot_seconds_total / epochs);
    const auto epoch = svc->CurrentEpoch();
    Gate(last[i] == nullptr || epoch->detected == last[i]->detected,
         "the final epoch differs between replays");
    last[i] = epoch;
    svc.reset();
    std::filesystem::remove_all(wal_dir);
  };

  // Phase A: closed-loop replays, cycling through the streams, for half the
  // phase and at least once per stream.
  const std::int64_t phase_a = trace::NowNs();
  std::size_t a_replays = 0;
  while (a_replays < kStreams || SecondsSince(phase_a) < opt.seconds / 2) {
    replay(a_replays++ % kStreams, false);
  }
  // Phase B: a replay takes n / kRate seconds; as many whole replays as fit
  // in the other half of the phase, at least two, each of its own stream.
  const double replay_s =
      static_cast<double>(streams[0].events.size()) / kRate;
  const std::size_t b_replays = std::clamp<std::size_t>(
      static_cast<std::size_t>(opt.seconds / 2 / replay_s), 2, kStreams);
  for (std::size_t r = 0; r < b_replays; ++r) replay(r, true);
  rep.failed = open.refused;

  ServiceResult res;
  res.setup_s = Median(setups);
  res.throughput = static_cast<double>(a_events) / a_wall;
  res.growth_mb = Median(growth_mb);
  // Per-replay quantiles, averaged: a quantile of the pooled events would
  // follow whichever stream is slowest.
  res.latency_p50_s = Mean(fresh_p50);
  res.tail_s = Mean(fresh_p99);
  for (std::size_t i = 0; i < kStreams; ++i) {
    res.precision += CheckFinalEpoch(ins[i], *last[i]) / kStreams;
  }
  // The first stream's serial replay: the determinism check, and its round-0
  // ratio.
  const SerialRun serial = RunSerialPipeline(
      streams[0], ins[0].seeds, opt.tmp_dir + "/wal-serial", false);
  CheckSerialReplay(*last[0], serial);
  res.maar_ratio = serial.final_result.rounds.front().ratio;
  ServiceEndToEnd(res, rep);
  rep.Add(Kind::kDetail, "epoch_kl_runs", static_cast<double>(serial.kl_runs),
          "count");
  rep.Add(Kind::kDetail, "ingest_eps", res.throughput, "events/s");
  rep.Add(Kind::kDetail, "fresh_p50_s", res.latency_p50_s, "s");
  rep.Add(Kind::kDetail, "fresh_p99_s", res.tail_s, "s");
  rep.Add(Kind::kDetail, "fresh_samples", static_cast<double>(fresh_samples),
          "count");
  rep.Add(Kind::kDetail, "phase_a_replays", static_cast<double>(a_replays),
          "count");
  rep.Add(Kind::kDetail, "phase_b_replays", static_cast<double>(b_replays),
          "count");
  rep.Add(Kind::kDetail, "fail_frac",
          static_cast<double>(rep.failed) / static_cast<double>(rep.attempted),
          "ratio");

  if (!opt.trace) return;
  // One more closed-loop replay of the first stream with every Submit
  // timed: the concurrent wall its serial pipeline is compared against.
  NsHistogram submit;
  double concurrent_s = 0.0;
  {
    cfg.epoch = streams[0].epoch;
    cfg.wal_path = opt.tmp_dir + "/wal-traced/segment";
    std::filesystem::create_directories(opt.tmp_dir + "/wal-traced");
    serve::AdmissionService svc(streams[0].base, ins[0].seeds, cfg);
    const std::int64_t t0 = trace::NowNs();
    for (const stream::Event& e : streams[0].events) {
      const std::int64_t a = trace::NowNs();
      svc.Submit(e);
      submit.Record(trace::NowNs() - a);
    }
    svc.ForceEpoch();
    concurrent_s = SecondsSince(t0);
  }
  std::filesystem::remove_all(opt.tmp_dir + "/wal-traced");
  rep.Add(Kind::kLayer, "serve.AdmissionService.Submit.ns_p50",
          submit.Quantile(0.5), "ns");
  rep.Add(Kind::kLayer, "serve.AdmissionService.Submit.ns_p99",
          submit.Quantile(0.99), "ns");
  rep.Add(Kind::kLayer, "serve.AdmissionService.TrySubmit.refused_frac",
          static_cast<double>(open.refused) / static_cast<double>(b_events),
          "ratio");
  rep.Add(Kind::kLayer,
          "serve.AdmissionService.Stats.backpressure_yields_per_epoch",
          Median(yields_per_epoch), "count");
  rep.Add(Kind::kLayer, "serve.AdmissionService.Stats.snapshot_s_per_epoch",
          Median(snapshot_per_epoch), "s");
  rep.Add(Kind::kLayer, "serve.process.cpu_cores", cpu_s / a_wall, "cores");
  rep.Add(Kind::kLayer, "serve.overlap_gain", serial.wall_s / concurrent_s,
          "ratio");
  rep.Add(Kind::kLayer, "serve.gen.late_ms_max", open.late_max_s * 1e3, "ms");
  ServiceLadder(opt, ins[0], serial, last[0], rep);
}

namespace {

constexpr double kRefRate = 2e6;  // decisions/s over all readers
// Beyond what the readers complete, so the completed rate is their
// capacity rather than the offered rate.
constexpr double kOverRate = 16e6;

struct Sampled {
  graph::NodeId sender;
  serve::Decision decision;
};

// One reader thread's pacing and results. Tick t of the window is due at
// t0 + t ms and asks for `per_tick_ref` decisions before t_mid and
// `per_tick_over` after; a reader that falls behind runs the due ticks back
// to back (open loop), and its lateness is how far a tick finished past its
// end. The overload level outruns every reader, so its backlog is dropped
// at t_end.
struct ReaderPlan {
  std::int64_t t0 = 0;
  std::int64_t t_mid = 0;
  std::int64_t t_end = 0;
  int per_tick_ref = 0;
  int per_tick_over = 0;
};

// Every 64th decision a reader makes is kept for the oracle, up to this
// many.
constexpr std::size_t kMaxSamples = 1 << 13;

struct ReaderOut {
  NsHistogram decide;  // reference level, each Decide call timed
  std::uint64_t over_decisions = 0;
  std::uint64_t missed_ticks = 0;
  std::int64_t over_end = 0;
  double late_max_s = 0.0;
  std::uint64_t escalated = 0;
  std::uint64_t decisions = 0;
  std::vector<Sampled> samples;  // every 64th decision, for the oracle
};

void ReaderLoop(serve::AdmissionService::Reader& rd,
                const std::vector<graph::NodeId>& senders,
                const ReaderPlan& plan, ReaderOut& out) {
  const std::size_t mask = senders.size() - 1;
  std::size_t k = 0;
  for (std::int64_t next = plan.t0; next < plan.t_end; next += kTickNs) {
    SleepUntil(next);
    const auto tick = static_cast<std::uint64_t>((next - plan.t0) / kTickNs);
    const bool ref = next < plan.t_mid;
    const int quota = ref ? plan.per_tick_ref : plan.per_tick_over;
    for (int q = 0; q < quota; ++q) {
      const graph::NodeId s = senders[k++ & mask];
      serve::Decision d;
      if (ref) {
        const std::int64_t a = trace::NowNs();
        d = rd.Decide(s, tick);
        out.decide.Record(trace::NowNs() - a);
      } else {
        d = rd.Decide(s, tick);
      }
      if ((k & 63) == 0 && out.samples.size() < kMaxSamples) {
        out.samples.push_back({s, d});
      }
    }
    const std::int64_t done = trace::NowNs();
    if (ref) {
      if (done > next + kTickNs) {
        ++out.missed_ticks;
        const double late = static_cast<double>(done - next - kTickNs) * 1e-9;
        out.late_max_s = std::max(out.late_max_s, late);
      }
    } else {
      out.over_decisions += quota;
      out.over_end = done;
      if (done >= plan.t_end) break;
    }
  }
  out.escalated = rd.Escalated();
  out.decisions = rd.Decisions();
}

// Everything one admit_live session measured and checked.
struct Session {
  double setup_s = 0.0;
  double force_s = 0.0;
  NsHistogram decide;  // reference level
  std::uint64_t over_decisions = 0;
  double over_s = 0.0;
  std::uint64_t missed_ticks = 0;
  double late_max_s = 0.0;
  std::uint64_t escalated = 0;
  std::uint64_t decisions = 0;
  std::uint64_t events = 0;
  std::uint64_t refused = 0;
  double fresh_p50_s = 0.0;
  double fresh_p99_s = 0.0;
  double growth_mb = 0.0;
  double cpu_s = 0.0;
  double window_s = 0.0;
  std::uint64_t fakes = 0;
  std::uint64_t fake_blocked = 0;
  std::uint64_t legit = 0;
  std::uint64_t legit_admitted = 0;
  double precision = 0.0;
  double maar_ratio = 0.0;
  std::uint64_t checked = 0;
  std::uint64_t epochs = 0;
  std::uint64_t epoch_kl_runs = 0;
  // Traced runs, first session only: the quiet decisions and what the
  // ladder needs.
  NsHistogram quiet;
  std::unique_ptr<SerialRun> serial;
  std::shared_ptr<const serve::PublishedEpoch> last;
};

// One session on one instance: the base is the first half of its stream,
// built in one batch, with one ForceEpoch in set-up so decisions score
// against a real baseline from the start; the second half streams open
// loop, spread evenly over the window, while the readers decide at the
// reference rate for the first half of the window and at the overload rate
// for the second.
Session RunSession(const Options& opt, const ServiceInputs& in,
                   std::uint64_t session_seed, double window_s, bool keep) {
  Session out;
  const int num_readers = opt.readers;
  StreamSpec stream;
  {
    const auto events = in.log.Events();
    const std::size_t half = events.size() / 2;
    stream::MutationLog base(in.log.NumNodes());
    for (std::size_t i = 0; i < half; ++i) base.Append(events[i]);
    stream.base = base.BuildAugmentedGraph();
    stream.events.assign(events.begin() + half, events.end());
  }
  stream.epoch = in.epoch;
  stream.epoch_on_base = true;
  const std::uint64_t n = stream.events.size();
  const double interval = window_s * 1e9 / static_cast<double>(n);

  serve::AdmissionConfig cfg;
  cfg.epoch = in.epoch;
  cfg.grey_margin = kGreyMargin;
  serve::TokenBucketConfig tb;
  tb.capacity = 20.0;
  tb.refill_per_tick = 1.0;
  tb.on_limit = serve::Verdict::kGrey;
  tb.num_senders = in.log.NumNodes();

  constexpr std::size_t kSendersPerReader = 1 << 20;
  std::vector<std::vector<graph::NodeId>> senders(num_readers);
  {
    const ZipfSenders zipf(in.log.NumNodes(), kSenderZipf, session_seed + 5);
    for (int r = 0; r < num_readers; ++r) {
      util::Rng rng(session_seed + 100 + r);
      senders[r].resize(kSendersPerReader);
      for (std::size_t i = 0; i < kSendersPerReader; ++i) {
        senders[r][i] = zipf.Next(rng);
      }
    }
  }

  // Set-up: construction plus the first ForceEpoch.
  graph::AugmentedGraph base = stream.base;
  const std::int64_t t_setup = trace::NowNs();
  auto svc = std::make_unique<serve::AdmissionService>(std::move(base),
                                                       in.seeds, cfg);
  svc->AddPolicy(std::make_unique<serve::TokenBucketPolicy>(tb));
  const std::int64_t t_force = trace::NowNs();
  svc->ForceEpoch();
  out.setup_s = SecondsSince(t_setup);
  out.force_s = SecondsSince(t_force);

  // The readers' buffers are the benchmark's own: allocated before memory
  // is measured.
  std::vector<ReaderOut> outs(num_readers);
  for (ReaderOut& o : outs) o.samples.reserve(kMaxSamples);
  MemoryPhase mem;
  mem.Begin();
  ReaderPlan plan;
  plan.t0 = trace::NowNs() + 20 * kTickNs;
  plan.t_mid = plan.t0 + static_cast<std::int64_t>(window_s * 0.5e9);
  plan.t_end = plan.t0 + static_cast<std::int64_t>(window_s * 1e9);
  plan.per_tick_ref = static_cast<int>(kRefRate / num_readers / 1000);
  plan.per_tick_over = static_cast<int>(kOverRate / num_readers / 1000);
  OpenLoop sub;
  std::vector<EpochWatcher::Seen> seen;
  {
    std::vector<serve::AdmissionService::Reader> readers;
    for (int r = 0; r < num_readers; ++r) {
      readers.push_back(svc->CreateReader());
    }
    EpochWatcher watcher(*svc);
    const double cpu0 = CpuSeconds();
    std::vector<std::thread> threads;
    for (int r = 0; r < num_readers; ++r) {
      threads.emplace_back([&, r] {
        ReaderLoop(readers[r], senders[r], plan, outs[r]);
      });
    }
    sub = SubmitOpenLoop(*svc, stream.events, plan.t0, interval);
    for (std::thread& t : threads) t.join();
    out.cpu_s = CpuSeconds() - cpu0;
    seen = watcher.Stop();
  }
  out.window_s = SecondsSince(plan.t0);
  svc->ForceEpoch();
  const EpochWatcher::Seen closing{n, trace::NowNs()};
  out.growth_mb = mem.GrowthMb();
  const std::vector<double> fresh =
      Freshness(seen, closing, n, plan.t0, interval);
  out.fresh_p50_s = Median(fresh);
  out.fresh_p99_s = Quantile(fresh, 0.99);
  out.events = n;
  out.refused = sub.refused;

  std::int64_t over_end = plan.t_mid;
  for (const ReaderOut& o : outs) {
    out.decide.Merge(o.decide);
    out.over_decisions += o.over_decisions;
    out.missed_ticks += o.missed_ticks;
    out.escalated += o.escalated;
    out.decisions += o.decisions;
    out.late_max_s = std::max(out.late_max_s, o.late_max_s);
    over_end = std::max(over_end, o.over_end);
  }
  out.over_s = static_cast<double>(over_end - plan.t_mid) * 1e-9;

  // Audit sweep: one decision per account against the final epoch, with
  // every token bucket refilled.
  {
    auto auditor = svc->CreateReader();
    const std::uint64_t t =
        static_cast<std::uint64_t>(out.window_s * 1e3) + 1'000'000;
    for (graph::NodeId s = 0; s < in.log.NumNodes(); ++s) {
      const bool blocked =
          auditor.Decide(s, t).verdict != serve::Verdict::kAdmit;
      if (in.is_fake[s] != 0) {
        ++out.fakes;
        out.fake_blocked += blocked ? 1 : 0;
      } else {
        ++out.legit;
        out.legit_admitted += blocked ? 0 : 1;
      }
    }
  }

  // The determinism contract: the final graph equals the batch build and
  // the serial replay's, and every sampled concurrent decision is what the
  // serial replay's epoch of the same id decides.
  const auto last = svc->CurrentEpoch();
  out.precision = CheckFinalEpoch(in, *last);
  auto serial = std::make_unique<SerialRun>(RunSerialPipeline(
      stream, in.seeds, opt.tmp_dir + "/wal-serial", true));
  CheckSerialReplay(*last, *serial);
  for (const ReaderOut& o : outs) {
    for (const Sampled& s : o.samples) {
      Gate(s.decision.epoch_id < serial->epochs.size(),
           "a decision cites an epoch the serial replay never published");
      const serve::Decision expect = serve::DecideAgainst(
          *serial->epochs[s.decision.epoch_id], s.sender, kGreyMargin);
      const bool verdict_ok = s.decision.escalated
                                  ? s.decision.verdict > expect.verdict
                                  : s.decision.verdict == expect.verdict;
      Gate(s.decision.score == expect.score && verdict_ok,
           "a concurrent decision differs from the serial replay");
      ++out.checked;
    }
  }
  out.maar_ratio = serial->final_result.rounds.front().ratio;
  out.epochs = serial->epoch_detect_s.size();
  out.epoch_kl_runs = serial->kl_runs;

  if (keep) {
    // Decisions against the final epoch with no ingest running: live minus
    // quiet is the interference.
    auto reader = svc->CreateReader();
    for (std::size_t i = 0; i < senders[0].size(); ++i) {
      const std::int64_t a = trace::NowNs();
      reader.Decide(senders[0][i], i / 1000);
      out.quiet.Record(trace::NowNs() - a);
    }
    serial->epochs.clear();
    out.serial = std::move(serial);
    out.last = last;
  }
  return out;
}

}  // namespace

void RunAdmitLive(const Options& opt, Report& rep) {
  constexpr std::size_t kSessions = 4;
  const std::vector<ServiceInputs> ins = MakeInstances(kSessions, opt);
  RecordServiceConfig(ins, rep);
  const double window_s = opt.seconds / kSessions;
  rep.Config("readers", opt.readers);
  rep.Config("session_window_s", window_s);
  rep.Config("reference_decisions_per_s", kRefRate);
  rep.Config("overload_decisions_per_s", kOverRate);
  rep.Config("grey_margin", kGreyMargin);
  rep.Config("token_bucket", "capacity 20, refill 1 per 1 ms tick, grey");
  rep.Config("sender_zipf_exponent", kSenderZipf);

  std::vector<Session> sessions;
  for (std::size_t s = 0; s < kSessions; ++s) {
    sessions.push_back(RunSession(opt, ins[s], opt.seed + 1000 * s, window_s,
                                  opt.trace && s == 0));
  }

  // One field over the sessions: every value, or their sum.
  const auto each = [&](double Session::*field) {
    std::vector<double> v;
    for (const Session& s : sessions) v.push_back(s.*field);
    return v;
  };
  const auto total = [&](auto field) {
    std::remove_cvref_t<decltype(sessions.front().*field)> sum{};
    for (const Session& s : sessions) sum += s.*field;
    return sum;
  };
  NsHistogram decide;
  double late_max_s = 0.0;
  for (const Session& s : sessions) {
    decide.Merge(s.decide);
    late_max_s = std::max(late_max_s, s.late_max_s);
  }
  const std::uint64_t events = total(&Session::events);
  const std::uint64_t decisions = total(&Session::decisions);
  const std::uint64_t refused = total(&Session::refused);
  const double wall_s = total(&Session::window_s);
  const double capacity =
      static_cast<double>(total(&Session::over_decisions)) /
      total(&Session::over_s);
  rep.attempted = events + decisions;
  rep.failed = refused;
  const int per_tick_ref = static_cast<int>(kRefRate / opt.readers / 1000);

  const double fake_block = static_cast<double>(total(&Session::fake_blocked)) /
                            static_cast<double>(total(&Session::fakes));
  const double legit_admit =
      static_cast<double>(total(&Session::legit_admitted)) /
      static_cast<double>(total(&Session::legit));
  Gate(fake_block >= 0.6, "fake_block_frac below 0.6");
  Gate(legit_admit >= 0.95, "legit_admit_frac below 0.95");

  ServiceResult res;
  res.setup_s = Median(each(&Session::setup_s));
  res.latency_p50_s = decide.Quantile(0.5) * 1e-9;
  res.tail_s = decide.Quantile(0.99) * 1e-9;
  res.throughput = capacity;
  res.growth_mb = Median(each(&Session::growth_mb));
  res.precision = Mean(each(&Session::precision));
  res.maar_ratio = Mean(each(&Session::maar_ratio));
  ServiceEndToEnd(res, rep);
  rep.Add(Kind::kDetail, "decide_p50_ns", decide.Quantile(0.5), "ns");
  rep.Add(Kind::kDetail, "decide_p99_ns", decide.Quantile(0.99), "ns");
  rep.Add(Kind::kDetail, "decide_samples", static_cast<double>(decide.Count()),
          "count");
  rep.Add(Kind::kDetail, "decide_capacity_rps", capacity, "decisions/s");
  rep.Add(Kind::kDetail, "fresh_p50_s", Mean(each(&Session::fresh_p50_s)),
          "s");
  rep.Add(Kind::kDetail, "fresh_p99_s", Mean(each(&Session::fresh_p99_s)),
          "s");
  rep.Add(Kind::kDetail, "fake_block_frac", fake_block, "ratio");
  rep.Add(Kind::kDetail, "legit_admit_frac", legit_admit, "ratio");
  rep.Add(Kind::kDetail, "fail_frac",
          static_cast<double>(refused) / static_cast<double>(rep.attempted),
          "ratio");
  // Not failures: decisions that all completed, in a tick that ended late.
  // Their share ranges from under 1% to over 20% between runs, with how the
  // detection pool's bursts land on the cores the readers need.
  rep.Add(Kind::kDetail, "late_tick_frac",
          static_cast<double>(total(&Session::missed_ticks) * per_tick_ref) /
              static_cast<double>(decide.Count()),
          "ratio");
  rep.Add(Kind::kDetail, "decisions_checked",
          static_cast<double>(total(&Session::checked)), "count");
  rep.Add(Kind::kDetail, "epochs", static_cast<double>(total(&Session::epochs)),
          "count");
  rep.Add(Kind::kDetail, "epoch_kl_runs",
          static_cast<double>(total(&Session::epoch_kl_runs)), "count");
  rep.Add(Kind::kDetail, "stream_events_per_s",
          static_cast<double>(events) / wall_s, "events/s");
  rep.Note("decide_p99_ns limit 2000: " +
           std::string(decide.Quantile(0.99) <= 2000 ? "met" : "EXCEEDED"));

  if (!opt.trace) return;
  const Session& first = sessions.front();
  rep.Add(Kind::kLayer, "serve.AdmissionService.ForceEpoch.s",
          Median(each(&Session::force_s)), "s");
  rep.Add(Kind::kLayer, "serve.AdmissionService.TrySubmit.refused_frac",
          static_cast<double>(refused) / static_cast<double>(events), "ratio");
  rep.Add(Kind::kLayer, "serve.Reader.Decide.quiet_ns_p50",
          first.quiet.Quantile(0.5), "ns");
  rep.Add(Kind::kLayer, "serve.Reader.Decide.quiet_ns_p99",
          first.quiet.Quantile(0.99), "ns");
  rep.Add(Kind::kLayer, "serve.Reader.escalated_frac",
          static_cast<double>(total(&Session::escalated)) /
              static_cast<double>(decisions),
          "ratio");
  rep.Add(Kind::kLayer, "serve.process.cpu_cores",
          total(&Session::cpu_s) / wall_s, "cores");
  rep.Add(Kind::kLayer, "serve.gen.late_ms_max", late_max_s * 1e3, "ms");
  ServiceLadder(opt, ins[0], *first.serial, first.last, rep);
}

}  // namespace rejecto::e2e
