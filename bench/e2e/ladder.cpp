// The layer ladder every traced run measures on its own inputs (e2e.h).
#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "detect/extended_kl.h"
#include "detect/incremental.h"
#include "detect/maar.h"
#include "e2e.h"
#include "graph/compressed_view.h"
#include "graph/snapshot.h"
#include "serve/policy.h"
#include "serve/rcu.h"
#include "stream/wal.h"
#include "util/buffer.h"
#include "util/thread_pool.h"

namespace rejecto::e2e {
namespace {

using Kind = Report::Kind;

constexpr std::size_t kChunk = 256;        // events per serial-pipeline span
constexpr std::uint64_t kSyncEvery = 4096;  // WAL records per fsync

// Results of the timed serving calls are summed into this, so no call can
// be dropped as unused.
volatile double g_sink = 0.0;

// Durations of the spans called `name` that are children of span `parent`.
std::vector<double> Durations(const std::vector<trace::Record>& spans,
                              const std::string& name, std::uint64_t parent) {
  std::vector<double> out;
  for (const trace::Record& r : spans) {
    if (r.parent == parent && name == r.name) {
      out.push_back(static_cast<double>(r.end_ns - r.start_ns) * 1e-9);
    }
  }
  return out;
}

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

// A KL runner that records one span per ExtendedKl call, under the Solve
// span that issued it, with the run's passes and switches as work.
detect::MaarSolver::KlRunner TracedKl(std::uint64_t solve_span) {
  return [solve_span](const graph::AugmentedGraph& g,
                      const std::vector<char>& init,
                      const std::vector<char>& locked,
                      const detect::KlConfig& kl, detect::KlScratch* scratch) {
    trace::Span span("detect.ExtendedKl", solve_span);
    detect::KlResult r = detect::ExtendedKl(g, init, locked, kl, scratch);
    span.SetWork(static_cast<std::uint64_t>(r.stats.passes),
                 r.stats.switches_applied);
    return r;
  };
}

// Times `fn(i)` in batches of 64 calls; returns the median ns per call.
template <typename Fn>
double NsPerCall(std::size_t calls, Fn&& fn) {
  constexpr std::size_t kBatch = 64;
  std::vector<double> per_call;
  per_call.reserve(calls / kBatch);
  for (std::size_t b = 0; b + kBatch <= calls; b += kBatch) {
    const std::int64_t t0 = trace::NowNs();
    for (std::size_t i = b; i < b + kBatch; ++i) fn(i);
    per_call.push_back(static_cast<double>(trace::NowNs() - t0) / kBatch);
  }
  return Median(std::move(per_call));
}

}  // namespace

void GraphLayers(const sim::RequestLog& requests,
                 const graph::AugmentedGraph& g, const std::string& tmp_dir,
                 Report& rep) {
  std::vector<double> build_s;
  for (int i = 0; i < 3; ++i) {
    trace::Span span("sim.RequestLog.BuildAugmentedGraph");
    const std::int64_t t0 = trace::NowNs();
    const graph::AugmentedGraph built = requests.BuildAugmentedGraph();
    build_s.push_back(SecondsSince(t0));
  }

  const std::string path = tmp_dir + "/ladder.rjsnap02";
  graph::SnapshotOptions snap;
  snap.format = graph::SnapshotFormat::kRjsnap02;
  snap.block_rows = 128;
  std::vector<double> save_s;
  std::vector<double> open_s;
  std::unique_ptr<graph::CompressedGraphView> view;
  for (int i = 0; i < 3; ++i) {
    std::int64_t t0 = trace::NowNs();
    {
      trace::Span span("graph.SaveSnapshot");
      graph::SaveSnapshot(path, g, graph::Layout{}, snap);
    }
    save_s.push_back(SecondsSince(t0));
    t0 = trace::NowNs();
    {
      trace::Span span("graph.CompressedGraphView.Open");
      view = std::make_unique<graph::CompressedGraphView>(
          graph::CompressedGraphView::Open(path));
    }
    open_s.push_back(SecondsSince(t0));
  }

  // A serial scan of all three CSRs through the block decoder; MB/s counts
  // the decoded row offsets and adjacency.
  std::uint64_t blocks = 0;
  std::uint64_t bytes = 0;
  const std::int64_t t0 = trace::NowNs();
  {
    trace::Span span("graph.CompressedGraphView.DecodeBlockInto");
    util::AlignedVector<std::uint32_t> offsets;
    util::AlignedVector<graph::NodeId> adj;
    for (int csr = 0; csr < 3; ++csr) {
      for (graph::NodeId b = 0; b < view->NumBlocks(); ++b) {
        view->DecodeBlockInto(csr, b, offsets, adj);
        bytes += adj.size() * sizeof(graph::NodeId) +
                 offsets.size() * sizeof(std::uint32_t);
        ++blocks;
      }
    }
    span.SetWork(blocks, bytes);
  }
  const double scan_s = SecondsSince(t0);
  view.reset();
  std::filesystem::remove(path);

  rep.Add(Kind::kLayer, "sim.RequestLog.BuildAugmentedGraph.s",
          Median(build_s), "s");
  rep.Add(Kind::kLayer, "graph.SaveSnapshot.rjsnap02_s", Median(save_s), "s");
  rep.Add(Kind::kLayer, "graph.CompressedGraphView.Open.s", Median(open_s),
          "s");
  rep.Add(Kind::kLayer, "graph.CompressedGraphView.DecodeBlockInto.mb_per_s",
          static_cast<double>(bytes) / (1 << 20) / scan_s, "MB/s");
  rep.Add(Kind::kLayer, "graph.CompressedGraphView.DecodeBlockInto.blocks",
          static_cast<double>(blocks), "count");
}

void DetectLayers(const graph::AugmentedGraph& g, const detect::Seeds& seeds,
                  const detect::IterativeConfig& cfg, int threads,
                  const Untraced* untraced, Report& rep) {
  // Without a reference, the untraced detection runs once to warm up (the
  // first run in a process also pays for first touches of memory), then
  // just before and just after the traced one; the reference is the mean of
  // those two.
  Untraced plain;
  const auto run_plain = [&] {
    const std::int64_t t0 = trace::NowNs();
    plain.detected = detect::DetectFriendSpammers(g, seeds, cfg).detected;
    return SecondsSince(t0);
  };
  const bool bracket = untraced == nullptr;
  if (bracket) {
    run_plain();
    plain.seconds = run_plain() / 2;
    untraced = &plain;
  }

  // The MaarRunner overload with the pool lambda the plain overload uses.
  auto pool =
      std::make_shared<util::ThreadPool>(static_cast<std::size_t>(threads));
  const std::int64_t t0 = trace::NowNs();
  detect::DetectionResult traced;
  {
    trace::Span whole("detect.DetectFriendSpammers");
    traced = detect::DetectFriendSpammers(
        g, seeds, cfg,
        [&pool](const graph::AugmentedGraph& residual, const detect::Seeds& s,
                const detect::MaarConfig& maar) {
          trace::Span solve("detect.MaarSolver.Solve");
          detect::MaarSolver solver(residual, s, maar, TracedKl(solve.Id()));
          return solver.Solve(pool.get());
        },
        pool.get());
  }
  const double traced_s = SecondsSince(t0);
  Gate(traced.detected == untraced->detected,
       "traced detection differs from the untraced one");
  if (bracket) plain.seconds += run_plain() / 2;

  const auto t = trace::Aggregate(trace::Collect());
  const trace::Totals whole = t.at("detect.DetectFriendSpammers");
  const trace::Totals solve = t.at("detect.MaarSolver.Solve");
  const trace::Totals kl = t.count("detect.ExtendedKl")
                               ? t.at("detect.ExtendedKl")
                               : trace::Totals{};
  rep.Add(Kind::kLayer, "detect.DetectFriendSpammers.wall_s", whole.wall_s,
          "s");
  rep.Add(Kind::kLayer, "detect.MaarSolver.Solve.wall_s", solve.wall_s, "s");
  rep.Add(Kind::kLayer, "detect.MaarSolver.Solve.calls",
          static_cast<double>(solve.calls), "count");
  rep.Add(Kind::kLayer, "detect.ExtendedKl.busy_s", kl.wall_s, "s");
  rep.Add(Kind::kLayer, "detect.ExtendedKl.calls",
          static_cast<double>(kl.calls), "count");
  rep.Add(Kind::kLayer, "detect.ExtendedKl.passes",
          static_cast<double>(kl.work[0]), "count");
  rep.Add(Kind::kLayer, "detect.ExtendedKl.switches",
          static_cast<double>(kl.work[1]), "count");
  rep.Add(Kind::kLayer, "detect.ExtendedKl.switches_per_s",
          kl.wall_s > 0 ? static_cast<double>(kl.work[1]) / kl.wall_s : 0.0,
          "1/s");
  rep.Add(Kind::kLayer, "detect.sweep.pool_util",
          kl.wall_s / (threads * solve.wall_s), "ratio");
  rep.Add(Kind::kLayer, "detect.iterative.self_s", whole.wall_s - solve.wall_s,
          "s");
  rep.Add(Kind::kLayer, "trace.overhead", traced_s / untraced->seconds,
          "ratio");
  Gate(kl.wall_s <= threads * solve.wall_s * 1.001,
       "trace: KL busy time exceeds threads x Solve wall");
}

SerialRun RunSerialPipeline(const StreamSpec& spec, const detect::Seeds& seeds,
                            const std::string& wal_dir, bool capture_epochs) {
  SerialRun run;
  std::filesystem::create_directories(wal_dir);
  const std::int64_t t0 = trace::NowNs();
  trace::Span whole("engine.serial_pipeline");
  run.span = whole.Id();
  stream::WalWriter wal(wal_dir + "/serial");
  engine::EpochDetector det(spec.base, seeds, spec.epoch);
  if (capture_epochs) {
    auto boot = std::make_shared<serve::PublishedEpoch>();
    boot->graph = std::make_shared<const graph::AugmentedGraph>(spec.base);
    run.epochs.push_back(std::move(boot));
  }
  // The epoch the detector just ran, as the service publishes it.
  const auto capture = [&] {
    if (!capture_epochs) return;
    auto pe = std::make_shared<serve::PublishedEpoch>();
    pe->epoch_id = run.epochs.size();
    pe->events_ingested = det.EventsIngested();
    pe->graph =
        std::make_shared<const graph::AugmentedGraph>(det.Graph().Graph());
    pe->has_baseline = det.HasIncrementalBaseline();
    if (pe->has_baseline) {
      pe->mask = det.IncrementalMask();
      pe->mask.resize(pe->graph->NumNodes(), 0);
      pe->k = det.IncrementalK();
    }
    pe->detected = det.LastResult().detected;
    run.epochs.push_back(std::move(pe));
  };

  if (spec.epoch_on_base) {
    {
      trace::Span span("engine.EpochDetector.RunEpoch");
      det.RunEpoch();
    }
    capture();
  }
  const std::uint64_t per_epoch = spec.epoch.events_per_epoch;
  std::uint64_t since_epoch = 0;
  const std::size_t n = spec.events.size();
  for (std::size_t i = 0; i < n;) {
    // A chunk never straddles an epoch boundary; the event that reaches one
    // runs the epoch inside Ingest and is timed as the epoch.
    std::size_t end = std::min(n, i + kChunk);
    if (per_epoch > 0) {
      end = std::min<std::size_t>(end, i + (per_epoch - since_epoch));
    }
    since_epoch += end - i;
    const bool cuts = per_epoch > 0 && since_epoch == per_epoch;
    {
      trace::Span span("stream.WalWriter.Append");
      for (std::size_t j = i; j < end; ++j) wal.Append(spec.events[j]);
    }
    if (end / kSyncEvery != i / kSyncEvery) {
      trace::Span span("stream.WalWriter.Sync");
      wal.Sync();
    }
    {
      trace::Span span("engine.EpochDetector.Ingest");
      for (std::size_t j = i; j < end - (cuts ? 1 : 0); ++j) {
        det.Ingest(spec.events[j]);
      }
    }
    if (cuts) {
      {
        trace::Span span("engine.EpochDetector.RunEpoch");
        Gate(det.Ingest(spec.events[end - 1]) != nullptr,
             "the serial replay did not cut an epoch where the service does");
      }
      capture();
      since_epoch = 0;
    }
    i = end;
  }
  {
    trace::Span span("stream.WalWriter.Sync");
    wal.Close();
  }
  {
    trace::Span span("engine.EpochDetector.RunEpoch");
    det.RunEpoch();  // the service's closing ForceEpoch
  }
  capture();
  for (const engine::EpochStats& e : det.History()) {
    run.compact_s += e.compact_seconds;
    run.epoch_detect_s.push_back(e.detect_seconds);
    run.kl_runs += e.total_kl_runs;
    run.warm_epochs += e.warm_started ? 1 : 0;
  }
  run.events = det.EventsIngested();
  run.noop = det.Graph().Stats().events_noop;
  run.compactions = det.Graph().Stats().compactions;
  run.final_graph = det.Graph().Graph();
  run.final_result = det.LastResult();
  run.wall_s = SecondsSince(t0);
  return run;
}

void StreamLayers(const SerialRun& run, const std::vector<trace::Record>& spans,
                  Report& rep) {
  const double events =
      static_cast<double>(std::max<std::uint64_t>(run.events, 1));
  double whole = 0.0;
  for (const trace::Record& r : spans) {
    if (r.id == run.span) {
      whole = static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
    }
  }
  const double append =
      Sum(Durations(spans, "stream.WalWriter.Append", run.span));
  const std::vector<double> syncs =
      Durations(spans, "stream.WalWriter.Sync", run.span);
  const double ingest =
      Sum(Durations(spans, "engine.EpochDetector.Ingest", run.span));
  const double epochs =
      Sum(Durations(spans, "engine.EpochDetector.RunEpoch", run.span));
  const auto num_epochs = static_cast<double>(run.epoch_detect_s.size());
  rep.Add(Kind::kLayer, "stream.WalWriter.Append.ns_per_event",
          append / events * 1e9, "ns");
  rep.Add(Kind::kLayer, "stream.WalWriter.Sync.ms_p50", Median(syncs) * 1e3,
          "ms");
  rep.Add(Kind::kLayer, "stream.WalWriter.Sync.calls",
          static_cast<double>(syncs.size()), "count");
  rep.Add(Kind::kLayer, "stream.DeltaGraph.Apply.ns_per_event",
          ingest / events * 1e9, "ns");
  rep.Add(Kind::kLayer, "stream.DeltaGraph.noop_frac",
          static_cast<double>(run.noop) / events, "ratio");
  rep.Add(Kind::kLayer, "stream.DeltaGraph.Compact.s", run.compact_s, "s");
  rep.Add(Kind::kLayer, "stream.DeltaGraph.compactions",
          static_cast<double>(run.compactions), "count");
  rep.Add(Kind::kLayer, "engine.RunEpochDetection.s_p50",
          Median(run.epoch_detect_s), "s");
  rep.Add(Kind::kLayer, "engine.RunEpochDetection.s_total",
          Sum(run.epoch_detect_s), "s");
  rep.Add(Kind::kLayer, "engine.RunEpochDetection.kl_runs",
          static_cast<double>(run.kl_runs), "count");
  rep.Add(Kind::kLayer, "engine.RunEpochDetection.warm_frac",
          static_cast<double>(run.warm_epochs) / num_epochs, "ratio");
  rep.Add(Kind::kLayer, "engine.serial_pipeline.wall_s", whole, "s");
  const double parts = append + Sum(syncs) + ingest + epochs;
  Gate(parts <= whole && parts >= 0.95 * whole,
       "trace: serial layers do not sum to the serial pipeline within 5%");
}

void ServeLayers(std::shared_ptr<const serve::PublishedEpoch> epoch,
                 std::uint64_t seed, Report& rep) {
  Gate(epoch->has_baseline, "the final epoch has no scoring baseline");
  constexpr std::size_t kCalls = 1 << 18;
  const graph::NodeId n = epoch->graph->NumNodes();
  const ZipfSenders zipf(n, kSenderZipf, seed + 11);
  util::Rng rng(seed + 13);
  std::vector<graph::NodeId> senders(kCalls);
  for (graph::NodeId& s : senders) s = zipf.Next(rng);

  double sink = 0.0;
  double decide_ns = 0.0;
  {
    trace::Span span("serve.DecideAgainst");
    decide_ns = NsPerCall(kCalls, [&](std::size_t i) {
      sink += serve::DecideAgainst(*epoch, senders[i], kGreyMargin).score;
    });
  }
  double score_ns = 0.0;
  {
    trace::Span span("detect.ScoreSenderIncremental");
    score_ns = NsPerCall(kCalls, [&](std::size_t i) {
      sink += detect::ScoreSenderIncremental(*epoch->graph, epoch->mask,
                                             epoch->k, senders[i])
                  .gain;
    });
  }
  double bucket_ns = 0.0;
  {
    trace::Span span("serve.TokenBucketPolicy.Evaluate");
    serve::TokenBucketConfig tb;
    tb.num_senders = n;
    serve::TokenBucketPolicy policy(tb);
    const serve::Decision base;
    bucket_ns = NsPerCall(kCalls, [&](std::size_t i) {
      const serve::PolicyInput in{senders[i], i / 1024, *epoch, base};
      sink += static_cast<double>(policy.Evaluate(in, serve::Verdict::kAdmit));
    });
  }
  double acquire_ns = 0.0;
  {
    trace::Span span("serve.RcuPtr.Acquire");
    serve::RcuPtr<serve::PublishedEpoch> rcu(serve::ReclaimMode::kHazard, 4);
    rcu.Publish(epoch);
    auto* slot = rcu.AcquireSlot();
    acquire_ns = NsPerCall(kCalls, [&](std::size_t) {
      const auto pin = rcu.Acquire(slot);
      sink += static_cast<double>(pin->epoch_id);
    });
    rcu.ReleaseSlot(slot);
  }
  g_sink = sink;

  rep.Add(Kind::kLayer, "serve.DecideAgainst.ns", decide_ns, "ns");
  rep.Add(Kind::kLayer, "detect.ScoreSenderIncremental.ns", score_ns, "ns");
  rep.Add(Kind::kLayer, "serve.TokenBucketPolicy.Evaluate.ns", bucket_ns, "ns");
  rep.Add(Kind::kLayer, "serve.RcuPtr.Acquire.ns", acquire_ns, "ns");
}

}  // namespace rejecto::e2e
