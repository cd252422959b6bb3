// serve::AdmissionService differential + policy-chain suite.
//
// The load-bearing invariant (ISSUE: concurrent admission): replaying the
// SAME interleaved trace serially (EpochDetector oracle) and concurrently
// (AdmissionService with 1/2/8 reader threads deciding mid-ingest) must
// produce (a) identical epoch content — the oracle's per-epoch baseline
// reproduces every published decision exactly, given the published-epoch id
// the decision carries — and (b) a final state bit-identical to the batch
// build of the event log. Decisions are pure functions of (epoch, sender),
// so the differential conditions on the epoch id rather than on scheduling.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "detect/incremental.h"
#include "detect/iterative.h"
#include "engine/epoch_detector.h"
#include "gen/erdos_renyi.h"
#include "graph/builder.h"
#include "serve/admission.h"
#include "serve/mpsc_queue.h"
#include "serve/policy.h"
#include "serve/published_epoch.h"
#include "sim/scenario.h"
#include "sim/stream_feed.h"
#include "stream/mutation_log.h"
#include "util/rng.h"

namespace rejecto {
namespace {

using serve::AdmissionConfig;
using serve::AdmissionService;
using serve::Decision;
using serve::PublishedEpoch;
using serve::Verdict;
using stream::MutationLog;

// ---------- MpscQueue ----------

TEST(MpscQueue, FifoAndWraparound) {
  serve::MpscQueue<int> q(4);
  EXPECT_EQ(q.Capacity(), 4u);
  int out = 0;
  EXPECT_FALSE(q.TryPop(out));
  for (int lap = 0; lap < 5; ++lap) {
    for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.TryPush(lap * 10 + i));
    EXPECT_FALSE(q.TryPush(99));  // full
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(q.TryPop(out));
      EXPECT_EQ(out, lap * 10 + i);
    }
    EXPECT_FALSE(q.TryPop(out));  // empty again
  }
}

TEST(MpscQueue, ConcurrentProducersDeliverEverySumOnce) {
  serve::MpscQueue<std::uint64_t> q(256);
  constexpr int kProducers = 4;
  constexpr std::uint64_t kPerProducer = 20'000;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        const std::uint64_t v = static_cast<std::uint64_t>(p) * kPerProducer
                                + i + 1;
        while (!q.TryPush(v)) std::this_thread::yield();
      }
    });
  }
  std::uint64_t sum = 0;
  std::uint64_t popped = 0;
  const std::uint64_t total = kProducers * kPerProducer;
  while (popped < total) {
    std::uint64_t v = 0;
    if (q.TryPop(v)) {
      sum += v;
      ++popped;
    } else {
      std::this_thread::yield();
    }
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(sum, total * (total + 1) / 2);
  std::uint64_t v = 0;
  EXPECT_FALSE(q.TryPop(v));
}

// Counts constructions, so a refused capacity can be shown to allocate no
// cell.
struct CountedCell {
  CountedCell() { ++constructed; }
  static inline std::size_t constructed = 0;
};

TEST(MpscQueue, RefusesOversizedCapacityBeforeAllocating) {
  constexpr std::size_t kMax = serve::MpscQueue<char>::kMaxCapacity;
  // SIZE_MAX used to round up forever: the doubling wrapped to 0.
  EXPECT_THROW(serve::MpscQueue<CountedCell>(SIZE_MAX), std::invalid_argument);
  EXPECT_THROW(serve::MpscQueue<CountedCell>(kMax + 1), std::invalid_argument);
  EXPECT_EQ(CountedCell::constructed, 0u);
  // The edge itself, and a non-power of two just below it, are accepted.
  EXPECT_EQ(serve::MpscQueue<char>(kMax).Capacity(), kMax);
  EXPECT_EQ(serve::MpscQueue<char>(kMax - 1).Capacity(), kMax);
}

// ---------- policy chain ----------

TEST(TokenBucketPolicy, BurstsExhaustAndRefill) {
  serve::TokenBucketConfig cfg;
  cfg.capacity = 2.0;
  cfg.refill_per_tick = 1.0;
  cfg.on_limit = Verdict::kGrey;
  cfg.num_senders = 4;
  serve::TokenBucketPolicy bucket(cfg);
  const PublishedEpoch epoch;
  const Decision base;
  const auto eval = [&](graph::NodeId s, std::uint64_t t) {
    return bucket.Evaluate({s, t, epoch, base}, Verdict::kAdmit);
  };
  // Burst of 3 at t=0: two tokens, then limited.
  EXPECT_EQ(eval(0, 0), Verdict::kAdmit);
  EXPECT_EQ(eval(0, 0), Verdict::kAdmit);
  EXPECT_EQ(eval(0, 0), Verdict::kGrey);
  // Another sender's bucket is untouched.
  EXPECT_EQ(eval(1, 0), Verdict::kAdmit);
  // One tick refills one token.
  EXPECT_EQ(eval(0, 1), Verdict::kAdmit);
  EXPECT_EQ(eval(0, 1), Verdict::kGrey);
  // A long gap refills to capacity, not beyond.
  EXPECT_EQ(eval(0, 1000), Verdict::kAdmit);
  EXPECT_EQ(eval(0, 1000), Verdict::kAdmit);
  EXPECT_EQ(eval(0, 1000), Verdict::kGrey);
  // Out-of-order logical time: treated as zero elapsed, never a refill.
  EXPECT_EQ(eval(0, 500), Verdict::kGrey);
  // Senders past the table pass through.
  EXPECT_EQ(eval(1000, 0), Verdict::kAdmit);
  // Escalation only: a kReject incoming verdict is never downgraded.
  EXPECT_EQ(bucket.Evaluate({0, 2000, epoch, base}, Verdict::kReject),
            Verdict::kReject);
}

// The bucket in plain double arithmetic: no packing, no fixed point, no
// atomics. Rates and capacities below are multiples of 2^-16, so 16.16 fixed
// point holds every value the model reaches exactly.
struct ReferenceBucket {
  double capacity = 0.0;
  double refill = 0.0;
  std::vector<std::uint64_t> last;
  std::vector<double> tokens;

  ReferenceBucket(double cap, double rate, std::size_t senders)
      : capacity(cap), refill(rate), last(senders, 0),
        tokens(senders, cap) {}

  // True when the request is limited.
  bool Request(graph::NodeId s, std::uint64_t now) {
    // An earlier tick than the last one seen refills nothing and leaves
    // the last tick where it was.
    if (now > last[s]) {
      tokens[s] = std::min(
          capacity, tokens[s] + static_cast<double>(now - last[s]) * refill);
      last[s] = now;
    }
    if (tokens[s] < 1.0) return true;
    tokens[s] -= 1.0;
    return false;
  }
};

TEST(TokenBucketPolicy, MatchesAReferenceModel) {
  constexpr graph::NodeId kSenders = 6;
  const PublishedEpoch epoch;
  const Decision base;
  util::Rng rng(77);
  std::uint64_t limited_seen = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const double capacity = 1.0 + static_cast<double>(rng.NextUInt(8)) +
                            (trial % 2 == 0 ? 0.5 : 0.0);
    const double rates[] = {0.0, 0.25, 0.5, 1.0, 3.0};
    const double rate = rates[rng.NextUInt(5)];
    serve::TokenBucketConfig cfg;
    cfg.capacity = capacity;
    cfg.refill_per_tick = rate;
    cfg.on_limit = Verdict::kGrey;
    cfg.num_senders = kSenders;
    serve::TokenBucketPolicy bucket(cfg);
    ReferenceBucket model(capacity, rate, kSenders);

    std::uint64_t now = 0;
    for (int step = 0; step < 400; ++step) {
      // Mostly same-tick repeats and small steps forward, sometimes a
      // jump back in time (out of order) or a long gap.
      const double roll = rng.NextDouble();
      std::uint64_t t = now;
      if (roll < 0.15) {
        t = now - std::min<std::uint64_t>(now, rng.NextUInt(6));
      } else if (roll < 0.45) {
        t = now + rng.NextUInt(3);
      } else if (roll < 0.5) {
        t = now + 10 + rng.NextUInt(50);
      }
      now = std::max(now, t);
      const auto s = static_cast<graph::NodeId>(rng.NextUInt(kSenders));
      const bool limited = model.Request(s, t);
      limited_seen += limited ? 1 : 0;
      ASSERT_EQ(bucket.Evaluate({s, t, epoch, base}, Verdict::kAdmit),
                limited ? Verdict::kGrey : Verdict::kAdmit)
          << "trial " << trial << " step " << step;
      for (graph::NodeId q = 0; q < kSenders; ++q) {
        ASSERT_EQ(bucket.Tokens(q), model.tokens[q])
            << "trial " << trial << " step " << step << " sender " << q;
      }
    }
  }
  EXPECT_GT(limited_seen, 0u);
}

// An infinite rate used to be accepted: a same-tick request refilled by
// 0 × inf = NaN, std::min(capacity, NaN) returned capacity, and the bucket
// never limited.
TEST(TokenBucketPolicy, RefusesNonFiniteOrNegativeRefill) {
  serve::TokenBucketConfig cfg;
  cfg.num_senders = 2;
  for (const double bad :
       {std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(), -1.0}) {
    cfg.refill_per_tick = bad;
    EXPECT_THROW(serve::TokenBucketPolicy{cfg}, std::invalid_argument)
        << bad;
  }
  cfg.refill_per_tick = std::numeric_limits<double>::max();
  serve::TokenBucketPolicy huge(cfg);
  const PublishedEpoch epoch;
  const Decision base;
  // The largest finite rate refills to capacity after one tick, and still
  // limits within a tick.
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(huge.Evaluate({0, 0, epoch, base}, Verdict::kAdmit),
              Verdict::kAdmit);
  }
  EXPECT_EQ(huge.Evaluate({0, 0, epoch, base}, Verdict::kAdmit),
            Verdict::kGrey);
  EXPECT_EQ(huge.Evaluate({0, 1, epoch, base}, Verdict::kAdmit),
            Verdict::kAdmit);
  EXPECT_EQ(huge.Tokens(0), 19.0);
}

TEST(StaticListPolicy, EscalatesFlaggedOnly) {
  serve::StaticListPolicy list({0, 1, 0}, Verdict::kReject);
  const PublishedEpoch epoch;
  const Decision base;
  EXPECT_EQ(list.Evaluate({0, 0, epoch, base}, Verdict::kAdmit),
            Verdict::kAdmit);
  EXPECT_EQ(list.Evaluate({1, 0, epoch, base}, Verdict::kAdmit),
            Verdict::kReject);
  EXPECT_EQ(list.Evaluate({1, 0, epoch, base}, Verdict::kGrey),
            Verdict::kReject);
  EXPECT_EQ(list.Evaluate({7, 0, epoch, base}, Verdict::kGrey),
            Verdict::kGrey);
}

// ---------- service workload ----------

struct Workload {
  MutationLog log;
  detect::Seeds seeds;
  graph::NodeId num_fakes = 0;
};

Workload MakeWorkload(std::uint64_t seed) {
  util::Rng rng(seed + 61);
  const auto legit =
      gen::ErdosRenyi({.num_nodes = 300, .num_edges = 1200}, rng);
  sim::ScenarioConfig cfg;
  cfg.seed = seed * 5 + 3;
  cfg.num_fakes = 60;
  const auto scenario = sim::BuildScenario(legit, cfg);
  util::Rng seed_rng(seed + 9);
  sim::ChurnConfig churn;
  churn.seed = seed + 29;
  return {sim::GenerateChurnLog(scenario.log, churn),
          scenario.SampleSeeds(15, 5, seed_rng), cfg.num_fakes};
}

engine::EpochConfig ServiceEpochConfig(const Workload& w) {
  engine::EpochConfig ecfg;
  ecfg.detect.target_detections = w.num_fakes;
  ecfg.detect.maar.seed = 23;
  ecfg.detect.maar.num_threads = 1;
  ecfg.warm_start = true;
  ecfg.events_per_epoch = w.log.NumEvents() / 4 + 1;
  return ecfg;
}

// The serial oracle: one EpochDetector replay of the trace, capturing the
// scoring baseline after every epoch. Index = published epoch id (0 is the
// bootstrap: no baseline, every sender admits).
std::vector<PublishedEpoch> BuildOracle(const Workload& w,
                                        const engine::EpochConfig& ecfg) {
  std::vector<PublishedEpoch> epochs;
  epochs.emplace_back();  // bootstrap: has_baseline = false
  engine::EpochDetector det(w.log.NumNodes(), w.seeds, ecfg);
  const auto capture = [&] {
    PublishedEpoch pe;
    pe.epoch_id = epochs.size();
    pe.graph =
        std::make_shared<const graph::AugmentedGraph>(det.Graph().Graph());
    pe.has_baseline = det.HasIncrementalBaseline();
    if (pe.has_baseline) {
      pe.mask = det.IncrementalMask();
      pe.mask.resize(pe.graph->NumNodes(), 0);
      pe.k = det.IncrementalK();
    }
    pe.detected = det.LastResult().detected;
    epochs.push_back(std::move(pe));
  };
  for (const stream::Event& e : w.log.Events()) {
    if (det.Ingest(e) != nullptr) capture();
  }
  det.RunEpoch();  // the trailing ForceEpoch
  capture();
  return epochs;
}

struct RecordedDecision {
  graph::NodeId sender = 0;
  Decision decision;
};

// Parameter: the number of concurrent reader threads.
class AdmissionDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(AdmissionDifferentialTest, ConcurrentDecisionsMatchSerialOracle) {
  const int num_readers = GetParam();
  const Workload w = MakeWorkload(1);
  const engine::EpochConfig ecfg = ServiceEpochConfig(w);
  const std::vector<PublishedEpoch> oracle = BuildOracle(w, ecfg);
  constexpr double kGreyMargin = 2.0;

  AdmissionConfig cfg;
  cfg.epoch = ecfg;
  cfg.grey_margin = kGreyMargin;
  AdmissionService svc(
      graph::GraphBuilder(w.log.NumNodes()).BuildAugmented(), w.seeds, cfg);

  std::atomic<bool> stop{false};
  std::vector<std::vector<RecordedDecision>> recorded(num_readers);
  std::vector<std::thread> readers;
  for (int r = 0; r < num_readers; ++r) {
    AdmissionService::Reader reader = svc.CreateReader();
    readers.emplace_back(
        [&stop, &recorded, r, n = w.log.NumNodes(),
         rd = std::move(reader)]() mutable {
          util::Rng rng(r * 7919 + 17);
          std::uint64_t t = 0;
          auto& out = recorded[r];
          out.reserve(1 << 14);
          while (!stop.load(std::memory_order_acquire)) {
            const auto sender =
                static_cast<graph::NodeId>(rng.NextUInt(n + 8));
            out.push_back({sender, rd.Decide(sender, t++)});
            if ((t & 63) == 0) std::this_thread::yield();  // 1-core box
            if (out.size() >= (1u << 16)) break;           // bound memory
          }
        });
  }

  for (const stream::Event& e : w.log.Events()) svc.Submit(e);
  svc.Drain();
  const std::uint64_t final_id = svc.ForceEpoch();
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  // Epoch ids and count match the oracle exactly.
  ASSERT_EQ(final_id + 1, oracle.size());
  const auto current = svc.CurrentEpoch();
  ASSERT_NE(current, nullptr);
  EXPECT_EQ(current->epoch_id, final_id);
  EXPECT_EQ(svc.Stats().epochs_published, final_id);

  // Final state bit-identical to the batch build, and the final epoch's
  // content bit-identical to the serial oracle's.
  EXPECT_EQ(*current->graph, w.log.BuildAugmentedGraph());
  EXPECT_EQ(*current->graph, *oracle.back().graph);
  EXPECT_EQ(current->detected, oracle.back().detected);
  EXPECT_EQ(current->mask, oracle.back().mask);
  EXPECT_EQ(current->k, oracle.back().k);

  // Every concurrent decision is reproduced by the oracle epoch it was
  // scored against — the divergence count must be exactly zero.
  std::uint64_t checked = 0;
  for (const auto& per_reader : recorded) {
    for (const RecordedDecision& rec : per_reader) {
      ASSERT_LT(rec.decision.epoch_id, oracle.size());
      const Decision expect = serve::DecideAgainst(
          oracle[rec.decision.epoch_id], rec.sender, kGreyMargin);
      ASSERT_EQ(rec.decision.verdict, expect.verdict)
          << "sender=" << rec.sender << " epoch=" << rec.decision.epoch_id;
      ASSERT_EQ(rec.decision.score, expect.score)
          << "sender=" << rec.sender << " epoch=" << rec.decision.epoch_id;
      EXPECT_FALSE(rec.decision.escalated);  // no policies in this service
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

INSTANTIATE_TEST_SUITE_P(ReaderWidths, AdmissionDifferentialTest,
                         ::testing::Values(1, 2, 8));

// With warm starts off and a single forced epoch, the published detection
// must be EXACTLY the batch pipeline's on the final graph.
TEST(AdmissionService, ColdForcedEpochEqualsBatchDetection) {
  const Workload w = MakeWorkload(2);
  engine::EpochConfig ecfg = ServiceEpochConfig(w);
  ecfg.warm_start = false;
  ecfg.events_per_epoch = 0;  // ForceEpoch only

  AdmissionConfig cfg;
  cfg.epoch = ecfg;
  AdmissionService svc(
      graph::GraphBuilder(w.log.NumNodes()).BuildAugmented(), w.seeds, cfg);
  for (const stream::Event& e : w.log.Events()) svc.Submit(e);
  const std::uint64_t id = svc.ForceEpoch();
  EXPECT_EQ(id, 1u);

  const graph::AugmentedGraph batch_graph = w.log.BuildAugmentedGraph();
  const auto batch =
      detect::DetectFriendSpammers(batch_graph, w.seeds, ecfg.detect);
  const auto epoch = svc.CurrentEpoch();
  ASSERT_NE(epoch, nullptr);
  EXPECT_EQ(*epoch->graph, batch_graph);
  EXPECT_EQ(epoch->detected, batch.detected);
  ASSERT_TRUE(epoch->has_baseline);
  ASSERT_FALSE(batch.rounds.empty());
  EXPECT_EQ(epoch->k, batch.rounds.front().k);
}

TEST(AdmissionService, BootstrapAdmitsEverythingAndChainEscalates) {
  // Tiny empty graph, no events: only the bootstrap epoch exists.
  AdmissionConfig cfg;
  cfg.epoch.events_per_epoch = 0;
  AdmissionService svc(graph::GraphBuilder(16).BuildAugmented(),
                       detect::Seeds{}, cfg);
  serve::TokenBucketConfig tb;
  tb.capacity = 1.0;
  tb.refill_per_tick = 0.0;  // never refills: second request always greys
  tb.num_senders = 16;
  svc.AddPolicy(std::make_unique<serve::TokenBucketPolicy>(tb));
  svc.AddPolicy(std::make_unique<serve::StaticListPolicy>(
      std::vector<char>{0, 0, 0, 1}, Verdict::kReject));

  auto reader = svc.CreateReader();
  // The chain freezes once a reader exists.
  EXPECT_THROW(svc.AddPolicy(std::make_unique<serve::StaticListPolicy>(
                   std::vector<char>{1}, Verdict::kGrey)),
               std::logic_error);

  const Decision first = reader.Decide(0, 0);
  EXPECT_EQ(first.verdict, Verdict::kAdmit);
  EXPECT_EQ(first.epoch_id, 0u);
  EXPECT_EQ(first.score, 0.0);
  EXPECT_FALSE(first.escalated);

  const Decision limited = reader.Decide(0, 0);  // bucket is empty now
  EXPECT_EQ(limited.verdict, Verdict::kGrey);
  EXPECT_TRUE(limited.escalated);

  const Decision listed = reader.Decide(3, 0);  // blocklisted sender
  EXPECT_EQ(listed.verdict, Verdict::kReject);
  EXPECT_TRUE(listed.escalated);

  EXPECT_EQ(reader.Decisions(), 3u);
  EXPECT_EQ(reader.Admitted(), 1u);
  EXPECT_EQ(reader.Greyed(), 1u);
  EXPECT_EQ(reader.Rejected(), 1u);
  EXPECT_EQ(reader.Escalated(), 2u);
  // Only the first of the three decisions is timed.
  EXPECT_EQ(reader.Latency().Count(), 1u);
}

// Decide times decision i only when i % 64 == 0, so the histogram holds
// ceil(Decisions() / 64) values while the counters count every decision;
// a moved Reader carries its counters and so its phase.
TEST(AdmissionService, ReaderLatencySamplesEveryKthDecision) {
  static_assert(AdmissionService::Reader::kLatencySampleEvery == 64);
  AdmissionConfig cfg;
  cfg.epoch.events_per_epoch = 0;
  AdmissionService svc(graph::GraphBuilder(16).BuildAugmented(),
                       detect::Seeds{}, cfg);
  const auto expect_sampled = [](const AdmissionService::Reader& r) {
    EXPECT_EQ(r.Latency().Count(), (r.Decisions() + 63) / 64)
        << "after " << r.Decisions() << " decisions";
  };
  auto reader = svc.CreateReader();
  std::uint64_t made = 0;
  for (const std::uint64_t upto : {0, 1, 63, 64, 65, 1000}) {
    for (; made < upto; ++made) {
      reader.Decide(static_cast<graph::NodeId>(made % 16), made);
    }
    ASSERT_EQ(reader.Decisions(), upto);
    EXPECT_EQ(reader.Admitted(), upto);
    expect_sampled(reader);
  }

  // 1,000 decisions: the next timed one is decision 1,024.
  AdmissionService::Reader moved(std::move(reader));
  expect_sampled(moved);
  for (; made < 1024; ++made) moved.Decide(0, made);
  EXPECT_EQ(moved.Latency().Count(), 16u);
  moved.Decide(0, made++);
  EXPECT_EQ(moved.Latency().Count(), 17u);

  auto assigned = svc.CreateReader();
  assigned.Decide(0, 0);
  assigned = std::move(moved);
  EXPECT_EQ(assigned.Decisions(), 1025u);
  expect_sampled(assigned);
  for (; made < 1088; ++made) assigned.Decide(0, made);
  EXPECT_EQ(assigned.Latency().Count(), 17u);
  assigned.Decide(0, made++);
  EXPECT_EQ(assigned.Latency().Count(), 18u);
  expect_sampled(assigned);
}

// Every epoch the service publishes with a baseline carries the gain table
// (one entry per node of its graph, each equal to the walk), and the
// bootstrap epoch carries none. Detection runs on a two-worker pool, so the
// table is built there too.
TEST(AdmissionService, BaselineEpochsCarryTheGainTable) {
  const Workload w = MakeWorkload(5);
  engine::EpochConfig ecfg = ServiceEpochConfig(w);
  ecfg.events_per_epoch = 0;
  ecfg.detect.maar.num_threads = 2;
  AdmissionConfig cfg;
  cfg.epoch = ecfg;
  AdmissionService svc(
      graph::GraphBuilder(w.log.NumNodes()).BuildAugmented(), w.seeds, cfg);

  const auto boot = svc.CurrentEpoch();
  ASSERT_NE(boot, nullptr);
  EXPECT_EQ(boot->epoch_id, 0u);
  EXPECT_FALSE(boot->has_baseline);
  EXPECT_TRUE(boot->gain.empty());

  const auto events = w.log.Events();
  constexpr std::size_t kEpochs = 4;
  int with_baseline = 0;
  for (std::size_t e = 0; e < kEpochs; ++e) {
    const std::size_t from = events.size() * e / kEpochs;
    const std::size_t to = events.size() * (e + 1) / kEpochs;
    for (std::size_t i = from; i < to; ++i) svc.Submit(events[i]);
    const std::uint64_t id = svc.ForceEpoch();
    const auto epoch = svc.CurrentEpoch();
    ASSERT_EQ(epoch->epoch_id, id);
    if (!epoch->has_baseline) {
      EXPECT_TRUE(epoch->gain.empty()) << "epoch " << id;
      continue;
    }
    ++with_baseline;
    const graph::NodeId n = epoch->graph->NumNodes();
    ASSERT_EQ(epoch->gain.size(), n) << "epoch " << id;
    for (graph::NodeId s = 0; s < n; ++s) {
      const detect::IncrementalScore walk = detect::ScoreSenderIncremental(
          *epoch->graph, epoch->mask, epoch->k, s);
      ASSERT_EQ(epoch->gain[s], walk.gain) << "epoch " << id << " s " << s;
    }
  }
  EXPECT_GT(with_baseline, 0);
}

TEST(AdmissionService, StatsAndDrainAccounting) {
  const Workload w = MakeWorkload(3);
  engine::EpochConfig ecfg = ServiceEpochConfig(w);
  ecfg.events_per_epoch = 0;
  AdmissionConfig cfg;
  cfg.epoch = ecfg;
  AdmissionService svc(
      graph::GraphBuilder(w.log.NumNodes()).BuildAugmented(), w.seeds, cfg);
  for (const stream::Event& e : w.log.Events()) svc.Submit(e);
  svc.Drain();
  const auto s = svc.Stats();
  EXPECT_EQ(s.events_submitted, w.log.NumEvents());
  EXPECT_EQ(s.events_ingested, w.log.NumEvents());
  EXPECT_EQ(s.events_applied + s.events_noop, s.events_ingested);
  EXPECT_EQ(s.epochs_published, 0u);
  svc.ForceEpoch();
  EXPECT_EQ(svc.Stats().epochs_published, 1u);
  EXPECT_EQ(svc.Stats().published_events, w.log.NumEvents());
  svc.Stop();
  EXPECT_FALSE(svc.TrySubmit({stream::EventType::kAddFriend, 0, 1}));
}

TEST(AdmissionService, RefusesTooManyDetectionThreadsBeforeStarting) {
  AdmissionConfig cfg;
  cfg.epoch.detect.maar.num_threads = 257;
  EXPECT_THROW(AdmissionService(graph::GraphBuilder(4).BuildAugmented(),
                                detect::Seeds{}, cfg),
               std::invalid_argument);
  engine::EpochConfig ecfg;
  ecfg.detect.maar.num_threads = 257;
  EXPECT_THROW(engine::EpochDetector(4, detect::Seeds{}, ecfg),
               std::invalid_argument);
}

TEST(AdmissionService, RefusesOversizedConfigBeforeStarting) {
  const auto make = [](const AdmissionConfig& cfg) {
    return std::make_unique<AdmissionService>(
        graph::GraphBuilder(4).BuildAugmented(), detect::Seeds{}, cfg);
  };
  // A refusal after a thread started would terminate the binary: the
  // half-built service's std::thread members would still be joinable.
  AdmissionConfig cfg;
  cfg.epoch.events_per_epoch = 0;
  cfg.queue_capacity = SIZE_MAX;
  EXPECT_THROW(make(cfg), std::invalid_argument);
  cfg.queue_capacity = serve::MpscQueue<char>::kMaxCapacity + 1;
  EXPECT_THROW(make(cfg), std::invalid_argument);
  cfg.queue_capacity = 2;
  cfg.max_readers = serve::RcuPtr<PublishedEpoch>::kMaxSlots + 1;
  EXPECT_THROW(make(cfg), std::invalid_argument);
  cfg.max_readers = SIZE_MAX;
  EXPECT_THROW(make(cfg), std::invalid_argument);
  cfg.max_readers = 1;
  cfg.max_pending_epochs = 0;
  EXPECT_THROW(make(cfg), std::invalid_argument);

  // The largest slot pool serves.
  cfg.max_pending_epochs = 1;
  cfg.max_readers = serve::RcuPtr<PublishedEpoch>::kMaxSlots;
  const auto svc = make(cfg);
  auto reader = svc->CreateReader();
  EXPECT_EQ(reader.Decide(1, 0).verdict, Verdict::kAdmit);
}

// Detection configs that no epoch's MaarSolver accepts. At construction
// they must throw; a service that took one would meet the solver's throw on
// its detection thread, where it terminates the process, and a halo of
// INT_MAX would spin RunEpochDetection's halo loop ~2^31 times an epoch.
std::vector<engine::EpochConfig> ConfigsTheSolverRefuses() {
  std::vector<engine::EpochConfig> bad;
  engine::EpochConfig base;
  base.events_per_epoch = 0;
  base.detect.maar.num_threads = 1;
  bad.push_back(base);
  bad.back().detect.maar.k_scale = 1.0;
  bad.push_back(base);
  bad.back().detect.maar.k_min = std::numeric_limits<double>::quiet_NaN();
  bad.push_back(base);
  bad.back().detect.maar.num_random_inits = 1 << 20;  // cold cells
  bad.push_back(base);
  // Default 9-k sweep: 9 × (40,000 + 2) warm cells.
  bad.back().warm_random_inits = 40000;
  bad.push_back(base);
  bad.back().warm_random_inits = 7280;  // 9 × 7,282 = 65,538 cells
  bad.push_back(base);
  bad.back().warm_random_inits = -1;
  bad.push_back(base);
  bad.back().warm_k_halo = -1;
  bad.push_back(base);
  bad.back().warm_k_halo = 4097;
  bad.push_back(base);
  bad.back().warm_k_halo = std::numeric_limits<int>::max();
  return bad;
}

// The largest warm settings the default 9-k sweep admits.
engine::EpochConfig LargestAcceptedWarmConfig() {
  engine::EpochConfig cfg;
  cfg.events_per_epoch = 0;
  cfg.detect.maar.num_threads = 1;
  cfg.warm_k_halo = 4096;
  cfg.warm_random_inits = 7279;  // 9 × 7,281 = 65,529 cells
  return cfg;
}

TEST(AdmissionService, RefusesADetectionConfigItsSolverWouldRefuse) {
  for (const engine::EpochConfig& ecfg : ConfigsTheSolverRefuses()) {
    AdmissionConfig cfg;
    cfg.epoch = ecfg;
    EXPECT_THROW(AdmissionService(graph::GraphBuilder(4).BuildAugmented(),
                                  detect::Seeds{}, cfg),
                 std::invalid_argument)
        << "k_scale " << ecfg.detect.maar.k_scale << ", halo "
        << ecfg.warm_k_halo << ", warm inits " << ecfg.warm_random_inits;
  }
  AdmissionConfig cfg;
  cfg.epoch = LargestAcceptedWarmConfig();
  AdmissionService svc(graph::GraphBuilder(4).BuildAugmented(),
                       detect::Seeds{}, cfg);
  EXPECT_EQ(svc.CreateReader().Decide(1, 0).verdict, Verdict::kAdmit);
}

TEST(EpochDetector, RefusesADetectionConfigItsSolverWouldRefuse) {
  for (const engine::EpochConfig& ecfg : ConfigsTheSolverRefuses()) {
    EXPECT_THROW(engine::EpochDetector(4, detect::Seeds{}, ecfg),
                 std::invalid_argument)
        << "k_scale " << ecfg.detect.maar.k_scale << ", halo "
        << ecfg.warm_k_halo << ", warm inits " << ecfg.warm_random_inits;
    // The restore paths check the config before they open the file.
    EXPECT_THROW(engine::EpochDetector::FromSnapshot("no-such-file.snap",
                                                     detect::Seeds{}, ecfg),
                 std::invalid_argument);
    EXPECT_THROW(engine::EpochDetector::RestoreCheckpoint(
                     "no-such-file.snap", detect::Seeds{}, ecfg),
                 std::invalid_argument);
  }
  engine::EpochDetector det(4, detect::Seeds{}, LargestAcceptedWarmConfig());
  EXPECT_EQ(det.RunEpoch().epoch, 0);
}

// ingest_seconds spans an epoch's first ingested event to its cut, and is
// 0 for an epoch that ingested nothing.
TEST(EpochDetector, IngestSecondsSpansFirstEventToCut) {
  engine::EpochConfig cfg;
  cfg.events_per_epoch = 0;
  cfg.detect.maar.num_threads = 1;
  engine::EpochDetector det(4, detect::Seeds{}, cfg);
  EXPECT_EQ(det.RunEpoch().ingest_seconds, 0.0);
  det.Ingest({stream::EventType::kAddFriend, 0, 1});
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  det.Ingest({stream::EventType::kAddFriend, 1, 2});
  const engine::EpochStats& stats = det.RunEpoch();
  EXPECT_EQ(stats.events_absorbed, 2u);
  EXPECT_GE(stats.ingest_seconds, 0.02);
  EXPECT_EQ(det.RunEpoch().ingest_seconds, 0.0);
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

// Every thread of an idle service sleeps: the writer on its empty ring, the
// detection thread on its job queue, the pool on its task queue.
TEST(AdmissionService, IdleServiceSleeps) {
  const Workload w = MakeWorkload(4);
  AdmissionConfig cfg;
  cfg.epoch = ServiceEpochConfig(w);
  cfg.epoch.detect.maar.num_threads = 2;  // a pool too
  AdmissionService svc(
      graph::GraphBuilder(w.log.NumNodes()).BuildAugmented(), w.seeds, cfg);
  for (const stream::Event& e : w.log.Events()) svc.Submit(e);
  svc.ForceEpoch();

  const auto t0 = std::chrono::steady_clock::now();
  const double cpu0 = ProcessCpuSeconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const double cpu = ProcessCpuSeconds() - cpu0;
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  EXPECT_LT(cpu, 0.25 * wall) << "cpu " << cpu << " s over " << wall
                              << " s idle";
}

TEST(AdmissionService, RejectsSelfEdgeAtSubmission) {
  AdmissionConfig cfg;
  cfg.epoch.events_per_epoch = 0;
  AdmissionService svc(graph::GraphBuilder(4).BuildAugmented(),
                       detect::Seeds{}, cfg);
  EXPECT_THROW(svc.Submit({stream::EventType::kAddFriend, 2, 2}),
               std::invalid_argument);
}

// max_rounds below 1 is refused with the other detection settings, before
// a detector's pool or a service's threads start and before a restore path
// opens its file.
TEST(EpochDetector, RefusesFewerThanOneRound) {
  for (const int rounds : {0, -1}) {
    engine::EpochConfig ecfg;
    ecfg.events_per_epoch = 0;
    ecfg.detect.max_rounds = rounds;
    ecfg.detect.maar.num_threads = 257;  // a later check would name threads
    const auto names_rounds = [](const std::invalid_argument& e) {
      return std::string(e.what()).find("max_rounds") != std::string::npos;
    };
    try {
      engine::ValidateEpochConfig(ecfg);
      ADD_FAILURE() << "max_rounds " << rounds << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_TRUE(names_rounds(e)) << e.what();
    }
    try {
      engine::EpochDetector(4, detect::Seeds{}, ecfg);
      ADD_FAILURE() << "EpochDetector took max_rounds " << rounds;
    } catch (const std::invalid_argument& e) {
      EXPECT_TRUE(names_rounds(e)) << e.what();
    }
    EXPECT_THROW(engine::EpochDetector::RestoreCheckpoint(
                     "no-such-file.snap", detect::Seeds{}, ecfg),
                 std::invalid_argument);
    AdmissionConfig cfg;
    cfg.epoch = ecfg;
    try {
      AdmissionService(graph::GraphBuilder(4).BuildAugmented(),
                       detect::Seeds{}, cfg);
      ADD_FAILURE() << "AdmissionService took max_rounds " << rounds;
    } catch (const std::invalid_argument& e) {
      EXPECT_TRUE(names_rounds(e)) << e.what();
    }
  }
}

}  // namespace
}  // namespace rejecto
