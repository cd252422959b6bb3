// Snapshot-publication race tests (run under TSan in CI).
//
// Hammer test: a writer republishing as fast as it can while readers pin
// and validate a self-checking canary — any torn read, use-after-reclaim,
// or word-level race shows up as a canary mismatch (or as a TSan report).
// Property test: a reader holding a Pin across two publishes keeps a
// consistent view the whole time, and reclamation happens only after the
// pin is released.
// Wake-up tests: producers, Drain/ForceEpoch callers and Stop on a two-cell
// ring, under a watchdog that fails the binary instead of letting a lost
// wake-up hang it. Token-bucket test: threads racing on one sender's word
// admit exactly its capacity.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "gen/erdos_renyi.h"
#include "graph/builder.h"
#include "serve/admission.h"
#include "serve/policy.h"
#include "serve/rcu.h"
#include "stream/mutation_log.h"
#include "sim/scenario.h"
#include "sim/stream_feed.h"
#include "util/rng.h"

namespace rejecto {
namespace {

using serve::RcuPtr;
using serve::ReclaimMode;

// Self-checking payload: b must always read as ~a, and `alive` flags a
// use-after-free that ASan might otherwise miss on recycled memory.
struct Canary {
  explicit Canary(std::uint64_t v) : a(v), b(~v) {}
  ~Canary() { alive = 0; }
  std::uint64_t a;
  std::uint64_t b;
  std::uint64_t alive = 0xC0FFEE;
};

TEST(RcuHammerTest, ReadersAlwaysSeeConsistentCanaries) {
  RcuPtr<Canary> rcu(ReclaimMode::kHazard, /*max_slots=*/8);
  rcu.Publish(std::make_shared<const Canary>(0));

  constexpr int kReaders = 4;
  constexpr std::uint64_t kPublishes = 4000;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&rcu, &stop, &torn] {
      RcuPtr<Canary>::Slot* slot = rcu.AcquireSlot();
      if (slot == nullptr) {
        torn.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      std::uint64_t last_seen = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const auto pin = rcu.Acquire(slot);
        // The pinned value must be internally consistent and alive for the
        // whole pin, and the sequence of observed versions monotone.
        if (!pin || pin->b != ~pin->a || pin->alive != 0xC0FFEE ||
            pin->a < last_seen) {
          torn.fetch_add(1, std::memory_order_relaxed);
          break;
        }
        last_seen = pin->a;
      }
      rcu.ReleaseSlot(slot);
    });
  }
  for (std::uint64_t v = 1; v <= kPublishes; ++v) {
    rcu.Publish(std::make_shared<const Canary>(v));
    if ((v & 255) == 0) std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(torn.load(), 0u);
  // With every reader gone, one publish reclaims everything retired.
  rcu.Publish(std::make_shared<const Canary>(kPublishes + 1));
  EXPECT_LE(rcu.RetiredCount(), 1u);
}

// Deterministic single-thread property: a Pin taken before two publishes
// still reads the old value afterwards, and the old value is reclaimed
// only once the Pin is gone.
TEST(RcuPtr, PinSurvivesTwoPublishesThenReclaims) {
  RcuPtr<Canary> rcu(ReclaimMode::kHazard, 4);
  rcu.Publish(std::make_shared<const Canary>(10));
  RcuPtr<Canary>::Slot* slot = rcu.AcquireSlot();
  ASSERT_NE(slot, nullptr);
  {
    const auto pin = rcu.Acquire(slot);
    ASSERT_TRUE(pin);
    EXPECT_EQ(pin->a, 10u);
    rcu.Publish(std::make_shared<const Canary>(11));
    rcu.Publish(std::make_shared<const Canary>(12));
    // The pinned epoch is still the one acquired, still intact, even
    // though two newer values superseded it...
    EXPECT_EQ(pin->a, 10u);
    EXPECT_EQ(pin->b, ~std::uint64_t{10});
    EXPECT_EQ(pin->alive, 0xC0FFEEu);
    // ...and the writer kept it on the retired list (11 was reclaimed at
    // the second publish; 10 is pinned).
    EXPECT_EQ(rcu.RetiredCount(), 1u);
    // A fresh Acquire through the same slot sees the new value.
  }
  {
    const auto now = rcu.Acquire(slot);
    EXPECT_EQ(now->a, 12u);
    // Pin released: the next publish sweeps value 10.
    rcu.Publish(std::make_shared<const Canary>(13));
    EXPECT_EQ(rcu.RetiredCount(), 1u);  // only 12, still pinned by `now`
    rcu.ReleaseSlot(nullptr);           // no-op
    EXPECT_EQ(now->a, 12u);
  }
  // Readers release their Pins and Slots before the RcuPtr is destroyed.
  rcu.ReleaseSlot(slot);
}

TEST(RcuPtr, SlotPoolIsBounded) {
  constexpr std::size_t kMax = RcuPtr<Canary>::kMaxSlots;
  EXPECT_THROW(RcuPtr<Canary>(ReclaimMode::kHazard, kMax + 1),
               std::invalid_argument);
  RcuPtr<Canary> rcu(ReclaimMode::kHazard, kMax);
  std::vector<RcuPtr<Canary>::Slot*> slots;
  for (std::size_t i = 0; i < kMax; ++i) {
    slots.push_back(rcu.AcquireSlot());
    ASSERT_NE(slots.back(), nullptr);
  }
  EXPECT_EQ(rcu.AcquireSlot(), nullptr);
  for (auto* s : slots) rcu.ReleaseSlot(s);
}

// Each reader writes its hazard slot twice and its Reader's counters once
// per decision; none of those bytes may share a 64-byte line with another
// reader's.
TEST(ServeLayout, ReadersNeverShareACacheLine) {
  constexpr std::uintptr_t kLine = 64;
  const auto first_line = [](const void* p) {
    return reinterpret_cast<std::uintptr_t>(p) / kLine;
  };
  const auto last_line = [](const void* p, std::size_t bytes) {
    return (reinterpret_cast<std::uintptr_t>(p) + bytes - 1) / kLine;
  };

  RcuPtr<Canary> rcu(ReclaimMode::kHazard, 4);
  std::vector<RcuPtr<Canary>::Slot*> slots;
  for (int i = 0; i < 4; ++i) {
    slots.push_back(rcu.AcquireSlot());
    ASSERT_NE(slots.back(), nullptr);
  }
  for (std::size_t i = 0; i < slots.size(); ++i) {
    for (std::size_t j = i + 1; j < slots.size(); ++j) {
      const auto* lo = std::min(slots[i], slots[j]);
      const auto* hi = std::max(slots[i], slots[j]);
      EXPECT_LT(last_line(lo, sizeof(*lo)), first_line(hi))
          << "slots " << i << " and " << j;
    }
  }
  for (auto* s : slots) rcu.ReleaseSlot(s);

  serve::AdmissionConfig cfg;
  cfg.epoch.events_per_epoch = 0;
  serve::AdmissionService svc(graph::GraphBuilder(8).BuildAugmented(),
                              detect::Seeds{}, cfg);
  std::vector<serve::AdmissionService::Reader> readers;
  readers.push_back(svc.CreateReader());
  readers.push_back(svc.CreateReader());
  EXPECT_LT(last_line(&readers[0], sizeof(readers[0])),
            first_line(&readers[1]));
}

// Four threads hammer one sender's bucket at one logical tick. Each token
// is taken by exactly one successful CAS, and the many limited requests
// after the bucket runs dry write nothing: together the threads admit
// exactly floor(capacity).
TEST(TokenBucketRace, OneSenderOneTickAdmitsExactlyTheCapacity) {
  serve::TokenBucketConfig cfg;
  cfg.capacity = 1000.5;
  cfg.refill_per_tick = 1.0;
  cfg.num_senders = 3;
  serve::TokenBucketPolicy bucket(cfg);
  const serve::PublishedEpoch epoch;
  const serve::Decision base;

  constexpr int kThreads = 4;
  constexpr int kCalls = 10'000;
  std::atomic<int> ready{0};
  std::vector<std::uint64_t> admitted(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (ready.load(std::memory_order_acquire) < kThreads) {
        std::this_thread::yield();
      }
      std::uint64_t mine = 0;
      for (int i = 0; i < kCalls; ++i) {
        const serve::PolicyInput in{1, 7, epoch, base};
        if (bucket.Evaluate(in, serve::Verdict::kAdmit) ==
            serve::Verdict::kAdmit) {
          ++mine;
        }
      }
      admitted[t] = mine;
    });
  }
  for (std::thread& th : threads) th.join();
  std::uint64_t total = 0;
  for (const std::uint64_t a : admitted) total += a;
  EXPECT_EQ(total, 1000u);
  EXPECT_EQ(bucket.Tokens(1), 0.5);
  EXPECT_EQ(bucket.Tokens(0), cfg.capacity);  // untouched
}

TEST(RcuPtr, SlotPoolExhaustsAndRecycles) {
  RcuPtr<Canary> rcu(ReclaimMode::kHazard, 2);
  auto* s0 = rcu.AcquireSlot();
  auto* s1 = rcu.AcquireSlot();
  ASSERT_NE(s0, nullptr);
  ASSERT_NE(s1, nullptr);
  EXPECT_EQ(rcu.AcquireSlot(), nullptr);
  rcu.ReleaseSlot(s0);
  EXPECT_NE(rcu.AcquireSlot(), nullptr);
  rcu.ReleaseSlot(s0);
  rcu.ReleaseSlot(s1);
}

// End-to-end hammer: a service with a tiny epoch period publishing dozens
// of epochs while readers decide continuously. Asserts each reader's
// observed epoch ids are monotone (publication order is globally visible)
// and every pin dereferences safely (TSan/ASan close the loop).
TEST(AdmissionServiceRace, ReadersSurviveRapidEpochTurnover) {
  util::Rng rng(7);
  const auto legit = gen::ErdosRenyi({.num_nodes = 120, .num_edges = 420}, rng);
  sim::ScenarioConfig scfg;
  scfg.seed = 11;
  scfg.num_fakes = 24;
  const auto scenario = sim::BuildScenario(legit, scfg);
  util::Rng seed_rng(3);
  const detect::Seeds seeds = scenario.SampleSeeds(10, 4, seed_rng);
  sim::ChurnConfig churn;
  churn.seed = 5;
  const stream::MutationLog log = sim::GenerateChurnLog(scenario.log, churn);

  serve::AdmissionConfig cfg;
  cfg.epoch.detect.target_detections = scfg.num_fakes;
  cfg.epoch.detect.maar.seed = 23;
  cfg.epoch.detect.maar.num_threads = 1;
  cfg.epoch.events_per_epoch = 64;  // rapid turnover
  serve::AdmissionService svc(
      graph::GraphBuilder(log.NumNodes()).BuildAugmented(), seeds, cfg);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> regressions{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    auto reader = svc.CreateReader();
    readers.emplace_back([&stop, &regressions, r, n = log.NumNodes(),
                          rd = std::move(reader)]() mutable {
      util::Rng prng(r * 131 + 1);
      std::uint64_t t = 0;
      std::uint64_t last_epoch = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const auto d = rd.Decide(
            static_cast<graph::NodeId>(prng.NextUInt(n)), t++);
        if (d.epoch_id < last_epoch) {
          regressions.fetch_add(1, std::memory_order_relaxed);
          break;
        }
        last_epoch = d.epoch_id;
        if ((t & 31) == 0) std::this_thread::yield();
      }
    });
  }
  for (const stream::Event& e : log.Events()) svc.Submit(e);
  const std::uint64_t final_id = svc.ForceEpoch();
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(regressions.load(), 0u);
  EXPECT_GE(final_id, log.NumEvents() / 64);
  EXPECT_EQ(svc.Stats().epochs_published, final_id);
}

// Fails the binary instead of hanging it: a lost wake-up parks a thread
// forever, so a test waiting on that thread would never return.
class Watchdog {
 public:
  Watchdog(std::chrono::seconds limit, const char* what)
      : thread_([this, limit, what] {
          std::unique_lock<std::mutex> lock(mu_);
          if (!cv_.wait_for(lock, limit, [this] { return done_; })) {
            std::fprintf(stderr,
                         "watchdog: %s did not finish within %lld s "
                         "(a lost wake-up?)\n",
                         what, static_cast<long long>(limit.count()));
            std::_Exit(EXIT_FAILURE);
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;  // last: starts after the members it reads
};

constexpr std::chrono::seconds kDeadline{60};
constexpr int kProducers = 4;

// An add-only churned stream (no node removals): its events commute, so any
// interleaving of the producers builds the same final graph.
struct AddOnlyStream {
  stream::MutationLog log;
  detect::Seeds seeds;
  graph::NodeId num_fakes = 0;
};

AddOnlyStream MakeAddOnlyStream() {
  util::Rng rng(13);
  const auto legit = gen::ErdosRenyi({.num_nodes = 120, .num_edges = 420}, rng);
  sim::ScenarioConfig scfg;
  scfg.seed = 17;
  scfg.num_fakes = 24;
  const auto scenario = sim::BuildScenario(legit, scfg);
  util::Rng seed_rng(19);
  sim::ChurnConfig churn;
  churn.seed = 23;
  churn.num_removals = 0;
  return {sim::GenerateChurnLog(scenario.log, churn),
          scenario.SampleSeeds(10, 4, seed_rng), scfg.num_fakes};
}

// Every wait is as tight as it gets: a two-cell ring (producers park after
// at most two events in flight) and one detection job in flight (the writer
// parks on backpressure every few events).
serve::AdmissionConfig TightConfig(const AddOnlyStream& s) {
  serve::AdmissionConfig cfg;
  cfg.queue_capacity = 2;
  cfg.max_pending_epochs = 1;
  cfg.epoch.events_per_epoch = 16;
  cfg.epoch.detect.target_detections = s.num_fakes;
  cfg.epoch.detect.maar.seed = 29;
  cfg.epoch.detect.maar.num_threads = 1;
  return cfg;
}

TEST(AdmissionServiceRace, NoLostWakeupsOnATwoCellRing) {
  const AddOnlyStream s = MakeAddOnlyStream();
  const auto events = s.log.Events();
  Watchdog watchdog(kDeadline, "NoLostWakeupsOnATwoCellRing");
  serve::AdmissionService svc(
      graph::GraphBuilder(s.log.NumNodes()).BuildAugmented(), s.seeds,
      TightConfig(s));

  std::atomic<int> producing{kProducers};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (std::size_t i = p; i < events.size(); i += kProducers) {
        svc.Submit(events[i]);
      }
      producing.fetch_sub(1, std::memory_order_release);
    });
  }
  // Barrier and epoch commands contend for the same two cells.
  std::atomic<std::uint64_t> drains{0};
  std::atomic<std::uint64_t> last_forced{0};
  threads.emplace_back([&] {
    while (producing.load(std::memory_order_acquire) > 0) {
      svc.Drain();
      drains.fetch_add(1, std::memory_order_relaxed);
    }
  });
  threads.emplace_back([&] {
    while (producing.load(std::memory_order_acquire) > 0) {
      const std::uint64_t id = svc.ForceEpoch();
      EXPECT_GT(id, last_forced.load(std::memory_order_relaxed));
      EXPECT_GE(svc.PublishedEpochId(), id);
      last_forced.store(id, std::memory_order_relaxed);
    }
  });
  for (auto& t : threads) t.join();
  svc.Drain();
  const std::uint64_t final_id = svc.ForceEpoch();

  EXPECT_GT(drains.load(), 0u);
  EXPECT_GT(final_id, last_forced.load());
  const auto stats = svc.Stats();
  EXPECT_EQ(stats.events_submitted, events.size());
  EXPECT_EQ(stats.events_ingested, events.size());
  EXPECT_EQ(stats.epochs_published, final_id);
  EXPECT_EQ(*svc.CurrentEpoch()->graph, s.log.BuildAugmentedGraph());
}

TEST(AdmissionServiceRace, StopReleasesParkedProducers) {
  const AddOnlyStream s = MakeAddOnlyStream();
  const auto events = s.log.Events();
  Watchdog watchdog(kDeadline, "StopReleasesParkedProducers");
  serve::AdmissionService svc(
      graph::GraphBuilder(s.log.NumNodes()).BuildAugmented(), s.seeds,
      TightConfig(s));

  enum Outcome : int { kRunning, kFinished, kStopped, kOther };
  std::vector<std::atomic<int>> outcome(kProducers);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      try {
        for (std::size_t i = p; i < events.size(); i += kProducers) {
          svc.Submit(events[i]);
        }
        outcome[p] = kFinished;
      } catch (const std::logic_error&) {
        outcome[p] = kStopped;
      } catch (...) {
        outcome[p] = kOther;
      }
    });
  }
  // Barrier and epoch callers race the stop: each returns (Drain) or throws
  // std::logic_error (ForceEpoch), even when its command lands behind the
  // stop command and is never popped.
  std::atomic<bool> stop_returned{false};
  std::thread drainer([&] {
    while (!stop_returned.load(std::memory_order_acquire)) svc.Drain();
  });
  std::thread forcer([&] {
    try {
      for (;;) svc.ForceEpoch();
    } catch (const std::logic_error&) {
    }
  });
  // Four producers against two cells and a detector that holds the writer
  // every 16 events: by a quarter of the stream, producers are parked.
  while (svc.Stats().events_submitted < events.size() / 4) {
    std::this_thread::yield();
  }
  svc.Stop();
  stop_returned.store(true, std::memory_order_release);
  for (auto& t : producers) t.join();
  drainer.join();
  forcer.join();
  for (int p = 0; p < kProducers; ++p) {
    EXPECT_TRUE(outcome[p] == kFinished || outcome[p] == kStopped)
        << "producer " << p << " outcome " << outcome[p].load();
  }

  // A stopped service refuses every command at once.
  EXPECT_THROW(svc.Submit(events[0]), std::logic_error);
  EXPECT_THROW(svc.ForceEpoch(), std::logic_error);
  svc.Drain();
  EXPECT_LE(svc.Stats().events_ingested, svc.Stats().events_submitted);
}

}  // namespace
}  // namespace rejecto
