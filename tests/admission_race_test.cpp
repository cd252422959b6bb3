// Snapshot-publication race tests (run under TSan in CI).
//
// Hammer test: a writer republishing as fast as it can while readers pin
// and validate a self-checking canary — any torn read, use-after-reclaim,
// or word-level race shows up as a canary mismatch (or as a TSan report).
// Property test: a reader holding a Pin across two publishes keeps a
// consistent view the whole time, and reclamation happens only after the
// pin is released.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "gen/erdos_renyi.h"
#include "graph/builder.h"
#include "serve/admission.h"
#include "serve/rcu.h"
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

}  // namespace
}  // namespace rejecto
