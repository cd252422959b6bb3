// An online admission service over a live event stream (paper §V at
// serving scale).
//
// The batch pipeline answers "who are the friend spammers?" after the
// fact; an OSN's front end needs "should THIS friend request go through,
// right now?" at request rate. This example runs serve::AdmissionService
// end to end: a writer thread ingests the attack stream and periodically
// republishes a detection epoch (RCU snapshot swap, detection off the hot
// path), while concurrent reader threads admit/grey/reject senders
// lock-free against whichever epoch is current — with a per-sender token
// bucket layered in front of the score threshold.
//
// Self-checking: exits nonzero if the served graph diverges from batch-
// building the same events, if the final epoch misses the batch pipeline's
// detection quality, or if the serving tier fails to reject a solid
// majority of spamming fakes while admitting almost all legit users.
//
// Knobs (see docs/SERVING.md): REJECTO_SERVE_READERS and
// REJECTO_SERVE_EPOCH_EVENTS.
//
// Build & run:  cmake --build build && ./build/examples/admission_server
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "gen/holme_kim.h"
#include "graph/builder.h"
#include "serve/admission.h"
#include "serve/policy.h"
#include "sim/scenario.h"
#include "sim/stream_feed.h"
#include "util/flags.h"

int main() {
  using namespace rejecto;

  // The paper's attack overlaid on an organic graph, serialized as an
  // adversarially messy event stream (duplicates, flips, removals).
  util::Rng rng(util::ExperimentSeed());
  const auto legit = gen::HolmeKim(
      {.num_nodes = 2'000, .edges_per_node = 4, .triad_probability = 0.5},
      rng);
  sim::ScenarioConfig cfg;
  cfg.seed = util::ExperimentSeed() + 1;
  cfg.num_fakes = 400;
  const auto scenario = sim::BuildScenario(legit, cfg);
  util::Rng seed_rng(23);
  const auto seeds = scenario.SampleSeeds(20, 8, seed_rng);
  sim::ChurnConfig churn;
  churn.seed = util::ExperimentSeed() + 2;
  const auto log = sim::GenerateChurnLog(scenario.log, churn);

  serve::AdmissionConfig scfg;
  scfg.epoch.detect.target_detections = cfg.num_fakes;
  scfg.epoch.detect.maar.seed = 31;
  scfg.epoch.detect.maar.num_threads = util::ThreadCount();
  scfg.epoch.events_per_epoch = log.NumEvents() / 3 + 1;  // ~3 epochs
  scfg.grey_margin = 2.0;  // weak positive evidence -> manual review
  scfg = serve::ApplyEnvOverrides(scfg);

  serve::AdmissionService service(
      graph::GraphBuilder(log.NumNodes()).BuildAugmented(), seeds, scfg);

  // Layered admission: rate-limit a sender's request burst before the
  // graph score is even consulted.
  serve::TokenBucketConfig tb;
  tb.capacity = 20.0;
  tb.refill_per_tick = 1.0;
  tb.on_limit = serve::Verdict::kGrey;
  tb.num_senders = static_cast<std::size_t>(log.NumNodes());
  service.AddPolicy(std::make_unique<serve::TokenBucketPolicy>(tb));

  // Front-end readers decide continuously while the stream ingests —
  // every decision carries the epoch id it was scored against.
  const int num_readers = 2;
  std::atomic<bool> stop{false};
  std::vector<std::thread> frontends;
  std::atomic<std::uint64_t> live_decisions{0};
  std::vector<std::uint64_t> last_tick(num_readers, 0);
  for (int r = 0; r < num_readers; ++r) {
    auto reader = service.CreateReader();
    frontends.emplace_back([&, r, rd = std::move(reader)]() mutable {
      util::Rng prng(100 + r);
      std::uint64_t t = 0;
      while (!stop.load(std::memory_order_acquire)) {
        rd.Decide(static_cast<graph::NodeId>(prng.NextUInt(log.NumNodes())),
                  t++);
        if ((t & 63) == 0) std::this_thread::yield();
      }
      live_decisions.fetch_add(rd.Decisions(), std::memory_order_relaxed);
      last_tick[r] = t == 0 ? 0 : t - 1;
    });
  }

  for (const stream::Event& e : log.Events()) service.Submit(e);
  service.Drain();
  const std::uint64_t final_epoch = service.ForceEpoch();
  stop.store(true, std::memory_order_release);
  for (auto& t : frontends) t.join();

  // Post-attack sweep: one admission decision per account, stamped late
  // enough after every live reader's last tick that each bucket the
  // readers drained has refilled to capacity (a time earlier than theirs
  // would count as no time elapsed and refill nothing).
  const std::uint64_t sweep_tick =
      *std::max_element(last_tick.begin(), last_tick.end()) +
      static_cast<std::uint64_t>(std::ceil(tb.capacity / tb.refill_per_tick));
  auto auditor = service.CreateReader();
  std::uint64_t fake_blocked = 0, legit_admitted = 0;
  for (graph::NodeId s = 0; s < scenario.NumNodes(); ++s) {
    const serve::Decision d = auditor.Decide(s, sweep_tick);
    const bool blocked = d.verdict != serve::Verdict::kAdmit;
    if (scenario.is_fake[s] != 0) {
      fake_blocked += blocked ? 1 : 0;
    } else {
      legit_admitted += blocked ? 0 : 1;
    }
  }
  const double fake_block_rate =
      static_cast<double>(fake_blocked) / static_cast<double>(cfg.num_fakes);
  const double legit_admit_rate = static_cast<double>(legit_admitted) /
                                  static_cast<double>(legit.NumNodes());

  const serve::AdmissionStats stats = service.Stats();
  std::printf("admission server: %llu events, %llu epochs (final id %llu)\n",
              static_cast<unsigned long long>(stats.events_ingested),
              static_cast<unsigned long long>(stats.epochs_published),
              static_cast<unsigned long long>(final_epoch));
  std::printf("  live decisions while ingesting: %llu\n",
              static_cast<unsigned long long>(live_decisions.load()));
  std::printf("  audit p50/p99 decision latency: %llu / %llu ns\n",
              static_cast<unsigned long long>(auditor.Latency().P50()),
              static_cast<unsigned long long>(auditor.Latency().P99()));
  std::printf("  fake senders blocked: %.1f%%  legit admitted: %.1f%%\n",
              100.0 * fake_block_rate, 100.0 * legit_admit_rate);

  // Served state must equal the batch build of the same events.
  if (!(*service.CurrentEpoch()->graph == log.BuildAugmentedGraph())) {
    std::printf("FAIL: served graph diverged from the batch build\n");
    return 1;
  }
  if (stats.epochs_published < 3) {
    std::printf("FAIL: expected >= 3 published epochs\n");
    return 1;
  }
  if (fake_block_rate < 0.60 || legit_admit_rate < 0.95) {
    std::printf("FAIL: serving quality regressed\n");
    return 1;
  }
  std::printf("OK\n");
  return 0;
}
