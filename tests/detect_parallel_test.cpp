// Parallel MAAR sweep: thread count is an execution detail, never an
// algorithmic one — any num_threads must produce bit-identical cuts.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "detect/iterative.h"
#include "detect/maar.h"
#include "gen/planted_partition.h"
#include "gen/watts_strogatz.h"
#include "sim/scenario.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace rejecto::detect {
namespace {

// A planted-partition legit graph with an overlaid friend-spam attack:
// enough structure that the sweep's KL runs do real work across many k.
sim::Scenario PlantedScenario() {
  util::Rng rng(31);
  const auto legit = gen::PlantedPartition({.num_nodes = 600,
                                           .num_communities = 3,
                                           .p_in = 0.05,
                                           .p_out = 0.005},
                                          rng)
                         .graph;
  sim::ScenarioConfig cfg;
  cfg.seed = 23;
  cfg.num_fakes = 120;
  cfg.requests_per_spammer = 15;
  return sim::BuildScenario(legit, cfg);
}

MaarConfig GridConfig() {
  MaarConfig cfg;
  cfg.num_random_inits = 3;  // 4 inits x 9 k values: a real grid
  cfg.seed = 9;
  return cfg;
}

TEST(ParallelMaarTest, ThreadCountNeverChangesTheCut) {
  const auto scenario = PlantedScenario();
  MaarCut reference;
  for (const int threads : {1, 2, 3, 4, 8}) {
    MaarConfig cfg = GridConfig();
    cfg.num_threads = threads;
    MaarSolver solver(scenario.graph, {}, cfg);
    const MaarCut cut = solver.Solve();
    ASSERT_TRUE(cut.valid) << threads << " threads";
    EXPECT_EQ(cut.threads_used, threads);
    if (threads == 1) {
      reference = cut;
      EXPECT_GT(reference.warm_start_runs, 0);
      continue;
    }
    EXPECT_EQ(cut.in_u, reference.in_u) << threads << " threads";
    EXPECT_EQ(cut.ratio, reference.ratio) << threads << " threads";
    EXPECT_EQ(cut.k, reference.k) << threads << " threads";
    EXPECT_EQ(cut.kl_runs, reference.kl_runs) << threads << " threads";
    EXPECT_EQ(cut.warm_start_runs, reference.warm_start_runs)
        << threads << " threads";
    EXPECT_EQ(cut.switches, reference.switches) << threads << " threads";
  }
}

// A KL run that throws inside the sweep must not hang Solve or lose the
// exception: every width rethrows the one from the earliest failing run in
// sweep order, and the pool stays usable for the next solve.
TEST(ParallelMaarTest, FailingKlRunRethrowsAndLeavesPoolUsable) {
  const auto scenario = PlantedScenario();
  const MaarConfig cfg = GridConfig();
  MaarConfig serial = cfg;
  serial.num_threads = 1;
  const MaarCut reference = MaarSolver(scenario.graph, {}, serial).Solve();
  ASSERT_TRUE(reference.valid);

  const double k_fail = 1.0;  // the fifth of nine k values
  const auto message = [](double k) {
    return "KL failed at k=" + std::to_string(k);
  };
  const MaarSolver::KlRunner failing =
      [&](const graph::AugmentedGraph& g, const std::vector<char>& init,
          const std::vector<char>& locked, const KlConfig& kl,
          KlScratch* scratch) {
        if (kl.k >= k_fail) {
          // The earliest failures in sweep order fail last in time, so a
          // sweep that keeps the first exception to arrive reports a later k.
          if (kl.k == k_fail) {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
          }
          throw std::runtime_error(message(kl.k));
        }
        return ExtendedKl(g, init, locked, kl, scratch);
      };
  for (const std::size_t width : {1u, 2u, 3u, 4u, 8u}) {
    util::ThreadPool pool(width);
    MaarSolver solver(scenario.graph, {}, cfg, failing);
    try {
      solver.Solve(&pool);
      ADD_FAILURE() << "no exception at width " << width;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(e.what(), message(k_fail)) << "width " << width;
    }
    const MaarCut cut = MaarSolver(scenario.graph, {}, cfg).Solve(&pool);
    EXPECT_EQ(cut.in_u, reference.in_u) << "width " << width;
    EXPECT_EQ(cut.ratio, reference.ratio) << "width " << width;
    EXPECT_EQ(cut.kl_runs, reference.kl_runs) << "width " << width;
  }
}

// At most one KL run per pool worker is ever in flight: each worker owns one
// workspace, and the caller runs no sweep work of its own. This is what
// keeps peak memory at one workspace per thread.
TEST(ParallelMaarTest, NeverRunsMoreKlThanThePoolIsWide) {
  const auto scenario = PlantedScenario();
  for (const std::size_t width : {2u, 3u, 4u, 8u}) {
    std::atomic<int> in_flight{0};
    std::atomic<int> max_in_flight{0};
    std::atomic<bool> first{true};
    const MaarSolver::KlRunner counting =
        [&](const graph::AugmentedGraph& g, const std::vector<char>& init,
            const std::vector<char>& locked, const KlConfig& kl,
            KlScratch* scratch) {
          const int now = in_flight.fetch_add(1) + 1;
          int seen = max_in_flight.load();
          while (now > seen &&
                 !max_in_flight.compare_exchange_weak(seen, now)) {
          }
          // The first run holds on (bounded) until a second one starts, so
          // the lower bound below does not hinge on thread wake-up timing.
          if (first.exchange(false)) {
            const auto deadline =
                std::chrono::steady_clock::now() + std::chrono::seconds(2);
            while (in_flight.load() < 2 &&
                   std::chrono::steady_clock::now() < deadline) {
              std::this_thread::yield();
            }
          }
          KlResult r = ExtendedKl(g, init, locked, kl, scratch);
          in_flight.fetch_sub(1);
          return r;
        };
    util::ThreadPool pool(width);
    const MaarCut cut =
        MaarSolver(scenario.graph, {}, GridConfig(), counting).Solve(&pool);
    ASSERT_TRUE(cut.valid) << "width " << width;
    EXPECT_LE(max_in_flight.load(), static_cast<int>(width))
        << "width " << width;
    EXPECT_GE(max_in_flight.load(), 2) << "width " << width;
  }
}

// A small-world legit graph with a colluding fake region, on which the
// sweep's incumbent changes after it is first set: the first valid cut
// appears at k = 1/2 (ratio 1.5) and the warm run at k = 1 improves it to
// ~0.44. A speculative warm run at k >= 2 seeded before the k = 1 runs
// finish therefore guesses the wrong incumbent.
sim::Scenario ImprovingWarmRunScenario() {
  util::Rng rng(15);
  const auto legit = gen::WattsStrogatz(
      {.num_nodes = 600, .lattice_degree = 6, .rewire_probability = 0.1}, rng);
  sim::ScenarioConfig cfg;
  cfg.seed = 2;
  cfg.num_fakes = 60;
  cfg.requests_per_spammer = 15;
  cfg.intra_fake_links_per_account = 20;
  return sim::BuildScenario(legit, cfg);
}

// Holds every KL run at k_hold until a speculative run has started, every
// pool worker is held, or 2 s pass. While a run at k_hold is held the
// reduction cannot pass it, so no warm run above k_hold can fall due, and a
// run at a larger k beyond that k's grid cells must be a speculation. The
// held runs keep the free workers' speculations ahead of the k_hold results
// on any host, sanitizers included.
class HoldAtK {
 public:
  HoldAtK(double k_hold, int cells_per_k, int width)
      : k_hold_(k_hold), cells_per_k_(cells_per_k), width_(width) {}

  void Enter(double k) {
    std::unique_lock<std::mutex> lock(mu_);
    if (k > k_hold_ && ++started_[k] > cells_per_k_) {
      speculated_ = true;
      cv_.notify_all();
    }
    if (k != k_hold_) return;
    ++held_;
    cv_.notify_all();
    cv_.wait_for(lock, std::chrono::seconds(2),
                 [&] { return speculated_ || held_ >= width_; });
    --held_;
  }

 private:
  const double k_hold_;
  const int cells_per_k_;
  const int width_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::map<double, int> started_;
  int held_ = 0;
  bool speculated_ = false;
};

// Speculative warm runs change when the chain runs, never what the sweep
// returns: with runs at k = 1 held back so that speculations both hit and
// miss, every width reproduces the 1-thread cut and its counters.
TEST(ParallelMaarTest, SpeculationKeepsTheSerialCut) {
  const auto scenario = ImprovingWarmRunScenario();
  MaarConfig cfg = GridConfig();
  cfg.num_threads = 1;
  const MaarCut reference = MaarSolver(scenario.graph, {}, cfg).Solve();
  ASSERT_TRUE(reference.valid);
  EXPECT_EQ(reference.speculative_runs, 0);

  bool missed = false;
  for (const int width : {2, 3, 4, 8}) {
    HoldAtK hold(1.0, cfg.num_random_inits + 1, width);
    const MaarSolver::KlRunner held =
        [&](const graph::AugmentedGraph& g, const std::vector<char>& init,
            const std::vector<char>& locked, const KlConfig& kl,
            KlScratch* scratch) {
          hold.Enter(kl.k);
          return ExtendedKl(g, init, locked, kl, scratch);
        };
    util::ThreadPool pool(static_cast<std::size_t>(width));
    const MaarCut cut =
        MaarSolver(scenario.graph, {}, cfg, held).Solve(&pool);
    const std::string label = "width " + std::to_string(width) +
                              ", speculative " +
                              std::to_string(cut.speculative_hits) + "/" +
                              std::to_string(cut.speculative_runs);
    ASSERT_TRUE(cut.valid) << label;
    EXPECT_EQ(cut.in_u, reference.in_u) << label;
    EXPECT_EQ(cut.ratio, reference.ratio) << label;
    EXPECT_EQ(cut.k, reference.k) << label;
    EXPECT_EQ(cut.kl_runs, reference.kl_runs) << label;
    EXPECT_EQ(cut.warm_start_runs, reference.warm_start_runs) << label;
    EXPECT_EQ(cut.switches, reference.switches) << label;
    EXPECT_LE(cut.speculative_hits, cut.speculative_runs) << label;
    EXPECT_LE(cut.speculative_hits, cut.warm_start_runs) << label;
    missed = missed || (cut.speculative_runs > 0 &&
                        cut.speculative_hits < cut.speculative_runs);
  }
  EXPECT_TRUE(missed) << "no width discarded a speculative run";
}

// A speculative run the serial sweep never makes must not fail the solve:
// the runner throws on every (k, init) pair the 1-thread sweep did not run,
// and every width still returns the serial cut.
TEST(ParallelMaarTest, SpeculativeFailureNeverSurfaces) {
  const auto scenario = ImprovingWarmRunScenario();
  MaarConfig cfg = GridConfig();
  cfg.num_threads = 1;
  std::set<std::pair<double, std::vector<char>>> serial_runs;
  const MaarSolver::KlRunner recording =
      [&](const graph::AugmentedGraph& g, const std::vector<char>& init,
          const std::vector<char>& locked, const KlConfig& kl,
          KlScratch* scratch) {
        serial_runs.emplace(kl.k, init);
        return ExtendedKl(g, init, locked, kl, scratch);
      };
  const MaarCut reference =
      MaarSolver(scenario.graph, {}, cfg, recording).Solve();
  ASSERT_TRUE(reference.valid);

  std::atomic<int> thrown{0};
  for (int width = 2; width <= 8; ++width) {
    HoldAtK hold(1.0, cfg.num_random_inits + 1, width);
    const MaarSolver::KlRunner serial_only =
        [&](const graph::AugmentedGraph& g, const std::vector<char>& init,
            const std::vector<char>& locked, const KlConfig& kl,
            KlScratch* scratch) {
          hold.Enter(kl.k);
          if (serial_runs.count({kl.k, init}) == 0) {
            thrown.fetch_add(1);
            throw std::runtime_error("a run the serial sweep never made");
          }
          return ExtendedKl(g, init, locked, kl, scratch);
        };
    util::ThreadPool pool(static_cast<std::size_t>(width));
    const MaarCut cut =
        MaarSolver(scenario.graph, {}, cfg, serial_only).Solve(&pool);
    const std::string label = "width " + std::to_string(width);
    ASSERT_TRUE(cut.valid) << label;
    EXPECT_EQ(cut.in_u, reference.in_u) << label;
    EXPECT_EQ(cut.ratio, reference.ratio) << label;
    EXPECT_EQ(cut.kl_runs, reference.kl_runs) << label;
    EXPECT_EQ(cut.warm_start_runs, reference.warm_start_runs) << label;
    EXPECT_EQ(cut.switches, reference.switches) << label;
  }
  EXPECT_GT(thrown.load(), 0) << "no speculative run left the serial path";
}

TEST(ParallelMaarTest, ExternalPoolMatchesOwnedPool) {
  const auto scenario = PlantedScenario();
  MaarConfig cfg = GridConfig();
  cfg.num_threads = 3;
  MaarSolver own(scenario.graph, {}, cfg);
  const MaarCut a = own.Solve();

  util::ThreadPool pool(3);
  MaarSolver ext(scenario.graph, {}, cfg);
  const MaarCut b = ext.Solve(&pool);
  EXPECT_EQ(a.in_u, b.in_u);
  EXPECT_EQ(a.ratio, b.ratio);
  EXPECT_EQ(b.threads_used, 3);
}

TEST(ParallelMaarTest, PipelineDeterministicAcrossThreadCounts) {
  const auto scenario = PlantedScenario();
  util::Rng seed_rng(7);
  const auto seeds = scenario.SampleSeeds(20, 6, seed_rng);

  DetectionResult reference;
  for (const int threads : {1, 4}) {
    IterativeConfig cfg;
    cfg.maar = GridConfig();
    cfg.maar.num_threads = threads;
    cfg.target_detections = scenario.num_fakes;
    const auto result =
        DetectFriendSpammers(scenario.graph, seeds, cfg);
    if (threads == 1) {
      reference = result;
      continue;
    }
    EXPECT_EQ(result.detected, reference.detected);
    EXPECT_EQ(result.rounds.size(), reference.rounds.size());
    EXPECT_EQ(result.total_kl_runs, reference.total_kl_runs);
    EXPECT_EQ(result.total_switches, reference.total_switches);
    EXPECT_EQ(result.threads_used, 4);
  }
  EXPECT_GT(reference.total_kl_runs, 0u);
  EXPECT_GE(reference.total_seconds, 0.0);
}

TEST(ParallelMaarTest, WarmStartNeverWorsensTheRatio) {
  const auto scenario = PlantedScenario();
  MaarConfig cold = GridConfig();
  cold.warm_start = false;
  MaarConfig warm = GridConfig();
  warm.warm_start = true;
  const MaarCut a = MaarSolver(scenario.graph, {}, cold).Solve();
  const MaarCut b = MaarSolver(scenario.graph, {}, warm).Solve();
  ASSERT_TRUE(a.valid);
  ASSERT_TRUE(b.valid);
  EXPECT_LE(b.ratio, a.ratio + 1e-12);
  EXPECT_EQ(a.warm_start_runs, 0);
  EXPECT_GT(b.warm_start_runs, 0);
  EXPECT_EQ(b.kl_runs, a.kl_runs + b.warm_start_runs);
}

TEST(ParallelMaarTest, InstrumentationIsCoherent) {
  const auto scenario = PlantedScenario();
  MaarConfig cfg = GridConfig();
  cfg.num_threads = 2;
  const MaarCut cut = MaarSolver(scenario.graph, {}, cfg).Solve();
  ASSERT_TRUE(cut.valid);
  EXPECT_GT(cut.kl_runs, 0);
  EXPECT_GE(cut.kl_runs, cut.warm_start_runs);
  EXPECT_GT(cut.switches, 0u);
  EXPECT_GE(cut.sweep_seconds, 0.0);
  EXPECT_GE(cut.refine_seconds, 0.0);
  EXPECT_GE(cut.total_seconds, cut.sweep_seconds + cut.refine_seconds);
}

TEST(ParallelMaarTest, EffectiveThreadsResolvesAndClamps) {
  EXPECT_GE(EffectiveThreads(0), 1);  // 0 = hardware concurrency
  EXPECT_EQ(EffectiveThreads(1), 1);
  EXPECT_EQ(EffectiveThreads(6), 6);
  EXPECT_EQ(EffectiveThreads(-3), 1);
}

// Every sweep and pipeline pool size comes from EffectiveThreads, so a
// thread count past util::kMaxThreads is refused there, before a pool
// starts.
TEST(ParallelMaarTest, RefusesMoreThanTheThreadLimit) {
  EXPECT_LE(EffectiveThreads(0), util::kMaxThreads);
  EXPECT_THROW(EffectiveThreads(257), std::invalid_argument);

  const auto scenario = PlantedScenario();
  MaarConfig maar;
  maar.num_threads = 257;
  EXPECT_THROW(MaarSolver(scenario.graph, {}, maar).Solve(),
               std::invalid_argument);
  IterativeConfig cfg;
  cfg.maar.num_threads = 257;
  EXPECT_THROW(DetectFriendSpammers(scenario.graph, {}, cfg),
               std::invalid_argument);
}

TEST(ParallelMaarTest, GainBoundMaximaMatchBruteForce) {
  // The cached degree maxima GainBound relies on (computed at graph build /
  // compaction) must agree with a direct scan.
  const auto scenario = PlantedScenario();
  const auto& g = scenario.graph;
  std::uint64_t max_f = 0, max_r = 0;
  for (graph::NodeId v = 0; v < g.NumNodes(); ++v) {
    max_f = std::max<std::uint64_t>(max_f, g.Friendships().Degree(v));
    max_r = std::max<std::uint64_t>(
        max_r, static_cast<std::uint64_t>(g.Rejections().InDegree(v) +
                                          g.Rejections().OutDegree(v)));
  }
  EXPECT_EQ(g.MaxFriendshipDegree(), max_f);
  EXPECT_EQ(g.MaxRejectionDegree(), max_r);
  EXPECT_GT(max_r, 0u);  // the scenario actually planted rejections
}

// A pipeline of no rounds is refused at each DetectFriendSpammers entry
// before its pool starts: with 257 threads a later check would throw the
// thread-limit error instead of naming max_rounds.
TEST(ParallelMaarTest, RefusesFewerThanOneRoundBeforeAPoolStarts) {
  const auto scenario = PlantedScenario();
  const auto expect_refused = [](const auto& call, int rounds) {
    try {
      call();
      ADD_FAILURE() << "max_rounds " << rounds << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("max_rounds"), std::string::npos)
          << e.what();
    }
  };
  for (const int rounds : {0, -1, std::numeric_limits<int>::min()}) {
    IterativeConfig cfg;
    cfg.max_rounds = rounds;
    cfg.maar.num_threads = 257;
    expect_refused([&] { DetectFriendSpammers(scenario.graph, {}, cfg); },
                   rounds);
    const MaarRunner never = [](const graph::AugmentedGraph&, const Seeds&,
                                const MaarConfig&) {
      ADD_FAILURE() << "a round ran";
      return MaarCut{};
    };
    expect_refused(
        [&] { DetectFriendSpammers(scenario.graph, {}, cfg, never); },
        rounds);
    EXPECT_THROW(ValidateIterativeConfig(cfg), std::invalid_argument);
  }
  IterativeConfig one;
  one.max_rounds = 1;
  one.maar.num_threads = 1;
  EXPECT_NO_THROW(ValidateIterativeConfig(one));
  EXPECT_LE(DetectFriendSpammers(scenario.graph, {}, one).rounds.size(), 1u);
}

}  // namespace
}  // namespace rejecto::detect
