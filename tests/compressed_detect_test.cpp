// Detection off a compressed snapshot must be BIT-identical to the in-RAM
// pipeline: same MAAR cuts, same rounds, same detected sets, at any thread
// count (the acceptance bar for RJSNAP02 — compression must never change an
// answer). Covers MaarSolver's view constructor, the compressed iterative
// pipeline and a damaged snapshot on that pipeline.
// (EpochDetector::FromSnapshot is pinned against direct construction in
// snapshot_test.)
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "detect/iterative.h"
#include "detect/maar.h"
#include "gen/holme_kim.h"
#include "graph/compressed_view.h"
#include "graph/snapshot.h"
#include "sim/scenario.h"
#include "util/rng.h"

namespace rejecto {
namespace {

namespace fs = std::filesystem;

using graph::AugmentedGraph;
using graph::CompressedGraphView;
using graph::NodeId;

class CompressedDetectTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("rejecto_cdetect_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + std::to_string(reinterpret_cast<std::uintptr_t>(this)));
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

sim::Scenario MakeAttackScenario(std::uint64_t seed, NodeId n = 800,
                                 NodeId fakes = 80) {
  util::Rng rng(seed);
  const auto legit = gen::HolmeKim({.num_nodes = n, .edges_per_node = 3}, rng);
  sim::ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.num_fakes = fakes;
  return sim::BuildScenario(legit, cfg);
}

// Saves g as identity-layout RJSNAP02 and opens the view.
CompressedGraphView SaveAndOpen(const std::string& path,
                                const AugmentedGraph& g,
                                std::uint32_t block_rows = 128) {
  graph::SnapshotOptions opts;
  opts.format = graph::SnapshotFormat::kRjsnap02;
  opts.block_rows = block_rows;
  graph::SaveSnapshot(path, g, graph::Layout{}, opts);
  return CompressedGraphView::Open(path);
}

void ExpectSameResult(const detect::DetectionResult& ram,
                      const detect::DetectionResult& mm,
                      const std::string& label) {
  EXPECT_EQ(ram.detected, mm.detected) << label;
  EXPECT_EQ(ram.hit_target, mm.hit_target) << label;
  // The work counters too: a driver that drops or repeats a solve shows up
  // here even when the detected sets happen to agree.
  EXPECT_EQ(ram.total_kl_runs, mm.total_kl_runs) << label;
  EXPECT_EQ(ram.total_switches, mm.total_switches) << label;
  EXPECT_EQ(ram.threads_used, mm.threads_used) << label;
  ASSERT_EQ(ram.rounds.size(), mm.rounds.size()) << label;
  for (std::size_t r = 0; r < ram.rounds.size(); ++r) {
    const detect::RoundInfo& a = ram.rounds[r];
    const detect::RoundInfo& b = mm.rounds[r];
    EXPECT_EQ(a.detected, b.detected) << label << " round " << r;
    EXPECT_EQ(a.cut.cross_friendships, b.cut.cross_friendships)
        << label << " round " << r;
    EXPECT_EQ(a.cut.rejections_into_u, b.cut.rejections_into_u)
        << label << " round " << r;
    EXPECT_EQ(a.cut.rejections_from_u, b.cut.rejections_from_u)
        << label << " round " << r;
    EXPECT_EQ(a.ratio, b.ratio) << label << " round " << r;
    EXPECT_EQ(a.k, b.k) << label << " round " << r;
    EXPECT_EQ(a.acceptance_rate, b.acceptance_rate)
        << label << " round " << r;
    EXPECT_EQ(a.kl_runs, b.kl_runs) << label << " round " << r;
    EXPECT_EQ(a.switches, b.switches) << label << " round " << r;
  }
}

// An acceptance-rate threshold under which `base` stops before flagging
// round `stop`: at least every earlier round's rate, below round `stop`'s.
// Returns a negative value (threshold disabled) when `base` has no such
// round.
double ThresholdStoppingAt(const detect::DetectionResult& base,
                           std::size_t stop) {
  if (stop >= base.rounds.size()) return -1.0;
  double below = 0.0;
  for (std::size_t r = 0; r < stop; ++r) {
    below = std::max(below, base.rounds[r].acceptance_rate);
  }
  const double above = base.rounds[stop].acceptance_rate;
  return above > below ? (below + above) / 2 : -1.0;
}

// The config branches the round loop takes, each as a variant of `base`
// (which should set a target the first round reaches): the defaults, a
// single round (batch_ooc's config), no trim, several untargeted rounds, a
// target reached (and trimmed to) in round 1, and acceptance thresholds
// stopping at round 0 and at a later round. The last three are derived
// from an untargeted run on `g`.
std::vector<std::pair<std::string, detect::IterativeConfig>> ConfigVariants(
    const AugmentedGraph& g, const detect::Seeds& seeds,
    const detect::IterativeConfig& base) {
  std::vector<std::pair<std::string, detect::IterativeConfig>> out;
  out.emplace_back("defaults", base);
  auto one_round = base;
  one_round.max_rounds = 1;
  out.emplace_back("max_rounds=1", one_round);
  auto no_trim = base;
  no_trim.trim_to_target = false;
  out.emplace_back("no trim", no_trim);
  auto untargeted = base;
  untargeted.target_detections = 0;
  untargeted.max_rounds = 6;
  out.emplace_back("untargeted", untargeted);

  const auto ran = detect::DetectFriendSpammers(g, seeds, untargeted);
  if (ran.rounds.size() < 2) {
    ADD_FAILURE() << "the untargeted run should flag at least two rounds";
    return out;
  }
  auto later_target = base;
  later_target.target_detections = ran.rounds[0].detected.size() + 10;
  out.emplace_back("target in round 1", later_target);
  auto stop0 = untargeted;
  stop0.acceptance_rate_threshold = ThresholdStoppingAt(ran, 0);
  EXPECT_GE(stop0.acceptance_rate_threshold, 0.0);
  out.emplace_back("threshold stops at round 0", stop0);
  auto stop_later = untargeted;
  for (std::size_t r = ran.rounds.size(); r-- > 1;) {
    const double t = ThresholdStoppingAt(ran, r);
    if (t >= 0.0) stop_later.acceptance_rate_threshold = t;
  }
  EXPECT_GE(stop_later.acceptance_rate_threshold, 0.0)
      << "no later round has a higher acceptance rate than all before it";
  out.emplace_back("threshold stops at a later round", stop_later);
  return out;
}

// ---------- MAAR over the view ----------

TEST_F(CompressedDetectTest, MaarSolverViewModeMatchesRamBitForBit) {
  const auto scenario = MakeAttackScenario(5, 600, 60);
  const AugmentedGraph& g = scenario.graph;
  const auto view = SaveAndOpen(Path("g.snap2"), g);

  util::Rng seed_rng(7);
  const auto seeds = scenario.SampleSeeds(20, 8, seed_rng);
  detect::MaarConfig grid;
  grid.num_random_inits = 2;
  grid.seed = 99;
  // One k: a 3-cell grid, narrower than the widest pool below.
  detect::MaarConfig one_k = grid;
  one_k.k_min = one_k.k_max = 1.0;

  for (const auto& [name, cfg] :
       {std::pair<std::string, detect::MaarConfig>{"grid", grid},
        {"one k", one_k}}) {
    auto serial = cfg;
    serial.num_threads = 1;
    const auto ref = detect::MaarSolver(g, seeds, serial).Solve();
    ASSERT_TRUE(ref.valid) << name;

    // Every width, in RAM and off the view, against the 1-thread RAM cut.
    for (const int threads : {1, 2, 3, 4, 8}) {
      auto run_cfg = cfg;
      run_cfg.num_threads = threads;
      const auto ram = detect::MaarSolver(g, seeds, run_cfg).Solve();
      const auto mm = detect::MaarSolver(view, seeds, run_cfg).Solve();
      for (const auto* got : {&ram, &mm}) {
        std::string label = name;
        label += got == &ram ? " ram threads " : " view threads ";
        label += std::to_string(threads);
        // Speculative warm runs depend on timing: reported, never compared.
        label += ", speculative " + std::to_string(got->speculative_hits) +
                 "/" + std::to_string(got->speculative_runs);
        ASSERT_EQ(ref.valid, got->valid) << label;
        EXPECT_EQ(ref.in_u, got->in_u) << label;
        EXPECT_EQ(ref.cut.cross_friendships, got->cut.cross_friendships)
            << label;
        EXPECT_EQ(ref.cut.rejections_into_u, got->cut.rejections_into_u)
            << label;
        EXPECT_EQ(ref.cut.rejections_from_u, got->cut.rejections_from_u)
            << label;
        EXPECT_EQ(ref.ratio, got->ratio) << label;
        EXPECT_EQ(ref.k, got->k) << label;
        EXPECT_EQ(ref.kl_runs, got->kl_runs) << label;
        EXPECT_EQ(ref.warm_start_runs, got->warm_start_runs) << label;
        EXPECT_EQ(ref.switches, got->switches) << label;
      }
    }
  }
}

// ---------- the full pipeline, property-style ----------

TEST_F(CompressedDetectTest, FullPipelineBitIdenticalAtOneTwoEightThreads) {
  // The view pipeline must match the in-RAM one on the loaded graph.
  for (const std::uint64_t seed : {11ULL, 13ULL}) {
    const auto scenario = MakeAttackScenario(seed, 800, 80);
    util::Rng seed_rng(seed * 3 + 1);
    const auto seeds = scenario.SampleSeeds(20, 8, seed_rng);
    const std::string path = Path("g" + std::to_string(seed) + ".snap2");
    const auto view = SaveAndOpen(path, scenario.graph);
    const AugmentedGraph g = graph::LoadSnapshot(path).graph;

    detect::IterativeConfig base;
    base.target_detections = scenario.num_fakes;
    base.maar.seed = seed * 7919 + 13;
    base.maar.num_random_inits = 2;
    base.maar.num_threads = 1;

    for (auto [name, cfg] : ConfigVariants(g, seeds, base)) {
      for (const int threads : {1, 2, 8}) {
        cfg.maar.num_threads = threads;
        const auto ram = detect::DetectFriendSpammers(g, seeds, cfg);
        const auto mm =
            detect::DetectFriendSpammersCompressed(view, seeds, cfg);
        ExpectSameResult(ram, mm,
                         "seed " + std::to_string(seed) + " " + name +
                             " threads " + std::to_string(threads));
      }
    }
  }
}

TEST_F(CompressedDetectTest, BlockSpanDoesNotChangeAnyAnswer) {
  // The block span is a storage knob, never an algorithmic one.
  const auto scenario = MakeAttackScenario(19, 600, 60);
  util::Rng seed_rng(23);
  const auto seeds = scenario.SampleSeeds(15, 6, seed_rng);
  detect::IterativeConfig cfg;
  cfg.target_detections = scenario.num_fakes;
  cfg.maar.seed = 31;
  cfg.maar.num_random_inits = 2;

  const auto ram = detect::DetectFriendSpammers(scenario.graph, seeds, cfg);
  for (const std::uint32_t rows : {64u, 128u, 256u}) {
    const auto view = SaveAndOpen(
        Path("g" + std::to_string(rows) + ".snap2"), scenario.graph, rows);
    const auto mm = detect::DetectFriendSpammersCompressed(view, seeds, cfg);
    ExpectSameResult(ram, mm, "block_rows " + std::to_string(rows));
  }
}

// A damaged block is found while the snapshot is materialized, before any
// KL run: the error names the section, the block and the CRC mismatch, at
// every width.
TEST_F(CompressedDetectTest, DamagedBlockThrowsCrcMismatchBeforeDetection) {
  const auto scenario = MakeAttackScenario(37, 600, 60);
  util::Rng seed_rng(41);
  const auto seeds = scenario.SampleSeeds(15, 6, seed_rng);
  const std::string path = Path("g.snap2");
  NodeId block = 0;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  {
    const auto view = SaveAndOpen(path, scenario.graph);
    block = view.NumBlocks() / 2;
    view.BlockFileRange(CompressedGraphView::kRejIn, block, &offset, &length);
  }
  ASSERT_GT(length, 0u);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    const auto at = static_cast<std::streamoff>(offset + length / 2);
    f.seekg(at);
    const char byte = static_cast<char>(f.get());
    f.seekp(at);
    f.put(static_cast<char>(byte ^ 0x20));
    ASSERT_TRUE(f.good());
  }
  // Opening reads only the indexes, so it still succeeds.
  const auto view = CompressedGraphView::Open(path);
  detect::IterativeConfig cfg;
  cfg.target_detections = scenario.num_fakes;
  for (const int threads : {1, 2, 8}) {
    cfg.maar.num_threads = threads;
    try {
      detect::DetectFriendSpammersCompressed(view, seeds, cfg);
      ADD_FAILURE() << "damaged snapshot detected on, threads " << threads;
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("rejection-in-blocks"), std::string::npos) << what;
      EXPECT_NE(what.find("block " + std::to_string(block) + " CRC mismatch"),
                std::string::npos)
          << what;
    }
  }
}

// A pipeline of no rounds is refused before the view is materialized on a
// pool: with 257 threads a later check would name the thread count.
TEST_F(CompressedDetectTest, RefusesFewerThanOneRoundBeforeMaterializing) {
  const auto scenario = MakeAttackScenario(3, 200, 20);
  const auto view = SaveAndOpen(Path("rounds.snap"), scenario.graph);
  detect::IterativeConfig cfg;
  cfg.max_rounds = 0;
  cfg.maar.num_threads = 257;
  try {
    detect::DetectFriendSpammersCompressed(view, {}, cfg);
    ADD_FAILURE() << "max_rounds 0 accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("max_rounds"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace rejecto
