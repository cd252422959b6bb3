// Golden end-to-end streaming regression: a fixed scenario streamed through
// the EpochDetector must keep producing the exact pinned detected-Sybil set
// and MAAR ratio. Catches any silent behaviour change anywhere in the
// stack — event semantics, compaction, warm starts, the MAAR sweep.
//
// Regenerating the golden file after an INTENDED behaviour change:
//   REJECTO_REGEN_GOLDEN=1 ./build/tests/golden_stream_test
// then inspect the diff of tests/golden/stream_detection.txt and commit it
// alongside the change that moved the numbers.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "engine/epoch_detector.h"
#include "gen/holme_kim.h"
#include "metrics/classification.h"
#include "sim/scenario.h"
#include "sim/stream_feed.h"
#include "util/flags.h"

#ifndef REJECTO_GOLDEN_DIR
#error "REJECTO_GOLDEN_DIR must be defined by the build"
#endif

namespace rejecto {
namespace {

struct GoldenResult {
  double maar_ratio = 0.0;                // first-round ratio, final epoch
  std::vector<graph::NodeId> detected;    // final epoch, sorted by rounds
};

GoldenResult RunPinnedWorkload() {
  // Everything below is seeded; the whole pipeline is deterministic and
  // thread-invariant, so the outputs are stable across machines.
  util::Rng rng(2024);
  const auto legit = gen::HolmeKim(
      {.num_nodes = 1'200, .edges_per_node = 4, .triad_probability = 0.5},
      rng);
  sim::ScenarioConfig cfg;
  cfg.seed = 99;
  cfg.num_fakes = 240;
  const auto scenario = sim::BuildScenario(legit, cfg);
  util::Rng seed_rng(7);
  const auto seeds = scenario.SampleSeeds(20, 8, seed_rng);

  sim::ChurnConfig churn;
  churn.seed = 4242;
  const auto log = sim::GenerateChurnLog(scenario.log, churn);

  engine::EpochConfig ecfg;
  ecfg.detect.target_detections = cfg.num_fakes;
  ecfg.detect.maar.seed = 31;
  ecfg.detect.maar.num_threads = util::ThreadCount();
  ecfg.warm_start = true;
  ecfg.events_per_epoch = log.NumEvents() / 2 + 1;  // one mid-stream epoch
  engine::EpochDetector det(log.NumNodes(), seeds, ecfg);
  det.IngestAll(log.Events());
  const auto& last = det.RunEpoch();

  // Sanity floor so the golden never pins a degenerate run: the pinned
  // detection should remain a near-perfect catch of the injected fakes.
  const auto cm =
      metrics::EvaluateDetection(scenario.is_fake, det.LastResult().detected);
  EXPECT_GE(cm.Precision(), 0.9);
  EXPECT_GE(last.num_detected, 200u);

  return {last.first_round_ratio, det.LastResult().detected};
}

const char* GoldenPath() {
  return REJECTO_GOLDEN_DIR "/stream_detection.txt";
}

void WriteGolden(const GoldenResult& r) {
  std::ofstream out(GoldenPath());
  ASSERT_TRUE(out) << "cannot write " << GoldenPath();
  out.precision(17);
  out << "# pinned by golden_stream_test; regenerate with "
         "REJECTO_REGEN_GOLDEN=1\n";
  out << "maar_ratio " << r.maar_ratio << '\n';
  out << "detected " << r.detected.size();
  for (graph::NodeId v : r.detected) out << ' ' << v;
  out << '\n';
}

GoldenResult ReadGolden() {
  std::ifstream in(GoldenPath());
  EXPECT_TRUE(in) << "missing golden file " << GoldenPath()
                  << " — regenerate with REJECTO_REGEN_GOLDEN=1";
  GoldenResult r;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "maar_ratio") {
      ls >> r.maar_ratio;
    } else if (key == "detected") {
      std::size_t count = 0;
      ls >> count;
      r.detected.resize(count);
      for (std::size_t i = 0; i < count; ++i) ls >> r.detected[i];
    }
  }
  return r;
}

TEST(GoldenStreamTest, DetectedSetAndMaarValuePinned) {
  const GoldenResult actual = RunPinnedWorkload();
  if (util::RegenGolden()) {
    WriteGolden(actual);
    GTEST_SKIP() << "golden regenerated at " << GoldenPath();
  }
  const GoldenResult expected = ReadGolden();
  EXPECT_NEAR(actual.maar_ratio, expected.maar_ratio, 1e-9);
  EXPECT_EQ(actual.detected, expected.detected);
}

}  // namespace
}  // namespace rejecto
