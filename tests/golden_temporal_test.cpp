// Golden pins for the three ADAPTIVE temporal adversaries: a fixed seeded
// world driven through the early-detection harness must keep producing the
// exact final detected set and the exact time-to-detection histogram.
// Catches silent behaviour drift anywhere in the temporal stack — the
// adversary policies, propensity draws, suspension feedback, the epoch
// pipeline, or the incremental scoring tier that assigns first-flags.
//
// Regenerating after an INTENDED behaviour change:
//   REJECTO_REGEN_GOLDEN=1 ./build/tests/golden_temporal_test
// then inspect the diffs of tests/golden/temporal_*.txt and commit them
// alongside the change that moved the numbers.
#include <gtest/gtest.h>

#include <array>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gen/erdos_renyi.h"
#include "sim/temporal_eval.h"
#include "study/early_detection.h"
#include "util/flags.h"

#ifndef REJECTO_GOLDEN_DIR
#error "REJECTO_GOLDEN_DIR must be defined by the build"
#endif

namespace rejecto {
namespace {

// Histogram buckets over spam-requests-sent-before-first-flag:
// [0,5) [5,10) [10,20) [20,50) [50,inf) plus a never-detected bucket.
constexpr std::size_t kNumBuckets = 6;
constexpr std::uint32_t kBucketEdges[] = {5, 10, 20, 50};

struct GoldenResult {
  std::vector<graph::NodeId> detected;        // final epoch, pipeline order
  std::array<std::uint64_t, kNumBuckets> ttd_histogram{};
};

std::size_t BucketOf(std::int64_t ttd) {
  if (ttd < 0) return kNumBuckets - 1;  // never detected
  for (std::size_t b = 0; b < 4; ++b) {
    if (ttd < kBucketEdges[b]) return b;
  }
  return 4;
}

GoldenResult RunPinnedWorkload(sim::AdversaryKind kind) {
  // Fully seeded and thread-invariant, so the outputs are stable across
  // machines and pool widths.
  // Sized so the attack unfolds across the intervals rather than the
  // prelude epoch isolating the arrival-linked fake cluster outright.
  util::Rng graph_rng(321);
  const auto legit =
      gen::ErdosRenyi({.num_nodes = 400, .num_edges = 1600}, graph_rng);
  sim::TemporalEvalConfig cfg;
  cfg.seed = 99;
  cfg.num_fakes = 60;
  cfg.num_intervals = 4;
  cfg.requests_per_spammer_per_interval = 5;
  cfg.adversary = kind;

  sim::TemporalWorld world(legit, cfg);
  sim::AdaptiveAdversary adversary(world);
  util::Rng seed_rng(7);
  const auto seeds = world.SampleSeeds(12, 6, seed_rng);

  study::EarlyDetectionConfig ecfg;
  ecfg.detect.target_detections = world.NumFakes();
  ecfg.detect.maar.seed = 31;
  ecfg.detect.maar.num_threads = util::ThreadCount();
  const auto res = study::RunEarlyDetection(world, adversary, seeds, ecfg);

  // Sanity floors so a golden never pins a degenerate run: the campaign
  // must actually happen and most of the region must get caught.
  EXPECT_GT(res.total_spam_requests, 0u);
  EXPECT_GE(res.spammers_detected, res.spammers_total / 2);

  GoldenResult r;
  r.detected = res.final_detection.detected;
  for (graph::NodeId f : world.Spammers()) {
    ++r.ttd_histogram[BucketOf(res.time_to_detection[f])];
  }
  return r;
}

std::string GoldenPath(sim::AdversaryKind kind) {
  return std::string(REJECTO_GOLDEN_DIR "/temporal_") +
         std::string(sim::AdversaryName(kind)) + ".txt";
}

void WriteGolden(sim::AdversaryKind kind, const GoldenResult& r) {
  std::ofstream out(GoldenPath(kind));
  ASSERT_TRUE(out) << "cannot write " << GoldenPath(kind);
  out << "# pinned by golden_temporal_test; regenerate with "
         "REJECTO_REGEN_GOLDEN=1\n";
  out << "ttd_histogram";
  for (std::uint64_t c : r.ttd_histogram) out << ' ' << c;
  out << '\n';
  out << "detected " << r.detected.size();
  for (graph::NodeId v : r.detected) out << ' ' << v;
  out << '\n';
}

GoldenResult ReadGolden(sim::AdversaryKind kind) {
  std::ifstream in(GoldenPath(kind));
  EXPECT_TRUE(in) << "missing golden file " << GoldenPath(kind)
                  << " — regenerate with REJECTO_REGEN_GOLDEN=1";
  GoldenResult r;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "ttd_histogram") {
      for (std::size_t b = 0; b < kNumBuckets; ++b) ls >> r.ttd_histogram[b];
    } else if (key == "detected") {
      std::size_t count = 0;
      ls >> count;
      r.detected.resize(count);
      for (std::size_t i = 0; i < count; ++i) ls >> r.detected[i];
    }
  }
  return r;
}

class GoldenTemporalTest
    : public ::testing::TestWithParam<sim::AdversaryKind> {};

TEST_P(GoldenTemporalTest, DetectedSetAndTtdHistogramPinned) {
  const sim::AdversaryKind kind = GetParam();
  const GoldenResult actual = RunPinnedWorkload(kind);
  if (util::RegenGolden()) {
    WriteGolden(kind, actual);
    GTEST_SKIP() << "golden regenerated at " << GoldenPath(kind);
  }
  const GoldenResult expected = ReadGolden(kind);
  EXPECT_EQ(actual.ttd_histogram, expected.ttd_histogram);
  EXPECT_EQ(actual.detected, expected.detected);
}

INSTANTIATE_TEST_SUITE_P(
    AdaptiveAdversaries, GoldenTemporalTest,
    ::testing::Values(sim::AdversaryKind::kProbeThenFlood,
                      sim::AdversaryKind::kRejectionRetarget,
                      sim::AdversaryKind::kSlowDripCollusion),
    [](const ::testing::TestParamInfo<sim::AdversaryKind>& info) {
      return std::string(sim::AdversaryName(info.param));
    });

}  // namespace
}  // namespace rejecto
