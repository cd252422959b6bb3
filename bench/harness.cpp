#include "harness.h"

#include <filesystem>
#include <fstream>
#include <map>

#include "baseline/votetrust.h"
#include "graph/layout.h"
#include "metrics/classification.h"
#include "metrics/ranking.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/timer.h"

namespace rejecto::bench {

ExperimentContext ExperimentContext::FromEnv() {
  ExperimentContext ctx;
  ctx.fast = util::FastBenchMode();
  ctx.seed = util::ExperimentSeed();
  ctx.csv_dir = util::GetEnvString("REJECTO_CSV_DIR");
  return ctx;
}

void ExperimentContext::Emit(const std::string& id, const std::string& title,
                             const util::Table& table) const {
  table.PrintWithTitle(title);
  if (csv_dir) {
    std::filesystem::create_directories(*csv_dir);
    std::ofstream out(*csv_dir + "/" + id + ".csv");
    table.WriteCsv(out);
  }
}

sim::ScenarioConfig PaperAttackConfig(const ExperimentContext& ctx) {
  sim::ScenarioConfig cfg;
  cfg.seed = ctx.seed;
  cfg.num_fakes = ctx.fast ? 2'000 : 10'000;
  cfg.intra_fake_links_per_account = 6;
  cfg.spamming_fraction = 1.0;
  cfg.requests_per_spammer = 20;
  cfg.spam_rejection_rate = 0.7;
  cfg.legit_rejection_rate = 0.2;
  cfg.careless_fraction = 0.15;
  return cfg;
}

detect::IterativeConfig PaperDetectorConfig(const ExperimentContext& ctx,
                                            std::uint64_t target) {
  detect::IterativeConfig cfg;
  cfg.target_detections = target;
  cfg.maar.seed = ctx.seed * 7919 + 13;
  // REJECTO_THREADS (0 = hardware); bit-identical results either way, so
  // every bench may run its sweeps parallel by default.
  cfg.maar.num_threads = util::ThreadCount();
  // REJECTO_LAYOUT (identity|bfs): detection results are invariant under
  // the layout (graph/layout.h), so the knob only changes cache behavior.
  cfg.maar.layout = graph::LayoutPolicyFromEnv();
  return cfg;
}

const graph::SocialGraph& Dataset(const std::string& name,
                                  const ExperimentContext& ctx) {
  static std::map<std::string, graph::SocialGraph> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    it = cache.emplace(name, gen::MakeDataset(name, ctx.seed)).first;
  }
  return it->second;
}

DetectorScores RunBothDetectors(const sim::Scenario& scenario,
                                const ExperimentContext& ctx) {
  util::Rng seed_rng(ctx.seed ^ 0x5eedbeefULL);
  const graph::NodeId n_legit_seeds = ctx.fast ? 40 : 100;
  const graph::NodeId n_spam_seeds = ctx.fast ? 10 : 30;
  const auto seeds =
      scenario.SampleSeeds(n_legit_seeds, n_spam_seeds, seed_rng);

  DetectorScores out;
  {
    util::WallTimer t;
    const auto cfg = PaperDetectorConfig(ctx, scenario.num_fakes);
    const auto result =
        detect::DetectFriendSpammers(scenario.graph, seeds, cfg);
    out.rejecto_seconds = t.Seconds();
    out.rejecto_rounds = static_cast<int>(result.rounds.size());
    out.rejecto =
        metrics::EvaluateDetection(scenario.is_fake, result.detected)
            .Precision();
  }
  {
    baseline::VoteTrustConfig cfg;
    cfg.trust_seeds = seeds.legit;
    const auto vt = baseline::RunVoteTrust(scenario.log, cfg);
    out.votetrust =
        metrics::EvaluateDetection(
            scenario.is_fake,
            metrics::LowestScored(vt.ratings, scenario.num_fakes))
            .Precision();
  }
  return out;
}

std::vector<double> Sweep(std::vector<double> full,
                          const ExperimentContext& ctx) {
  if (!ctx.fast || full.size() <= 3) return full;
  // Keep first, middle, last.
  return {full.front(), full[full.size() / 2], full.back()};
}

std::vector<std::string> AppendixDatasets(const ExperimentContext& ctx) {
  if (ctx.fast) return {"ca-HepTh"};
  return {"ca-HepTh",      "ca-AstroPh",  "email-Enron",
          "soc-Epinions",  "soc-Slashdot", "synthetic"};
}

}  // namespace rejecto::bench
