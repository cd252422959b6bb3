// Quickstart: the 60-second tour of the Rejecto public API.
//
//   1. Generate a legitimate social graph (Holme–Kim, Facebook-like).
//   2. Overlay a friend-spam attack (sim::BuildScenario).
//   3. Run the full Rejecto pipeline (detect::DetectFriendSpammers).
//   4. Score the detection against ground truth.
//
// Build & run:  cmake --build build && ./build/examples/quickstart
#include <cstdio>
#include <exception>

#include "detect/iterative.h"
#include "gen/holme_kim.h"
#include "metrics/classification.h"
#include "sim/scenario.h"
#include "util/flags.h"
#include "util/rng.h"

namespace {

int Run() {
  using namespace rejecto;

  // 1. A 5K-user OSN with realistic clustering.
  util::Rng rng(42);
  const auto legit_graph = gen::HolmeKim(
      {.num_nodes = 5'000, .edges_per_node = 4, .triad_probability = 0.5},
      rng);

  // 2. 500 fake accounts flood friend requests: 20 per account, 70% of
  //    which legitimate users reject (the paper's RenRen-measured rate).
  sim::ScenarioConfig attack;
  attack.seed = 7;
  attack.num_fakes = 500;
  attack.requests_per_spammer = 20;
  attack.spam_rejection_rate = 0.7;
  const sim::Scenario scenario = sim::BuildScenario(legit_graph, attack);
  std::printf("OSN: %u users, %llu friendships, %llu rejections\n",
              scenario.NumNodes(),
              static_cast<unsigned long long>(
                  scenario.graph.Friendships().NumEdges()),
              static_cast<unsigned long long>(
                  scenario.graph.Rejections().NumArcs()));

  // 3. Rejecto: a handful of manually-verified seeds, then iterative MAAR
  //    cuts until the OSN's fake-population estimate is reached.
  util::Rng seed_rng(3);
  const detect::Seeds seeds = scenario.SampleSeeds(/*legit=*/25,
                                                   /*spammer=*/8, seed_rng);
  detect::IterativeConfig config;
  config.target_detections = attack.num_fakes;  // OSN estimate
  config.maar.num_threads = util::ThreadCount();  // REJECTO_THREADS, 0=auto
  const detect::DetectionResult result =
      detect::DetectFriendSpammers(scenario.graph, seeds, config);

  // 4. Score.
  const auto cm = metrics::EvaluateDetection(scenario.is_fake, result.detected);
  std::printf(
      "Detected %zu accounts in %zu round(s) — %.3fs, %llu KL runs, "
      "%llu switches, %d sweep thread(s)\n",
      result.detected.size(), result.rounds.size(), result.total_seconds,
      static_cast<unsigned long long>(result.total_kl_runs),
      static_cast<unsigned long long>(result.total_switches),
      result.threads_used);
  for (const auto& round : result.rounds) {
    std::printf(
        "  round: %zu accounts, friends-to-rejections ratio %.3f, aggregate "
        "acceptance rate %.3f\n",
        round.detected.size(), round.ratio, round.acceptance_rate);
  }
  std::printf("precision %.4f, recall %.4f\n", cm.Precision(), cm.Recall());
  return cm.Precision() > 0.9 ? 0 : 1;
}

}  // namespace

int main() {
  try {
    return Run();
  } catch (const std::exception& e) {
    // e.g. a malformed REJECTO_THREADS, named in the message.
    std::fprintf(stderr, "quickstart: %s\n", e.what());
    return 2;
  }
}
