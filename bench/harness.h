// Shared experiment harness for the per-figure/per-table bench binaries.
//
// Each binary reproduces exactly one table or figure of the paper
// (DESIGN.md §3): it assembles the paper's workload via sim::BuildScenario,
// runs Rejecto and the VoteTrust baseline, and prints the same rows/series
// the paper reports. Environment knobs (util/flags.h):
//   REJECTO_BENCH_FAST=1  reduced sweeps / smaller attack for CI
//   REJECTO_SEED=<u64>    experiment seed (default 42)
//   REJECTO_CSV_DIR=<dir> additionally write each table as CSV
//   REJECTO_THREADS=<n>   MAAR sweep threads (0 = hardware concurrency)
//   REJECTO_LAYOUT=<p>    vertex-layout policy: identity (default) or bfs;
//                         results are invariant, only locality changes
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "detect/iterative.h"
#include "gen/datasets.h"
#include "graph/social_graph.h"
#include "sim/scenario.h"
#include "util/table.h"

namespace rejecto::bench {

struct ExperimentContext {
  bool fast = false;
  std::uint64_t seed = 42;
  std::optional<std::string> csv_dir;

  static ExperimentContext FromEnv();

  // Prints the table with a title and, if csv_dir is set, writes
  // <csv_dir>/<id>.csv.
  void Emit(const std::string& id, const std::string& title,
            const util::Table& table) const;
};

// The paper's common attack setup (§VI-A): 10K fakes, 6 intra-fake links on
// arrival, 20 requests per spammer at 70% rejection, 20% legit rejection
// rate, 15% careless legit users. Fast mode shrinks the fake region to 2K.
sim::ScenarioConfig PaperAttackConfig(const ExperimentContext& ctx);

// Rejecto's default detector configuration for the evaluation: stop at the
// OSN's estimate of the fake population (= the injected count).
detect::IterativeConfig PaperDetectorConfig(const ExperimentContext& ctx,
                                            std::uint64_t target);

// Cached per-process dataset instantiation (Table I registry).
const graph::SocialGraph& Dataset(const std::string& name,
                                  const ExperimentContext& ctx);

struct DetectorScores {
  double rejecto = 0.0;     // precision == recall (declared = injected)
  double votetrust = 0.0;
  double rejecto_seconds = 0.0;
  int rejecto_rounds = 0;
};

// Runs both schemes on the scenario with freshly sampled seeds
// (100 legit / 30 spammer seeds, scaled down in fast mode).
DetectorScores RunBothDetectors(const sim::Scenario& scenario,
                                const ExperimentContext& ctx);

// The sweep values used by a figure, thinned in fast mode.
std::vector<double> Sweep(std::vector<double> full,
                          const ExperimentContext& ctx);

// Dataset list for the appendix figures: the six non-facebook graphs (full
// mode) or just ca-HepTh (fast mode).
std::vector<std::string> AppendixDatasets(const ExperimentContext& ctx);

}  // namespace rejecto::bench
