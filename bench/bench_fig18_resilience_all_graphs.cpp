// Figure 18 (appendix B): the three strategy-resilience sweeps of §VI-C on
// the six non-facebook graphs — columns: (a) collusion, (b) self-rejection,
// (c) legitimate requests rejected by Sybils.
//
// Paper shape: same trends as Figs 13-15 on every graph. 3-point sweeps per
// column by default; REJECTO_FIG18_FULL=1 restores dense sweeps.
#include <iostream>

#include "harness.h"
#include "util/flags.h"
#include "util/table.h"

namespace {

using namespace rejecto;

std::vector<double> Thin(std::vector<double> full, bool full_sweep) {
  if (full_sweep) return full;
  return {full.front(), full[full.size() / 2], full.back()};
}

}  // namespace

int main() {
  const auto ctx = bench::ExperimentContext::FromEnv();
  const bool full_sweep = util::Fig18FullSweep();

  util::Table t({"graph", "scenario", "x", "rejecto", "votetrust"});
  t.set_precision(4);

  for (const std::string& name : bench::AppendixDatasets(ctx)) {
    const auto& legit = bench::Dataset(name, ctx);
    const auto base = bench::PaperAttackConfig(ctx);
    const double scale = static_cast<double>(base.num_fakes) / 10'000.0;

    // (a) collusion: intra-fake accepted edges per account.
    for (double edges : Thin({4, 12, 20, 28, 40}, full_sweep)) {
      auto cfg = base;
      cfg.intra_fake_links_per_account = static_cast<std::uint32_t>(edges);
      const auto r =
          bench::RunBothDetectors(sim::BuildScenario(legit, cfg), ctx);
      t.AddRow({name, std::string("a:collusion"), edges, r.rejecto,
                r.votetrust});
    }
    // (b) self-rejection whitewash.
    for (double rate : Thin({0.05, 0.5, 0.95}, full_sweep)) {
      auto cfg = base;
      cfg.whitewashed_fakes = cfg.num_fakes / 2;
      cfg.self_rejection_rate = rate;
      const auto r =
          bench::RunBothDetectors(sim::BuildScenario(legit, cfg), ctx);
      t.AddRow({name, std::string("b:self_rejection"), rate, r.rejecto,
                r.votetrust});
    }
    // (c) rejections of legitimate requests by Sybils (x in thousands at
    // paper scale, scaled with the fake population).
    for (double k_rej : Thin({16, 80, 160}, full_sweep)) {
      auto cfg = base;
      cfg.legit_requests_rejected_by_fakes =
          static_cast<std::uint64_t>(k_rej * 1000.0 * scale);
      const auto r =
          bench::RunBothDetectors(sim::BuildScenario(legit, cfg), ctx);
      t.AddRow({name, std::string("c:reject_legit(K)"), k_rej, r.rejecto,
                r.votetrust});
    }
  }
  ctx.Emit("fig18",
           "Figure 18: strategy resilience on the six appendix graphs", t);
  std::cout << "\nShape check: per graph, same trends as Figs 13-15.\n";
  return 0;
}
