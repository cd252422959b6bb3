// Figure 17 (appendix A): the four sensitivity sweeps of §VI-B repeated on
// the six non-facebook graphs of Table I — columns: (a) request volume with
// all fakes spamming, (b) request volume with half spamming, (c) spam
// rejection rate, (d) legitimate rejection rate.
//
// Paper shape: the same trends as Figs 9-12 on every graph. Full mode runs
// all six graphs with thinned 3-point sweeps per column (the full 10-point
// sweeps live in the per-figure binaries); REJECTO_FIG17_FULL=1 restores
// 10-point sweeps.
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
  const bool full_sweep = util::Fig17FullSweep();

  util::Table t({"graph", "scenario", "x", "rejecto", "votetrust"});
  t.set_precision(4);

  for (const std::string& name : bench::AppendixDatasets(ctx)) {
    const auto& legit = bench::Dataset(name, ctx);

    // (a) request volume, all fakes spam.
    for (double req : Thin({5, 20, 35, 50}, full_sweep)) {
      auto cfg = bench::PaperAttackConfig(ctx);
      cfg.requests_per_spammer = static_cast<std::uint32_t>(req);
      const auto r =
          bench::RunBothDetectors(sim::BuildScenario(legit, cfg), ctx);
      t.AddRow({name, std::string("a:req_volume"), req, r.rejecto,
                r.votetrust});
    }
    // (b) request volume, half of the fakes spam.
    for (double req : Thin({5, 20, 35, 50}, full_sweep)) {
      auto cfg = bench::PaperAttackConfig(ctx);
      cfg.requests_per_spammer = static_cast<std::uint32_t>(req);
      cfg.spamming_fraction = 0.5;
      const auto r =
          bench::RunBothDetectors(sim::BuildScenario(legit, cfg), ctx);
      t.AddRow({name, std::string("b:half_spam"), req, r.rejecto,
                r.votetrust});
    }
    // (c) rejection rate of spam requests.
    for (double rate : Thin({0.5, 0.7, 0.95}, full_sweep)) {
      auto cfg = bench::PaperAttackConfig(ctx);
      cfg.spam_rejection_rate = rate;
      const auto r =
          bench::RunBothDetectors(sim::BuildScenario(legit, cfg), ctx);
      t.AddRow({name, std::string("c:spam_rr"), rate, r.rejecto,
                r.votetrust});
    }
    // (d) rejection rate among legitimate users.
    for (double rate : Thin({0.05, 0.4, 0.8}, full_sweep)) {
      auto cfg = bench::PaperAttackConfig(ctx);
      cfg.legit_rejection_rate = rate;
      const auto r =
          bench::RunBothDetectors(sim::BuildScenario(legit, cfg), ctx);
      t.AddRow({name, std::string("d:legit_rr"), rate, r.rejecto,
                r.votetrust});
    }
  }
  ctx.Emit("fig17",
           "Figure 17: sensitivity sweeps on the six appendix graphs", t);
  std::cout << "\nShape check: per graph, same trends as Figs 9-12 —"
               " Rejecto flat-high (a,b), rising in (c), decaying in (d).\n";
  return 0;
}
