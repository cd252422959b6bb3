// Figure 16: defense in depth with social-graph-based Sybil detection —
// SybilRank's area under the ROC curve as a function of the number of
// suspicious accounts removed by Rejecto, on the facebook and ca-AstroPh
// graphs. The attack plants 10K Sybils of which 5K send 20 spam requests
// each at 70% rejection.
//
// Paper shape: SybilRank's AUC climbs toward ~1 as Rejecto's removals
// approach the 5K spamming accounts — removing the friend spammers strips
// most attack edges, restoring the small-cut assumption social-graph
// defenses need.
#include <iostream>
#include <memory>

#include "baseline/sybilrank.h"
#include "graph/builder.h"
#include "graph/subgraph.h"
#include "harness.h"
#include "metrics/ranking.h"
#include "serve/admission.h"
#include "serve/policy.h"
#include "sim/stream_feed.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

using namespace rejecto;

double SybilRankAuc(const sim::Scenario& scenario,
                    const std::vector<graph::NodeId>& removed,
                    const std::vector<graph::NodeId>& trust_seeds) {
  std::vector<char> keep(scenario.NumNodes(), 1);
  for (graph::NodeId v : removed) keep[v] = 0;
  const auto residual = graph::InducedSubgraph(scenario.graph, keep);

  std::vector<graph::NodeId> new_id(scenario.NumNodes(), graph::kInvalidNode);
  for (graph::NodeId nid = 0;
       nid < static_cast<graph::NodeId>(residual.parent_id.size()); ++nid) {
    new_id[residual.parent_id[nid]] = nid;
  }
  baseline::SybilRankConfig cfg;
  for (graph::NodeId s : trust_seeds) {
    if (new_id[s] != graph::kInvalidNode) {
      cfg.trust_seeds.push_back(new_id[s]);
    }
  }
  const auto scores = baseline::RunSybilRank(residual.graph.Friendships(), cfg);
  std::vector<char> residual_fake(residual.parent_id.size(), 0);
  for (std::size_t nid = 0; nid < residual.parent_id.size(); ++nid) {
    residual_fake[nid] = scenario.is_fake[residual.parent_id[nid]];
  }
  return metrics::AreaUnderRoc(scores, residual_fake);
}

}  // namespace

int main() {
  const auto ctx = bench::ExperimentContext::FromEnv();

  util::Table t({"graph", "pollution", "removed_by_rejecto",
                 "sybilrank_auc"});
  t.set_precision(4);

  // Two pollution levels: the paper's exact workload (20 requests per
  // spammer), and a heavy variant (50). On our synthesized graphs the
  // intra-fake arrival links inflate fake degrees enough that
  // degree-normalized SybilRank already ranks well at the paper's level
  // (AUC ~0.99 before removal); the heavy variant restores the paper's
  // low starting point so the improvement curve is visible. Both rows show
  // the same monotone AUC -> ~1 shape (see EXPERIMENTS.md).
  for (const std::string name : {"facebook", "ca-AstroPh"}) {
    if (ctx.fast && name == "ca-AstroPh") continue;
    const auto& legit = bench::Dataset(name, ctx);

    for (const std::uint32_t requests : {20u, 50u}) {
    auto cfg = bench::PaperAttackConfig(ctx);
    cfg.spamming_fraction = 0.5;           // 5K of the 10K Sybils spam
    cfg.requests_per_spammer = requests;
    const auto scenario = sim::BuildScenario(legit, cfg);

    util::Rng seed_rng(ctx.seed ^ 0x16161616ULL);
    const auto seeds =
        scenario.SampleSeeds(ctx.fast ? 40 : 100, ctx.fast ? 10 : 30,
                             seed_rng);

    // One full Rejecto run up to the spamming-half target; removal prefixes
    // give the x-axis points.
    const std::uint64_t max_removed = scenario.num_fakes / 2;
    auto dcfg = bench::PaperDetectorConfig(ctx, max_removed);
    const auto detection =
        detect::DetectFriendSpammers(scenario.graph, seeds, dcfg);

    const std::vector<double> fractions =
        ctx.fast ? std::vector<double>{0.0, 0.5, 1.0}
                 : std::vector<double>{0.0, 0.2, 0.4, 0.6, 0.8, 1.0};
    for (double f : fractions) {
      const auto count = static_cast<std::size_t>(
          f * static_cast<double>(detection.detected.size()));
      std::vector<graph::NodeId> removed(detection.detected.begin(),
                                         detection.detected.begin() +
                                             static_cast<std::ptrdiff_t>(count));
      t.AddRow({name,
                requests == 20 ? std::string("paper(20req)")
                               : std::string("heavy(50req)"),
                static_cast<std::int64_t>(count),
                SybilRankAuc(scenario, removed, seeds.legit)});
    }
    }
  }
  ctx.Emit("fig16",
           "Figure 16: SybilRank ranking quality vs accounts removed by"
           " Rejecto",
           t);
  std::cout << "\nShape check: AUC rises toward ~1 as removals approach the"
               " spamming population.\n";

  // Serving-mode layer of the same defense-in-depth story: instead of
  // removing detected accounts after the fact, run the attack stream
  // through the online admission service (serve/) with the layered policy
  // chain — per-sender token bucket in front of the epoch score threshold —
  // and measure what each layer does to fake vs legit senders at decision
  // time, and how fast that one reader decides.
  {
    const auto& legit = bench::Dataset("facebook", ctx);
    auto cfg = bench::PaperAttackConfig(ctx);
    cfg.spamming_fraction = 0.5;
    const auto scenario = sim::BuildScenario(legit, cfg);
    const stream::MutationLog log = sim::ToMutationLog(scenario.log);
    util::Rng seed_rng(ctx.seed ^ 0x5e71ceULL);
    const auto seeds =
        scenario.SampleSeeds(ctx.fast ? 40 : 100, ctx.fast ? 10 : 30,
                             seed_rng);

    serve::AdmissionConfig scfg;
    scfg.epoch.detect =
        bench::PaperDetectorConfig(ctx, scenario.num_fakes / 2);
    scfg.epoch.events_per_epoch = log.NumEvents() / 2 + 1;
    scfg.grey_margin = 2.0;
    serve::AdmissionService svc(
        graph::GraphBuilder(log.NumNodes()).BuildAugmented(), seeds, scfg);
    serve::TokenBucketConfig tb;
    tb.capacity = 20.0;
    tb.refill_per_tick = 1.0;
    tb.on_limit = serve::Verdict::kGrey;
    tb.num_senders = static_cast<std::size_t>(log.NumNodes());
    svc.AddPolicy(std::make_unique<serve::TokenBucketPolicy>(tb));

    auto reader = svc.CreateReader();
    util::WallTimer ingest_timer;
    for (const stream::Event& e : log.Events()) svc.Submit(e);
    svc.Drain();
    const double ingest_seconds = ingest_timer.Seconds();
    svc.ForceEpoch();

    // One post-epoch admission decision per account (logical time = one
    // tick per sweep, so the bucket layer only fires on senders the stream
    // itself saturated — none here; the score layer carries the load).
    std::int64_t fake_rejected = 0, fake_greyed = 0, fake_admitted = 0;
    std::int64_t legit_rejected = 0, legit_greyed = 0, legit_admitted = 0;
    util::WallTimer decide_timer;
    for (graph::NodeId s = 0; s < scenario.NumNodes(); ++s) {
      const serve::Decision d = reader.Decide(s, 1);
      const bool fake = scenario.is_fake[s] != 0;
      switch (d.verdict) {
        case serve::Verdict::kReject: (fake ? fake_rejected
                                            : legit_rejected)++; break;
        case serve::Verdict::kGrey: (fake ? fake_greyed
                                          : legit_greyed)++; break;
        case serve::Verdict::kAdmit: (fake ? fake_admitted
                                           : legit_admitted)++; break;
      }
    }
    const double decide_seconds = decide_timer.Seconds();

    util::Table st({"senders", "verdict", "count"});
    st.AddRow({std::string("fake"), std::string("reject"), fake_rejected});
    st.AddRow({std::string("fake"), std::string("grey"), fake_greyed});
    st.AddRow({std::string("fake"), std::string("admit"), fake_admitted});
    st.AddRow({std::string("legit"), std::string("reject"), legit_rejected});
    st.AddRow({std::string("legit"), std::string("grey"), legit_greyed});
    st.AddRow({std::string("legit"), std::string("admit"), legit_admitted});
    ctx.Emit("fig16_serving",
             "Figure 16 (serving mode): admission verdicts by sender class"
             " under the token-bucket + score-threshold chain",
             st);

    const serve::AdmissionStats stats = svc.Stats();
    util::Table perf({"decisions_per_s", "ingest_events_per_s", "epochs",
                      "publish_stall_us", "sampled_p50_ns",
                      "sampled_p99_ns", "latency_samples"});
    perf.set_precision(0);
    perf.AddRow(
        {static_cast<double>(reader.Decisions()) / decide_seconds,
         static_cast<double>(stats.events_ingested) / ingest_seconds,
         static_cast<std::int64_t>(stats.epochs_published),
         stats.epochs_published > 0
             ? 1e6 * stats.snapshot_seconds_total /
                   static_cast<double>(stats.epochs_published)
             : 0.0,
         static_cast<std::int64_t>(reader.Latency().P50()),
         static_cast<std::int64_t>(reader.Latency().P99()),
         static_cast<std::int64_t>(reader.Latency().Count())});
    ctx.Emit("fig16_serving_perf",
             "Figure 16 (serving mode): one reader's decision throughput and"
             " latency (p50/p99 over the 1-in-64 sample of decisions the"
             " Reader times)",
             perf);
  }
  return 0;
}
