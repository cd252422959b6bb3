#include "detect/iterative.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>

#include "graph/compressed_view.h"
#include "graph/subgraph.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace rejecto::detect {
namespace {

// Per-node suspicion on the residual graph: the fraction of a node's
// incoming requests that were rejections. Used only to trim the final
// round's overshoot to the detection target.
double Suspicion(const graph::AugmentedGraph& g, graph::NodeId v) {
  const double rej = g.Rejections().InDegree(v);
  const double fr = g.Friendships().Degree(v);
  return (rej + fr) == 0 ? 0.0 : rej / (rej + fr);
}

// One pool for the whole pipeline: rounds reuse it instead of paying
// thread construction per residual solve.
std::unique_ptr<util::ThreadPool> MakePool(const IterativeConfig& config) {
  const int threads = EffectiveThreads(config.maar.num_threads);
  if (threads <= 1) return nullptr;
  return std::make_unique<util::ThreadPool>(static_cast<std::size_t>(threads));
}

// The serial per-round solve: MaarSolver's sweep on `pool`.
MaarRunner SolveOn(util::ThreadPool* pool) {
  return [pool](const graph::AugmentedGraph& residual, const Seeds& s,
                const MaarConfig& maar) {
    return MaarSolver(residual, s, maar).Solve(pool);
  };
}

// The one §IV-E loop: solve MAAR on the residual, flag the U region, prune
// it, repeat. No round prunes after the last permitted round or once the
// target is reached — that residual would never be read.
DetectionResult RunRounds(const graph::AugmentedGraph& g, const Seeds& seeds,
                          const IterativeConfig& config,
                          const MaarRunner& solve, util::ThreadPool* pool) {
  util::WallTimer total_timer;
  DetectionResult result;

  // Round 0 reads the input directly; only the compacted rounds build a
  // residual graph of their own.
  const graph::AugmentedGraph* residual = &g;
  graph::AugmentedGraph residual_storage;
  std::vector<graph::NodeId> to_original(g.NumNodes());
  std::iota(to_original.begin(), to_original.end(), 0);
  Seeds cur_seeds = seeds;
  const auto target_reached = [&] {
    return config.target_detections != 0 &&
           result.detected.size() >= config.target_detections;
  };

  for (int round = 0; round < config.max_rounds; ++round) {
    const graph::NodeId n = residual->NumNodes();
    // Mirror MaarSolver's clamp of the minimum region size.
    const graph::NodeId min_region = std::max<graph::NodeId>(
        1, std::min<graph::NodeId>(config.maar.min_region_size, n / 2));
    if (n < 2 * min_region) break;

    MaarConfig maar = config.maar;
    maar.seed = config.maar.seed + static_cast<std::uint64_t>(round) * 0x9e37ULL;
    util::WallTimer round_timer;
    const MaarCut cut = solve(*residual, cur_seeds, maar);
    const double round_seconds = round_timer.Seconds();
    result.total_kl_runs += static_cast<std::uint64_t>(cut.kl_runs);
    result.total_switches += cut.switches;
    result.total_speculative_runs +=
        static_cast<std::uint64_t>(cut.speculative_runs);
    result.total_speculative_hits +=
        static_cast<std::uint64_t>(cut.speculative_hits);
    result.threads_used = std::max(result.threads_used, cut.threads_used);
    if (!cut.valid) break;

    const double acceptance = cut.cut.AcceptanceRate();
    if (config.acceptance_rate_threshold >= 0.0 &&
        acceptance > config.acceptance_rate_threshold) {
      break;  // remaining cuts no longer look like friend spam
    }

    RoundInfo info;
    info.cut = cut.cut;
    info.ratio = cut.ratio;
    info.acceptance_rate = acceptance;
    info.k = cut.k;
    info.solve_seconds = round_seconds;
    info.kl_runs = cut.kl_runs;
    info.switches = cut.switches;
    info.speculative_runs = cut.speculative_runs;
    info.speculative_hits = cut.speculative_hits;

    // Collect this round's suspicious nodes (residual ids, ascending).
    std::vector<graph::NodeId> flagged;
    for (graph::NodeId v = 0; v < n; ++v) {
      if (cut.in_u[v]) flagged.push_back(v);
    }

    // Trim a final-round overshoot to the exact target, most suspicious
    // first, so precision@target is well defined. Suspicion is computed
    // once per candidate, not once per comparison; the stable index sort
    // keeps ties in flagged (= node id) order, exactly as sorting the node
    // list directly did.
    const bool overshoots =
        config.target_detections != 0 && config.trim_to_target &&
        result.detected.size() + flagged.size() > config.target_detections;
    if (overshoots) {
      const std::size_t room =
          static_cast<std::size_t>(config.target_detections) -
          result.detected.size();
      std::vector<double> susp(flagged.size());
      for (std::size_t i = 0; i < flagged.size(); ++i) {
        susp[i] = Suspicion(*residual, flagged[i]);
      }
      std::vector<std::size_t> order(flagged.size());
      std::iota(order.begin(), order.end(), 0);
      std::stable_sort(order.begin(), order.end(),
                       [&](std::size_t a, std::size_t b) {
                         return susp[a] > susp[b];
                       });
      std::vector<graph::NodeId> trimmed(room);
      for (std::size_t i = 0; i < room; ++i) trimmed[i] = flagged[order[i]];
      flagged = std::move(trimmed);
    }

    info.detected.reserve(flagged.size());
    for (graph::NodeId v : flagged) {
      info.detected.push_back(to_original[v]);
      result.detected.push_back(to_original[v]);
    }
    result.rounds.push_back(std::move(info));

    if (round + 1 >= config.max_rounds || target_reached()) break;

    // Prune the *entire* U region (not the trimmed set) with its links and
    // rejections, then remap the surviving seeds.
    std::vector<char> keep(n, 1);
    for (graph::NodeId v = 0; v < n; ++v) {
      if (cut.in_u[v]) keep[v] = 0;
    }
    graph::CompactedGraph compacted =
        graph::InducedSubgraph(*residual, keep, pool);

    std::vector<graph::NodeId> new_id(n, graph::kInvalidNode);
    for (graph::NodeId nid = 0;
         nid < static_cast<graph::NodeId>(compacted.parent_id.size()); ++nid) {
      new_id[compacted.parent_id[nid]] = nid;
    }
    Seeds next_seeds;
    for (graph::NodeId v : cur_seeds.legit) {
      if (new_id[v] != graph::kInvalidNode) next_seeds.legit.push_back(new_id[v]);
    }
    for (graph::NodeId v : cur_seeds.spammer) {
      if (new_id[v] != graph::kInvalidNode) {
        next_seeds.spammer.push_back(new_id[v]);
      }
    }
    std::vector<graph::NodeId> next_to_original(compacted.parent_id.size());
    for (graph::NodeId nid = 0;
         nid < static_cast<graph::NodeId>(compacted.parent_id.size()); ++nid) {
      next_to_original[nid] = to_original[compacted.parent_id[nid]];
    }
    residual_storage = std::move(compacted.graph);
    residual = &residual_storage;
    to_original = std::move(next_to_original);
    cur_seeds = std::move(next_seeds);
  }

  result.hit_target = target_reached();
  result.total_seconds = total_timer.Seconds();
  return result;
}

}  // namespace

void ValidateIterativeConfig(const IterativeConfig& config) {
  if (config.max_rounds < 1) {
    throw std::invalid_argument("IterativeConfig: max_rounds " +
                                std::to_string(config.max_rounds) +
                                " is below 1");
  }
}

DetectionResult DetectFriendSpammers(const graph::AugmentedGraph& g,
                                     const Seeds& seeds,
                                     const IterativeConfig& config) {
  ValidateIterativeConfig(config);
  const auto pool = MakePool(config);
  return DetectFriendSpammers(g, seeds, config, SolveOn(pool.get()),
                              pool.get());
}

DetectionResult DetectFriendSpammers(const graph::AugmentedGraph& g,
                                     const Seeds& seeds,
                                     const IterativeConfig& config,
                                     const MaarRunner& solve,
                                     util::ThreadPool* pool) {
  ValidateIterativeConfig(config);
  seeds.Validate(g.NumNodes());
  return RunRounds(g, seeds, config, solve, pool);
}

DetectionResult DetectFriendSpammersCompressed(
    const graph::CompressedGraphView& view, const Seeds& seeds,
    const IterativeConfig& config) {
  util::WallTimer timer;
  ValidateIterativeConfig(config);
  seeds.Validate(view.NumNodes());
  const auto pool = MakePool(config);
  const graph::AugmentedGraph g = view.Materialize(pool.get()).graph;
  DetectionResult result =
      DetectFriendSpammers(g, seeds, config, SolveOn(pool.get()), pool.get());
  result.total_seconds = timer.Seconds();
  return result;
}

}  // namespace rejecto::detect
