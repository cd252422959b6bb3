#include "detect/maar.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>

#include "util/timer.h"

namespace rejecto::detect {

int EffectiveThreads(int num_threads) {
  if (num_threads == 0) {
    return static_cast<int>(util::HardwareThreads());
  }
  return std::max(1, num_threads);
}

MaarSolver::MaarSolver(const graph::AugmentedGraph& g, Seeds seeds,
                       MaarConfig config)
    : MaarSolver(g, std::move(seeds), config,
                 [](const graph::AugmentedGraph& graph,
                    const std::vector<char>& init,
                    const std::vector<char>& locked, const KlConfig& kl,
                    KlScratch* scratch) {
                   return ExtendedKl(graph, init, locked, kl, scratch);
                 }) {}

MaarSolver::MaarSolver(const graph::AugmentedGraph& g, Seeds seeds,
                       MaarConfig config, KlRunner kl_runner)
    : g_(&g),
      seeds_(std::move(seeds)),
      config_(std::move(config)),
      kl_runner_(std::move(kl_runner)) {
  if (!kl_runner_) {
    throw std::invalid_argument("MaarSolver: null KL runner");
  }
  ValidateConfig();
}

MaarSolver::MaarSolver(const graph::CompressedGraphView& view, Seeds seeds,
                       MaarConfig config)
    : view_(&view), seeds_(std::move(seeds)), config_(std::move(config)) {
  ValidateConfig();
}

void MaarSolver::ValidateConfig() {
  const graph::NodeId n = NumNodes();
  seeds_.Validate(n);
  if (config_.k_min <= 0 || config_.k_max < config_.k_min ||
      config_.k_scale <= 1.0) {
    throw std::invalid_argument("MaarSolver: invalid k sweep");
  }
  if (!config_.extra_init.empty() && config_.extra_init.size() != n) {
    throw std::invalid_argument("MaarSolver: extra_init size mismatch");
  }
  locked_ = BuildLockedMask(n, seeds_);
}

std::vector<std::vector<char>> MaarSolver::InitialPartitions(
    util::Rng& rng) const {
  const graph::NodeId n = NumNodes();
  std::vector<std::vector<char>> inits;

  // Rejection heuristic: any node that ever got rejected starts in U. The
  // sweep's KL runs pull sporadically-rejected legitimate users back out.
  // Out-of-core mode scans the rejection-in degrees through a throwaway
  // cursor — a sequential pass, so each block decodes exactly once.
  std::vector<char> heur(n, 0);
  if (g_ != nullptr) {
    for (graph::NodeId v = 0; v < n; ++v) {
      if (g_->Rejections().InDegree(v) > 0) heur[v] = 1;
    }
  } else {
    graph::DecodeCursor cursor(*view_);
    for (graph::NodeId v = 0; v < n; ++v) {
      if (cursor.InDegree(v) > 0) heur[v] = 1;
    }
  }
  ApplySeedPlacement(heur, seeds_);
  inits.push_back(std::move(heur));

  for (int i = 0; i < config_.num_random_inits; ++i) {
    std::vector<char> mask(n, 0);
    for (graph::NodeId v = 0; v < n; ++v) {
      mask[v] = rng.NextBool(config_.random_init_fraction) ? 1 : 0;
    }
    ApplySeedPlacement(mask, seeds_);
    inits.push_back(std::move(mask));
  }

  // Caller-provided warm mask (e.g. the previous epoch's cut), appended
  // last so the sweep's deterministic reduction order is unchanged.
  if (!config_.extra_init.empty()) {
    std::vector<char> warm = config_.extra_init;
    ApplySeedPlacement(warm, seeds_);
    inits.push_back(std::move(warm));
  }
  return inits;
}

bool MaarSolver::IsValid(const std::vector<char>& in_u,
                         const graph::CutQuantities& cut) const {
  graph::NodeId size_u = 0;
  for (char c : in_u) size_u += (c != 0);
  const graph::NodeId n = NumNodes();
  const graph::NodeId size_w = n - size_u;
  // Clamp the minimum region size only when infeasible: no cut of an
  // n-node graph can put min_region_size nodes on both sides once
  // n < 2*min_region_size, so cap it at n/2 (small graphs and late residual
  // graphs stay solvable); the configured value is honored otherwise.
  const graph::NodeId min_region = std::max<graph::NodeId>(
      1, std::min<graph::NodeId>(config_.min_region_size, n / 2));
  return size_u >= min_region && size_w >= min_region &&
         static_cast<double>(size_u) <=
             config_.max_region_fraction * static_cast<double>(n) &&
         cut.rejections_into_u > 0;
}

std::vector<double> MaarSolver::SweepKs() const {
  std::vector<double> ks;
  for (double k = config_.k_min; k <= config_.k_max * (1.0 + 1e-9);
       k *= config_.k_scale) {
    ks.push_back(k);
  }
  return ks;
}

MaarCut MaarSolver::Solve() { return Solve(nullptr); }

MaarCut MaarSolver::Solve(util::ThreadPool* pool) {
  util::WallTimer total_timer;
  util::Rng rng(config_.seed);
  const auto inits = InitialPartitions(rng);
  const auto ks = SweepKs();
  const std::size_t cells = ks.size() * inits.size();

  MaarCut best;
  best.ratio = std::numeric_limits<double>::infinity();

  auto consider = [&](KlResult&& r, double k) {
    ++best.kl_runs;
    best.switches += r.stats.switches_applied;
    if (!IsValid(r.in_u, r.cut)) return false;
    const double ratio = r.cut.FriendsToRejectionsRatio();
    const bool better =
        ratio < best.ratio - 1e-12 ||
        (std::abs(ratio - best.ratio) <= 1e-12 &&
         r.cut.rejections_into_u > best.cut.rejections_into_u);
    if (better) {
      best.valid = true;
      best.in_u = std::move(r.in_u);
      best.cut = r.cut;
      best.ratio = ratio;
      best.k = k;
      return true;
    }
    return false;
  };

  // Phase 1 — the (k × init) grid. Every cell is an independent KL run;
  // grid[c] is written by exactly one task, so the only coordination is the
  // ParallelFor barrier.
  util::WallTimer sweep_timer;
  std::unique_ptr<util::ThreadPool> owned_pool;
  if (pool == nullptr && cells > 1 &&
      EffectiveThreads(config_.num_threads) > 1) {
    owned_pool = std::make_unique<util::ThreadPool>(
        static_cast<std::size_t>(EffectiveThreads(config_.num_threads)));
    pool = owned_pool.get();
  }
  best.threads_used = pool == nullptr ? 1 : static_cast<int>(pool->size());

  // One reusable KL workspace per pool block: a block runs as exactly one
  // task, so its scratch is never shared, and every KL run inside the block
  // reuses the same buffers instead of reallocating per cell. Out-of-core
  // mode pairs each scratch with its own DecodeCursor (the cursor's block
  // cache is mutable per-thread state, exactly like the scratch).
  std::vector<KlScratch> scratches(pool != nullptr ? pool->size() : 1);
  std::vector<std::unique_ptr<graph::DecodeCursor>> cursors;
  if (view_ != nullptr) {
    cursors.reserve(scratches.size());
    for (std::size_t i = 0; i < scratches.size(); ++i) {
      cursors.push_back(std::make_unique<graph::DecodeCursor>(*view_));
    }
  }
  auto run_kl = [&](std::size_t block, const std::vector<char>& init,
                    const KlConfig& cell_kl) {
    if (view_ != nullptr) {
      return ExtendedKl(graph::GraphSource(cursors[block].get()), init,
                        locked_, cell_kl, &scratches[block]);
    }
    return kl_runner_(*g_, init, locked_, cell_kl, &scratches[block]);
  };
  std::vector<KlResult> grid(cells);
  auto run_cell = [&](std::size_t block, std::size_t c) {
    KlConfig cell_kl = config_.kl;
    cell_kl.k = ks[c / inits.size()];
    grid[c] = run_kl(block, inits[c % inits.size()], cell_kl);
  };
  if (pool != nullptr && cells > 1) {
    pool->ParallelFor(cells, run_cell);
  } else {
    for (std::size_t c = 0; c < cells; ++c) run_cell(0, c);
  }

  // Phase 2 — deterministic reduction in sweep order (k outer, init inner),
  // interleaved with the serial warm-start tail: once every cell at k_i has
  // been reduced, the incumbent mask seeds one extra KL run at k_{i+1}.
  // Everything here depends only on the cell results, never on the order
  // the pool produced them, so thread count cannot change the winner.
  KlConfig kl = config_.kl;
  for (std::size_t ki = 0; ki < ks.size(); ++ki) {
    for (std::size_t ii = 0; ii < inits.size(); ++ii) {
      consider(std::move(grid[ki * inits.size() + ii]), ks[ki]);
    }
    if (config_.warm_start && best.valid && ki + 1 < ks.size()) {
      kl.k = ks[ki + 1];
      ++best.warm_start_runs;
      consider(run_kl(0, best.in_u, kl), ks[ki + 1]);
    }
  }
  best.sweep_seconds = sweep_timer.Seconds();

  // Phase 3 — Dinkelbach refinement: with k set to the best cut's own
  // ratio, the cut's objective is exactly 0, so any strictly-negative-
  // objective cut found by KL has a strictly smaller ratio.
  util::WallTimer refine_timer;
  for (int round = 0; round < config_.dinkelbach_rounds && best.valid;
       ++round) {
    const double k = best.ratio;
    if (!(k > 0) || !std::isfinite(k)) break;  // perfect cut; cannot improve
    kl.k = k;
    if (!consider(run_kl(0, best.in_u, kl), k)) {
      break;
    }
  }
  best.refine_seconds = refine_timer.Seconds();

  best.total_seconds = total_timer.Seconds();
  return best;
}

}  // namespace rejecto::detect
