#include "detect/maar.h"

#include <algorithm>
#include <cmath>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
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

  // Phase 1 — the sweep: the (k × init) grid plus the warm-start chain,
  // reduced in sweep order (k outer, init inner, then the warm run at the
  // next k). Every run is handed to whichever worker asks next, so the pool
  // drains the grid and the chain together instead of finishing the grid
  // before the chain starts.
  util::WallTimer sweep_timer;
  std::unique_ptr<util::ThreadPool> owned_pool;
  if (pool == nullptr && cells > 1 &&
      EffectiveThreads(config_.num_threads) > 1) {
    owned_pool = std::make_unique<util::ThreadPool>(
        static_cast<std::size_t>(EffectiveThreads(config_.num_threads)));
    pool = owned_pool.get();
  }
  best.threads_used = pool == nullptr ? 1 : static_cast<int>(pool->size());

  // One reusable KL workspace per sweep worker, and never one more: a worker
  // runs one KL at a time, so its scratch is never shared, and at most
  // pool->size() runs are ever in flight. Out-of-core mode pairs each
  // scratch with its own DecodeCursor (the cursor's block cache is mutable
  // per-thread state, exactly like the scratch). The Dinkelbach phase runs
  // on the caller after every worker has returned, reusing workspace 0.
  const std::size_t workers =
      pool != nullptr ? std::min(pool->size(), cells) : 1;
  std::vector<KlScratch> scratches(workers);
  std::vector<std::unique_ptr<graph::DecodeCursor>> cursors;
  if (view_ != nullptr) {
    cursors.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      cursors.push_back(std::make_unique<graph::DecodeCursor>(*view_));
    }
  }
  auto source = [&](std::size_t w) {
    return view_ != nullptr ? graph::GraphSource(cursors[w].get())
                            : graph::GraphSource(*g_);
  };
  auto run_kl = [&](std::size_t w, const std::vector<char>& init, double k) {
    KlConfig run_cfg = config_.kl;
    run_cfg.k = k;
    if (view_ != nullptr) {
      return ExtendedKl(source(w), init, locked_, run_cfg, &scratches[w]);
    }
    return kl_runner_(*g_, init, locked_, run_cfg, &scratches[w]);
  };

  // Shared sweep state, all guarded by `mu`. Grid cells are handed out in
  // sweep order from `next_cell`; a finished cell parks its result in
  // grid[c] until the reduction reaches it.
  const std::size_t per_k = inits.size();
  std::mutex mu;
  std::vector<KlResult> grid(cells);
  std::vector<char> cell_done(cells, 0);
  std::size_t next_cell = 0;
  std::size_t reduced = 0;  // grid cells consumed by `consider`
  enum class Warm { kIdle, kReady, kRunning } warm = Warm::kIdle;
  std::exception_ptr failure;
  std::size_t failure_pos = std::numeric_limits<std::size_t>::max();

  // Consumes finished cells in sweep order until one is still missing or
  // the warm run at the next k is due: once every cell at k_i has been
  // reduced, the incumbent mask seeds one extra KL run at k_{i+1}, and no
  // cell at k_{i+1} may be reduced before it. Whichever worker finishes a
  // run calls this, so the order of `consider` calls, and with it the
  // winner, never depends on the thread count.
  auto reduce = [&] {
    while (warm == Warm::kIdle && reduced < cells && cell_done[reduced]) {
      consider(std::move(grid[reduced]), ks[reduced / per_k]);
      ++reduced;
      if (config_.warm_start && best.valid && reduced % per_k == 0 &&
          reduced < cells) {
        warm = Warm::kReady;
      }
    }
  };

  // A worker's loop: the due warm run first (it is the critical path), else
  // the next grid cell, else return. Only a worker that has just reduced can
  // make a warm run due, and it takes it on its next turn, so a worker that
  // finds nothing to do can leave: every run left is in flight or will be
  // unlocked by one that is. A failed run parks its exception and stops the
  // grid handout; a due warm run still runs, because it precedes every
  // failed run in sweep order. So every run before the earliest failing one
  // runs, and that run's exception is the one rethrown, for any width.
  auto work = [&](std::size_t w) {
    // Every worker may reach the largest k, so size its workspace for it
    // once, before taking the lock.
    ReserveKlScratch(source(w), ks.back(), config_.kl, scratches[w]);
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      const bool is_warm = warm == Warm::kReady;
      const std::size_t c = next_cell;
      if (is_warm) {
        warm = Warm::kRunning;
      } else if (!failure && next_cell < cells) {
        ++next_cell;
      } else {
        return;
      }
      const std::size_t ki = is_warm ? reduced / per_k : c / per_k;
      // The reduction waits on a running warm run, so nothing writes
      // best.in_u while the run reads it unlocked.
      const std::vector<char>& init = is_warm ? best.in_u : inits[c % per_k];
      lock.unlock();
      KlResult r;
      std::exception_ptr err;
      try {
        r = run_kl(w, init, ks[ki]);
      } catch (...) {
        err = std::current_exception();
      }
      lock.lock();
      if (err) {
        // Sweep position: at each k, the warm run, then the cells.
        const std::size_t pos =
            ki * (per_k + 1) + (is_warm ? 0 : c % per_k + 1);
        if (pos < failure_pos) {
          failure_pos = pos;
          failure = err;
        }
        continue;
      }
      if (is_warm) {
        ++best.warm_start_runs;
        consider(std::move(r), ks[ki]);
        warm = Warm::kIdle;
      } else {
        grid[c] = std::move(r);
        cell_done[c] = 1;
      }
      reduce();
    }
  };
  if (pool == nullptr) {
    work(0);
  } else {
    std::vector<std::future<void>> done;
    done.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      done.push_back(pool->Submit([&work, w] { work(w); }));
    }
    // Every task references this frame: wait for all before any get().
    for (auto& f : done) f.wait();
    for (auto& f : done) f.get();
  }
  if (failure) std::rethrow_exception(failure);
  best.sweep_seconds = sweep_timer.Seconds();

  // Phase 2 — Dinkelbach refinement: with k set to the best cut's own
  // ratio, the cut's objective is exactly 0, so any strictly-negative-
  // objective cut found by KL has a strictly smaller ratio.
  util::WallTimer refine_timer;
  for (int round = 0; round < config_.dinkelbach_rounds && best.valid;
       ++round) {
    const double k = best.ratio;
    if (!(k > 0) || !std::isfinite(k)) break;  // perfect cut; cannot improve
    if (!consider(run_kl(0, best.in_u, k), k)) {
      break;
    }
  }
  best.refine_seconds = refine_timer.Seconds();

  best.total_seconds = total_timer.Seconds();
  return best;
}

}  // namespace rejecto::detect
