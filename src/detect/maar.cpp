#include "detect/maar.h"

#include <algorithm>
#include <cmath>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>

#include "util/timer.h"

namespace rejecto::detect {
namespace {

// Caps on the sweep ValidateMaarSweep accepts. They refuse only sweeps that
// could never finish (k_scale = 1 + 1e-12 would ask for ~5.5e12 k values).
constexpr double kMaxSweepKs = 4096;
constexpr double kMaxSweepCells = 65536;

// A finished KL run with what the reduction ranks it by: whether it is a
// valid cut and, if so, its friends-to-rejections ratio.
struct ScoredRun {
  KlResult r;
  bool valid = false;
  double ratio = 0.0;
};

// The reduction's order: a valid run beats the incumbent (best_ratio,
// best_rejections) when its ratio is lower by more than 1e-12, or ties
// within 1e-12 and explains more rejections. `consider` and the
// speculative seed prediction both rank by this one function.
bool Beats(const ScoredRun& s, double best_ratio,
           std::uint64_t best_rejections) {
  return s.valid && (s.ratio < best_ratio - 1e-12 ||
                     (std::abs(s.ratio - best_ratio) <= 1e-12 &&
                      s.r.cut.rejections_into_u > best_rejections));
}

}  // namespace

int EffectiveThreads(int num_threads) {
  if (num_threads > util::kMaxThreads) {
    throw std::invalid_argument(
        "num_threads " + std::to_string(num_threads) + " exceeds " +
        std::to_string(util::kMaxThreads));
  }
  if (num_threads == 0) {
    return std::min(static_cast<int>(util::HardwareThreads()),
                    util::kMaxThreads);
  }
  return std::max(1, num_threads);
}

MaarSolver::MaarSolver(const graph::AugmentedGraph& g, Seeds seeds,
                       MaarConfig config)
    : MaarSolver(g, std::move(seeds), std::move(config), ExtendedKl) {}

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
    : owned_(std::make_shared<const graph::AugmentedGraph>(
          view.Materialize().graph)),
      g_(owned_.get()),
      seeds_(std::move(seeds)),
      config_(std::move(config)),
      kl_runner_(ExtendedKl) {
  ValidateConfig();
}

void ValidateMaarSweep(const MaarConfig& config, bool with_extra_init) {
  // isfinite also rules out NaN, which passes every comparison below: a NaN
  // k_min would sweep no k, a NaN k_scale one k, and an infinite k_max
  // would never end the sweep.
  if (!std::isfinite(config.k_min) || !std::isfinite(config.k_max) ||
      !std::isfinite(config.k_scale) || config.k_min <= 0 ||
      config.k_max < config.k_min || config.k_scale <= 1.0) {
    throw std::invalid_argument("MaarSolver: invalid k sweep");
  }
  // The sweep's length (to within the one k SweepKs's rounding may add),
  // from the config alone, before SweepKs builds it. Computed in double: a
  // huge k_max / k_min overflows to infinity, which the caps refuse like
  // any other oversized sweep.
  const double num_ks =
      std::floor(std::log(config.k_max / config.k_min) /
                 std::log(config.k_scale)) +
      1;
  const double num_inits = 1.0 + std::max(0, config.num_random_inits) +
                           (with_extra_init ? 1 : 0);
  if (num_ks > kMaxSweepKs || num_ks * num_inits > kMaxSweepCells) {
    throw std::invalid_argument("MaarSolver: k sweep too long");
  }
}

void MaarSolver::ValidateConfig() {
  const graph::NodeId n = g_->NumNodes();
  seeds_.Validate(n);
  ValidateMaarSweep(config_, !config_.extra_init.empty());
  if (!config_.extra_init.empty() && config_.extra_init.size() != n) {
    throw std::invalid_argument("MaarSolver: extra_init size mismatch");
  }
  locked_ = BuildLockedMask(n, seeds_);
}

std::vector<std::vector<char>> MaarSolver::InitialPartitions(
    util::Rng& rng) const {
  const graph::NodeId n = g_->NumNodes();
  std::vector<std::vector<char>> inits;

  // Rejection heuristic: any node that ever got rejected starts in U. The
  // sweep's KL runs pull sporadically-rejected legitimate users back out.
  std::vector<char> heur(n, 0);
  for (graph::NodeId v = 0; v < n; ++v) {
    if (g_->Rejections().InDegree(v) > 0) heur[v] = 1;
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
  const graph::NodeId n = g_->NumNodes();
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

  // Scores a finished run once, on the worker that ran it, so that neither
  // the reduction nor the seed prediction rescans a mask under the lock.
  auto score = [&](KlResult&& r) {
    ScoredRun s;
    s.valid = IsValid(r.in_u, r.cut);
    if (s.valid) s.ratio = r.cut.FriendsToRejectionsRatio();
    s.r = std::move(r);
    return s;
  };
  auto consider = [&](ScoredRun&& s, double k) {
    ++best.kl_runs;
    best.switches += s.r.stats.switches_applied;
    best.switches_tried += s.r.stats.switches_tried;
    if (!Beats(s, best.ratio, best.cut.rejections_into_u)) return false;
    best.valid = true;
    best.in_u = std::move(s.r.in_u);
    best.cut = s.r.cut;
    best.ratio = s.ratio;
    best.k = k;
    return true;
  };

  // Phase 1 — the sweep: the (k × init) grid plus the warm-start chain,
  // reduced in sweep order (k outer, then the warm run at that k, then the
  // inits). Every run is handed to whichever worker asks next, so the pool
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
  // A speculative run only pays off on a worker that would otherwise idle,
  // so the serial loop never speculates.
  const bool speculate = pool != nullptr && config_.warm_start;

  // One reusable KL workspace per sweep worker, and never one more: a worker
  // runs one KL at a time, so its scratch is never shared, and at most
  // pool->size() runs are ever in flight. The Dinkelbach phase runs on the
  // caller after every worker has returned, reusing workspace 0.
  const std::size_t workers =
      pool != nullptr ? std::min(pool->size(), cells) : 1;
  std::vector<KlScratch> scratches(workers);
  auto run_kl = [&](std::size_t w, const std::vector<char>& init, double k) {
    KlConfig run_cfg = config_.kl;
    run_cfg.k = k;
    return kl_runner_(*g_, init, locked_, run_cfg, &scratches[w]);
  };

  // Shared sweep state, all guarded by `mu`. Grid cells are handed out in
  // sweep order from `next_cell`; a finished cell parks its result in
  // grid[c] until the reduction reaches it.
  const std::size_t per_k = inits.size();
  std::mutex mu;
  std::vector<ScoredRun> grid(cells);
  std::vector<char> cell_done(cells, 0);
  std::size_t next_cell = 0;
  std::size_t reduced = 0;  // grid cells consumed by `consider`

  // warm[i] is the warm run at ks[i] (slot 0 never runs: no k precedes the
  // first). Its seed is the incumbent once every run at ks[i-1] has been
  // reduced. A speculative run and a due run are the same slot:
  //   kIdle → kSpeculating → kSpeculated: an idle worker ran it early on a
  //     predicted seed;
  //   → kDue → kRunning → kReduced: the reduction reached it and its
  //     speculation, if any, missed, so it runs on best.in_u as it always
  //     did;
  //   kSpeculated → kReduced, or kSpeculating → kAttached → kReduced: the
  //     reduction reached it and its speculation's seed equals best.in_u,
  //     so the speculation is the run (KL is a pure function of its
  //     inputs); an attached run is reduced by the worker running it.
  enum class WarmState {
    kIdle, kSpeculating, kSpeculated, kDue, kRunning, kAttached, kReduced
  };
  struct WarmSlot {
    WarmState state = WarmState::kIdle;
    std::vector<char> seed;  // a speculation's predicted seed
    ScoredRun result;        // a finished speculation, until reduced
  };
  std::vector<WarmSlot> warm(ks.size());
  auto release = [](WarmSlot& slot) {
    slot.seed = std::vector<char>();
    slot.result = ScoredRun();
  };
  std::exception_ptr failure;
  std::size_t failure_pos = std::numeric_limits<std::size_t>::max();

  // Consumes finished runs in sweep order until one is still missing.
  // When the reduction reaches the warm run at ks[ki] (every cell at
  // ks[ki-1] reduced), the incumbent is its seed: a speculation on that
  // exact seed is kept, anything else is discarded and the run falls due.
  // No cell at ks[ki] is reduced before the warm run is. Whichever worker
  // finishes a run calls this, so the order of `consider` calls, and with
  // it the winner, never depends on the thread count or on what was
  // speculated.
  auto reduce = [&] {
    while (reduced < cells) {
      const std::size_t ki = reduced / per_k;
      WarmSlot& slot = warm[ki];
      if (reduced % per_k == 0 && ki > 0) {
        const WarmState s = slot.state;
        if (s == WarmState::kIdle || s == WarmState::kSpeculating ||
            s == WarmState::kSpeculated) {
          // A failed speculation leaves an empty seed, which no valid
          // incumbent equals.
          const bool hit = slot.seed == best.in_u;
          if (!config_.warm_start || !best.valid) {
            slot.state = WarmState::kReduced;  // no warm run at this k
          } else if (hit && s == WarmState::kSpeculated) {
            ++best.warm_start_runs;
            ++best.speculative_hits;
            consider(std::move(slot.result), ks[ki]);
            slot.state = WarmState::kReduced;
          } else if (hit) {
            slot.state = WarmState::kAttached;
          } else {
            slot.state = WarmState::kDue;
          }
          // A speculation still in flight releases its own seed.
          if (s != WarmState::kSpeculating) release(slot);
        }
        if (slot.state != WarmState::kReduced) return;
      }
      if (!cell_done[reduced]) return;
      consider(std::move(grid[reduced]), ks[ki]);
      ++reduced;
    }
  };

  // Picks the earliest warm run not yet reduced, running or speculated and
  // predicts its seed: the incumbent the reduction would hold just before
  // it if every run not yet finished lost. The fold continues from the
  // reduction's incumbent over the finished cells and speculations in
  // sweep order, ranked by the same Beats as `consider`. Returns the slot's
  // k index, now kSpeculating with its seed set, or 0 if there is none.
  auto start_speculation = [&]() -> std::size_t {
    std::size_t j = std::max<std::size_t>(1, reduced / per_k);
    while (j < ks.size() && warm[j].state != WarmState::kIdle) ++j;
    if (j >= ks.size()) return 0;
    double ratio = best.ratio;
    std::uint64_t rejections = best.cut.rejections_into_u;
    const std::vector<char>* mask = best.valid ? &best.in_u : nullptr;
    auto fold = [&](const ScoredRun& s) {
      if (!Beats(s, ratio, rejections)) return;
      ratio = s.ratio;
      rejections = s.r.cut.rejections_into_u;
      mask = &s.r.in_u;
    };
    for (std::size_t c = reduced; c < j * per_k; ++c) {
      const WarmSlot& slot = warm[c / per_k];
      if (c % per_k == 0 && slot.state == WarmState::kSpeculated) {
        fold(slot.result);
      }
      if (cell_done[c]) fold(grid[c]);
    }
    if (mask == nullptr) return 0;  // no warm run would follow this guess
    warm[j].seed = *mask;
    warm[j].state = WarmState::kSpeculating;
    ++best.speculative_runs;
    return j;
  };

  // A worker's loop: the due warm run first (it is the critical path), else
  // the next grid cell, else a speculative warm run, else return. Only a
  // worker that has just reduced can make a warm run due, and it takes it
  // on its next turn, so a worker that finds nothing to do can leave: every
  // run the reduction still waits on is in flight or will be unlocked by
  // one that is. A failed run parks its exception and stops the grid
  // handout and speculation; a due warm run still runs, because it
  // precedes every failed run in sweep order. So every run before the
  // earliest failing one runs, and that run's exception is the one
  // rethrown, for any width. A speculation's exception is dropped: the
  // serial sweep may never make that run, and if it does, the run falls
  // due and runs again.
  auto work = [&](std::size_t w) {
    // Every worker may reach the largest k, so size its workspace for it
    // once, before taking the lock.
    ReserveKlScratch(*g_, ks.back(), config_.kl, scratches[w]);
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      enum class Job { kWarm, kCell, kSpeculation } job;
      std::size_t ki = reduced / per_k;
      const std::size_t c = next_cell;
      if (reduced < cells && warm[ki].state == WarmState::kDue) {
        job = Job::kWarm;
        warm[ki].state = WarmState::kRunning;
      } else if (!failure && next_cell < cells) {
        job = Job::kCell;
        ki = c / per_k;
        ++next_cell;
      } else if (speculate && !failure && (ki = start_speculation()) != 0) {
        job = Job::kSpeculation;
      } else {
        return;
      }
      // Nothing writes best.in_u while the due run reads it unlocked (the
      // reduction waits on that run), nor a slot's seed while its
      // speculation is in flight.
      const std::vector<char>& init = job == Job::kWarm   ? best.in_u
                                      : job == Job::kCell ? inits[c % per_k]
                                                          : warm[ki].seed;
      lock.unlock();
      ScoredRun s;
      std::exception_ptr err;
      try {
        s = score(run_kl(w, init, ks[ki]));
      } catch (...) {
        err = std::current_exception();
      }
      lock.lock();
      WarmSlot& slot = warm[ki];
      if (job == Job::kSpeculation) {
        if (slot.state == WarmState::kSpeculating) {
          slot.state = WarmState::kSpeculated;  // ahead of the reduction
          if (err) {
            slot.seed = std::vector<char>();
          } else {
            slot.result = std::move(s);
          }
          continue;
        }
        const bool attached = slot.state == WarmState::kAttached;
        release(slot);
        if (!attached) continue;  // missed or skipped: discarded
        if (err) {
          slot.state = WarmState::kDue;
          continue;
        }
        ++best.speculative_hits;
      } else if (err) {
        // Sweep position: at each k, the warm run, then the cells.
        const std::size_t pos =
            ki * (per_k + 1) + (job == Job::kWarm ? 0 : c % per_k + 1);
        if (pos < failure_pos) {
          failure_pos = pos;
          failure = err;
        }
        continue;
      }
      if (job == Job::kCell) {
        grid[c] = std::move(s);
        cell_done[c] = 1;
      } else {
        ++best.warm_start_runs;
        consider(std::move(s), ks[ki]);
        slot.state = WarmState::kReduced;
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
    if (!consider(score(run_kl(0, best.in_u, k)), k)) {
      break;
    }
  }
  best.refine_seconds = refine_timer.Seconds();

  best.total_seconds = total_timer.Seconds();
  return best;
}

}  // namespace rejecto::detect
