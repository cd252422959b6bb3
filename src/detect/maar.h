// Minimum aggregate acceptance rate (MAAR) cut solver (paper §IV-B, §IV-D).
//
// Finding the cut minimizing the friends-to-rejections ratio
// |F(Ū,U)| / |R⃗(Ū,U)| is NP-hard (2-approximation-preserving reduction
// from MIN-RATIO-CUT). Per Theorem 1, the optimum for ratio k* is also the
// optimum of the linear problem min |F| − k*·|R⃗|, so the solver:
//   1. sweeps k over a geometric sequence, running ExtendedKl for each k
//      from multiple initial partitions (a rejection-degree heuristic plus
//      randomized inits),
//   2. refines the best candidate with Dinkelbach-style iterations: set
//      k ← ratio(best cut) and re-solve until a fixpoint,
//   3. returns the valid cut with the lowest ratio (ties: more explaining
//      rejections).
// A cut is valid when both regions meet the minimum size and U receives at
// least one rejection.
//
// Parallel sweep (the paper's Spark prototype parallelizes exactly this
// grid, §V/Table II): every (k, init) cell of the sweep is an independent
// KL run. Warm starts add one more run per k — the incumbent best mask
// seeded at k_{i+1} once every run at k_i has been reduced — so they form a
// chain through the incumbent. Solve() hands both to the pool workers as
// their dependencies allow: each warm run as soon as its k is reduced,
// ahead of any cell, then grid cells in sweep order. A worker left with
// neither runs the earliest warm run not yet started speculatively, on a
// predicted seed: the incumbent the reduction would reach if every
// unfinished run lost. When that warm run falls due, its speculation is
// kept only if the predicted seed equals the true incumbent byte for byte
// (KL is a pure function of graph, init, locks and k, so it is the run the
// serial sweep makes); otherwise it is discarded and the run is made as
// usual. Whichever worker finishes a run advances one reduction in fixed
// sweep order (k outer, then the warm run at that k, then the inits); the
// winner, tie-breaking included, is a pure function of the kept run
// results, so any thread count produces bit-identical cuts. The Dinkelbach
// rounds then run serially on the caller.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "detect/extended_kl.h"
#include "detect/seeds.h"
#include "graph/augmented_graph.h"
#include "graph/compressed_view.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace rejecto::detect {

// Resolves a num_threads config value: 0 → util::HardwareThreads() capped
// at util::kMaxThreads, anything below 1 clamps to 1, and anything above
// util::kMaxThreads throws std::invalid_argument.
int EffectiveThreads(int num_threads);

struct MaarConfig {
  // Geometric k sweep: k_min, k_min*k_scale, ... up to k_max (inclusive-ish).
  // All three must be finite, with k_min > 0, k_max >= k_min and
  // k_scale > 1, and the sweep must stay within 4,096 k values and 65,536
  // (k × init) cells (the default is 9 × 2); MaarSolver throws
  // std::invalid_argument otherwise.
  double k_min = 1.0 / 16.0;
  double k_max = 16.0;
  double k_scale = 2.0;

  int dinkelbach_rounds = 3;

  // Initial partitions per k: the rejection heuristic plus this many random
  // masks (each node in U independently with random_init_fraction).
  int num_random_inits = 1;
  double random_init_fraction = 0.25;

  // Validity constraints on the reported cut. The fraction cap rejects the
  // degenerate "complement" cut (U = everyone except a handful of heavy
  // rejectors, whose ratio is spuriously tiny): friend spammers are a
  // minority of the OSN, which the provider knows from population
  // estimates (§III-B). 0.6 keeps every paper scenario valid (fakes top
  // out at 50% of nodes on the facebook graph).
  graph::NodeId min_region_size = 4;
  double max_region_fraction = 0.6;

  KlConfig kl;  // kl.k is overwritten by the sweep

  // Optional extra initial partition appended (after the heuristic and the
  // random inits) to every k cell of the sweep — the streaming engine's
  // warm start injects the previous epoch's cut mask here. Must be empty or
  // sized to the graph's node count; seed placement is forced onto it like
  // any other init. Appending at a fixed position keeps the reduction order
  // deterministic, so thread count still cannot change the winner.
  std::vector<char> extra_init;

  std::uint64_t seed = 1;

  // Worker threads for the sweep: 0 = util::HardwareThreads() (at most
  // util::kMaxThreads), values < 0 clamp to 1, values above
  // util::kMaxThreads are refused (see EffectiveThreads). Any setting
  // yields bit-identical cuts (see the header comment); threads only change
  // wall-clock time.
  int num_threads = 0;

  // After the grid cells at k_i are reduced, re-run KL once at k_{i+1}
  // seeded with the incumbent best mask. Adds candidates only, so it can
  // never worsen the returned cut. Each warm run's seed depends on the one
  // before, so on a pool idle workers run the rest of the chain early on
  // predicted seeds, keeping only the runs whose seed proves right (see the
  // header comment).
  bool warm_start = true;
};

// The graph-independent half of MaarSolver's config check: throws
// std::invalid_argument unless k_min, k_max and k_scale are finite with
// k_min > 0, k_max >= k_min and k_scale > 1, and the sweep stays within
// 4,096 k values and 65,536 (k × init) cells. A sweep's inits are the
// heuristic, max(0, num_random_inits) random masks and, when
// `with_extra_init`, one more (MaarSolver passes !extra_init.empty()).
void ValidateMaarSweep(const MaarConfig& config, bool with_extra_init);

struct MaarCut {
  bool valid = false;
  std::vector<char> in_u;       // suspicious region
  graph::CutQuantities cut;
  double ratio = 0.0;           // |F(Ū,U)| / |R⃗(Ū,U)|
  double k = 0.0;               // weight that produced the cut

  // Instrumentation (benchmarks report speedup from these).
  int kl_runs = 0;              // total ExtendedKl invocations
  int warm_start_runs = 0;      // subset of kl_runs from the warm chain
  // Scheduling diagnostics, like the timings below: they depend on timing,
  // so no determinism check compares them. speculative_runs counts the
  // warm runs started early on a predicted seed; speculative_hits those
  // whose seed matched and whose result the sweep kept (a subset of
  // warm_start_runs). Both are 0 without a pool.
  int speculative_runs = 0;
  int speculative_hits = 0;
  std::uint64_t switches = 0;   // KL switches applied, summed over runs
  std::uint64_t switches_tried = 0;  // KL switches tried, summed over runs
  int threads_used = 1;         // pool width the sweep ran on
  double sweep_seconds = 0.0;   // grid and warm chain, reduced as they run
  double refine_seconds = 0.0;  // Dinkelbach rounds
  double total_seconds = 0.0;   // whole Solve() call
};

class MaarSolver {
 public:
  // Pluggable inner solver: the serial detect::ExtendedKl by default; the
  // distributed engine injects engine::DistributedKl (ExtendedKl's kernel
  // over the sharded store, so bit-exact results) so the whole k-sweep
  // runs on the cluster substrate.
  // The KlScratch* is a per-thread reusable workspace owned by the solver
  // (one per sweep worker, so no locking); runners that keep their own
  // state may ignore it. It may be null. With a pool the runner may also be
  // called for a speculative warm run whose result is discarded, so it must
  // be pure: its result a function of its arguments, with no side effect
  // the caller relies on.
  using KlRunner = std::function<KlResult(
      const graph::AugmentedGraph&, const std::vector<char>& init_in_u,
      const std::vector<char>& locked, const KlConfig&, KlScratch* scratch)>;

  // The graph must outlive the solver. Seeds are validated on construction.
  MaarSolver(const graph::AugmentedGraph& g, Seeds seeds, MaarConfig config);
  MaarSolver(const graph::AugmentedGraph& g, Seeds seeds, MaarConfig config,
             KlRunner kl_runner);

  // Solves a compressed snapshot: materializes the view (serially) into a
  // graph the solver owns and runs the default ExtendedKl runner on it, so
  // the cut is the one MaarSolver(view.Materialize().graph, ...) returns.
  // Throws std::runtime_error if a block fails its CRC.
  MaarSolver(const graph::CompressedGraphView& view, Seeds seeds,
             MaarConfig config);

  // Creates a private pool when config.num_threads resolves to > 1.
  MaarCut Solve();
  // Runs the sweep on `pool` (callers amortize pool construction across
  // many solves, e.g. DetectFriendSpammers across rounds); nullptr behaves
  // like Solve(). The caller only waits for the sweep and then runs the
  // Dinkelbach rounds. When the sweep runs on a pool the kl_runner must be
  // pure and safe to invoke concurrently (the default ExtendedKl runner
  // is); only a pool sweep speculates. If KL runs throw, Solve rethrows the
  // exception of the earliest failing run in sweep order, after every
  // worker has stopped. A speculative run's exception is dropped: the
  // serial sweep may never make that run, and if it does, it runs again
  // as a regular warm run.
  MaarCut Solve(util::ThreadPool* pool);

 private:
  std::vector<std::vector<char>> InitialPartitions(util::Rng& rng) const;
  std::vector<double> SweepKs() const;
  bool IsValid(const std::vector<char>& in_u,
               const graph::CutQuantities& cut) const;
  void ValidateConfig();

  // Set by the view constructor only; g_ then points into it.
  std::shared_ptr<const graph::AugmentedGraph> owned_;
  const graph::AugmentedGraph* g_ = nullptr;
  Seeds seeds_;
  MaarConfig config_;
  KlRunner kl_runner_;
  std::vector<char> locked_;
};

}  // namespace rejecto::detect
