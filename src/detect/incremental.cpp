#include "detect/incremental.h"

#include <cstdint>
#include <stdexcept>
#include <string>

#include "util/thread_pool.h"

namespace rejecto::detect {

namespace {

void CheckBaseline(const graph::AugmentedGraph& g,
                   const std::vector<char>& in_u, double k, const char* who) {
  if (in_u.size() != g.NumNodes()) {
    throw std::invalid_argument(std::string(who) +
                                ": mask size does not match graph");
  }
  if (!(k > 0.0)) {
    throw std::invalid_argument(std::string(who) + ": k must be > 0");
  }
}

// ΔW(s) for a sender outside U: one pass over its three adjacency rows.
double GainOutside(const graph::AugmentedGraph& g,
                   const std::vector<char>& in_u, double k,
                   graph::NodeId s) {
  // ΔF: edges s–f flip cross↔internal depending on f's side.
  std::int64_t delta_friend = 0;
  for (graph::NodeId f : g.Friendships().Neighbors(s)) {
    delta_friend += in_u[f] != 0 ? -1 : +1;
  }
  // ΔR⃗: arcs onto s from outside U start counting; arcs s casts onto U
  // members stop (their source moves inside).
  std::int64_t delta_rej = 0;
  for (graph::NodeId r : g.Rejections().Rejectors(s)) {
    if (in_u[r] == 0) ++delta_rej;
  }
  for (graph::NodeId t : g.Rejections().Rejectees(s)) {
    if (in_u[t] != 0) --delta_rej;
  }
  return static_cast<double>(delta_friend) -
         k * static_cast<double>(delta_rej);
}

}  // namespace

IncrementalScore ScoreSenderIncremental(const graph::AugmentedGraph& g,
                                        const std::vector<char>& in_u,
                                        double k, graph::NodeId s) {
  CheckBaseline(g, in_u, k, "ScoreSenderIncremental");
  if (s >= g.NumNodes()) {
    throw std::out_of_range("ScoreSenderIncremental: sender out of range");
  }
  if (in_u[s] != 0) {
    return {0.0, true};
  }
  const double gain = GainOutside(g, in_u, k, s);
  return {gain, gain < 0.0};
}

std::vector<double> ScoreAllSenders(const graph::AugmentedGraph& g,
                                    const std::vector<char>& in_u, double k,
                                    util::ThreadPool* pool) {
  CheckBaseline(g, in_u, k, "ScoreAllSenders");
  const std::size_t n = g.NumNodes();
  std::vector<double> gain(n, 0.0);
  const auto score_range = [&](std::size_t begin, std::size_t end) {
    for (std::size_t s = begin; s < end; ++s) {
      if (in_u[s] == 0) {
        gain[s] = GainOutside(g, in_u, k, static_cast<graph::NodeId>(s));
      }
    }
  };
  if (pool == nullptr || pool->size() <= 1) {
    score_range(0, n);
    return gain;
  }
  // One contiguous range of ids per worker: each sweeps its slice of the
  // three CSRs in order and writes a disjoint slice of the table.
  const std::size_t blocks = pool->size();
  pool->ParallelFor(blocks, [&](std::size_t b) {
    score_range(n * b / blocks, n * (b + 1) / blocks);
  });
  return gain;
}

}  // namespace rejecto::detect
