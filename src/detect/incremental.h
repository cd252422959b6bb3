// Sub-epoch O(deg) incremental MAAR score (ROADMAP "online admission").
//
// Between epochs the detector holds the previous epoch's round-0 cut mask U
// and the weight k that produced it. For a sender s outside U, moving s into
// U changes the linear objective W(U) = |F(Ū,U)| − k·|R⃗(Ū,U)| by
//
//   ΔW(s) = (friends of s outside U − friends of s inside U)
//           − k·(rejectors of s outside U − rejectees of s inside U)
//
// computable in one O(deg(s)) pass over s's adjacency — no sweep, no KL.
// A negative ΔW means the incumbent cut strictly improves by absorbing s:
// the new sender's local evidence (rejections from the legitimate region
// outweighing accepted edges at the incumbent exchange rate k) puts it in
// the rejected partition. This is exactly the first switch ExtendedKl would
// consider for s, so it agrees with full re-detection whenever one more
// sender does not move the global cut — the property test pins ≥95%
// agreement on sampled senders. Serving layers use it as the cheap
// admission tier (§VI-D defense in depth): classify a brand-new requester
// immediately, let the next epoch confirm.
//
// Against one immutable (graph, mask, k) the score is a pure function of s,
// so a server that answers many requests per epoch scores every sender
// once: ScoreAllSenders fills the whole table in one sweep of the three
// CSRs (8 B per node), and a decision becomes one load
// (serve/published_epoch.h). ScoreSenderIncremental stays the per-sender
// walk, and the oracle the table is tested against.
#pragma once

#include <vector>

#include "graph/augmented_graph.h"
#include "graph/types.h"

namespace rejecto::util {
class ThreadPool;
}  // namespace rejecto::util

namespace rejecto::detect {

struct IncrementalScore {
  // ΔW(s) of switching s into the suspicious region (0 when s already
  // belongs to it). Lower = more suspicious.
  double gain = 0.0;
  // True when s lands in the rejected partition: already in the mask, or
  // ΔW(s) < 0.
  bool suspicious = false;
};

// Scores s against the incumbent mask in O(deg(s)). Preconditions:
// in_u.size() == g.NumNodes(), k > 0, s < g.NumNodes().
IncrementalScore ScoreSenderIncremental(const graph::AugmentedGraph& g,
                                        const std::vector<char>& in_u,
                                        double k, graph::NodeId s);

// gain[s] == ScoreSenderIncremental(g, in_u, k, s).gain, bit for bit, for
// every s < g.NumNodes(); the sender is suspicious iff in_u[s] != 0 or
// gain[s] < 0. Runs on `pool` (one contiguous id range per worker) when
// given one, serially otherwise; the table does not depend on which.
// Preconditions as above (throws std::invalid_argument on a mismatched
// mask or k <= 0).
std::vector<double> ScoreAllSenders(const graph::AugmentedGraph& g,
                                    const std::vector<char>& in_u, double k,
                                    util::ThreadPool* pool = nullptr);

}  // namespace rejecto::detect
