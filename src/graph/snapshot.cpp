#include "graph/snapshot.h"

#include "graph/compressed_view.h"
#include "graph/snapshot_writer.h"

namespace rejecto::graph {

void SaveSnapshot(const std::string& path, const AugmentedGraph& g,
                  const Layout& /*layout*/, const SnapshotOptions& options,
                  std::span<const unsigned char> state) {
  const NodeId n = g.NumNodes();
  CompressedSnapshotWriter writer(path, n, {.block_rows = options.block_rows},
                                  state);
  const SocialGraph& fr = g.Friendships();
  const RejectionGraph& rej = g.Rejections();
  for (NodeId u = 0; u < n; ++u) writer.AppendFriendRow(fr.Neighbors(u));
  for (NodeId u = 0; u < n; ++u) {
    writer.AppendRejectionOutRow(rej.Rejectees(u));
  }
  for (NodeId u = 0; u < n; ++u) writer.AppendRejectionInRow(rej.Rejectors(u));
  writer.Finish();
}

Snapshot LoadSnapshot(const std::string& path, util::ThreadPool* pool) {
  return CompressedGraphView::Open(path).Materialize(pool);
}

}  // namespace rejecto::graph
