#include "engine/dist_kl.h"

#include <span>
#include <stdexcept>

#include "detect/extended_kl_impl.h"
#include "detect/partition_impl.h"
#include "engine/prefetch.h"

namespace rejecto::engine {
namespace {

// The row source ExtendedKl runs over on the master (§V's layout): a value
// type like GraphSource, whose copies share one Rows. Degree reads come
// from the store's master-side arrays. Aggregate init reads each shard's
// rows on its own worker, shard-parallel and unmetered. A switch's rows
// come through the prefetch buffer, whose candidates are the live bucket
// list's top-gain nodes; the last row is memoized, so the three row reads
// of one switch cost one Get (the buffer keeps it valid until the next).
class StoreSource {
 public:
  struct Rows {
    PrefetchBuffer buffer;
    PrefetchBuffer::CandidateSupplier candidates;
    graph::NodeId last = graph::kInvalidNode;
    const NodeAdjacency* row = nullptr;
  };

  StoreSource() = default;
  StoreSource(const ShardedGraphStore& store, Rows& rows)
      : store_(&store), rows_(&rows) {}

  graph::NodeId NumNodes() const { return store_->NumNodes(); }
  std::uint64_t MaxFriendshipDegree() const {
    return store_->MaxFriendshipDegree();
  }
  std::uint64_t MaxRejectionDegree() const {
    return store_->MaxRejectionDegree();
  }
  std::uint32_t RejInDegree(graph::NodeId v) const {
    return store_->RejInDegree(v);
  }
  std::uint32_t RejOutDegree(graph::NodeId v) const {
    return store_->RejOutDegree(v);
  }

  std::span<const graph::NodeId> Friends(graph::NodeId v) const {
    return Row(v).friends;
  }
  std::span<const graph::NodeId> Rejectors(graph::NodeId v) const {
    return Row(v).rejectors;
  }
  std::span<const graph::NodeId> Rejectees(graph::NodeId v) const {
    return Row(v).rejectees;
  }

  template <class Fn>
  void ForEachRow(Fn&& fn) const {
    const graph::NodeId n = NumNodes();
    const std::uint32_t shards = store_->NumShards();
    store_->ForEachShard([&](std::uint32_t s) {
      for (graph::NodeId v = s; v < n; v += shards) {
        const NodeAdjacency& a = store_->Local(v);
        fn(v, a.friends, a.rejectors, a.rejectees);
      }
    });
  }

 private:
  const NodeAdjacency& Row(graph::NodeId v) const {
    if (v != rows_->last) {
      rows_->row = &rows_->buffer.Get(v, rows_->candidates);
      rows_->last = v;
    }
    return *rows_->row;
  }

  const ShardedGraphStore* store_ = nullptr;
  Rows* rows_ = nullptr;
};

}  // namespace

DistKlResult DistributedKl(const ShardedGraphStore& store,
                           std::vector<char> init_in_u,
                           const std::vector<char>& locked,
                           const detect::KlConfig& kl_config,
                           Cluster& cluster) {
  const graph::NodeId n = store.NumNodes();
  if (!(kl_config.k > 0.0)) {  // NaN too: a NaN gain has no bucket
    throw std::invalid_argument("DistributedKl: k must be positive");
  }
  if (init_in_u.size() != n) {
    throw std::invalid_argument("DistributedKl: mask size mismatch");
  }
  if (!locked.empty() && locked.size() != n) {
    throw std::invalid_argument("DistributedKl: locked mask size mismatch");
  }

  detect::BasicKlScratch<StoreSource> scratch;
  StoreSource::Rows rows{
      PrefetchBuffer(store, cluster.Config().buffer_capacity,
                     cluster.Config().prefetch_batch),
      [&bucket = scratch.bucket](std::size_t want,
                                 std::vector<graph::NodeId>& out) {
        bucket.CollectTop(want, out);
      }};
  DistKlResult result;
  result.kl = detect::BasicExtendedKl(StoreSource(store, rows), init_in_u,
                                      locked, kl_config, &scratch);
  result.io = rows.buffer.Stats();
  return result;
}

}  // namespace rejecto::engine
