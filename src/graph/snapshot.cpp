#include "graph/snapshot.h"

#include <bit>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "graph/compressed_view.h"
#include "graph/snapshot_format.h"
#include "graph/snapshot_writer.h"
#include "util/buffer.h"

namespace rejecto::graph {
namespace {

using snapfmt::SectionEntry;

// ---------- v1 load helpers ----------

// Bulk-copies a u64 section into the in-memory std::size_t offsets array,
// directly onto the aligned tier the graph keeps it on.
util::AlignedVector<std::size_t> ReadOffsets(const unsigned char* p,
                                             std::size_t count) {
  util::AlignedVector<std::size_t> off(count);
  if constexpr (sizeof(std::size_t) == sizeof(std::uint64_t) &&
                std::endian::native == std::endian::little) {
    // An empty vector's data() may be null, which memcpy must never see.
    if (count != 0) std::memcpy(off.data(), p, count * sizeof(std::uint64_t));
  } else {
    for (std::size_t i = 0; i < count; ++i) {
      off[i] = static_cast<std::size_t>(snapfmt::GetU64Le(p + i * 8));
    }
  }
  return off;
}

util::AlignedVector<NodeId> ReadNodeIds(const unsigned char* p,
                                        std::size_t count) {
  util::AlignedVector<NodeId> ids(count);
  if constexpr (std::endian::native == std::endian::little) {
    if (count != 0) std::memcpy(ids.data(), p, count * sizeof(NodeId));
  } else {
    for (std::size_t i = 0; i < count; ++i) {
      ids[i] = snapfmt::GetU32Le(p + i * 4);
    }
  }
  return ids;
}

void CheckOffsets(const std::string& path, const SectionEntry& e,
                  const util::AlignedVector<std::size_t>& off,
                  std::uint64_t total) {
  if (off.empty() || off.front() != 0) {
    snapfmt::Fail(path, e.offset, "CSR offsets do not start at 0");
  }
  for (std::size_t i = 1; i < off.size(); ++i) {
    if (off[i] < off[i - 1]) {
      snapfmt::Fail(path, e.offset, "CSR offsets not monotone");
    }
  }
  if (off.back() != total) {
    snapfmt::Fail(path, e.offset,
                  "CSR offset total disagrees with the meta section");
  }
}

Snapshot LoadSnapshotV1(const std::string& path) {
  snapfmt::FileBytes file(path);
  const unsigned char* data = file.data();
  const std::size_t size = file.size();
  const snapfmt::ParsedImage img = snapfmt::ParseImage(path, data, size);

  const SectionEntry* meta = img.by_kind[snapfmt::kMeta];
  if (meta == nullptr || meta->length != snapfmt::kMetaBytesV1) {
    snapfmt::Fail(path, snapfmt::kHeaderBytes,
                  "missing or malformed meta section");
  }
  const unsigned char* mp = data + meta->offset;
  const std::uint64_t n64 = snapfmt::GetU64Le(mp);
  const std::uint64_t num_edges = snapfmt::GetU64Le(mp + 8);
  const std::uint64_t num_arcs = snapfmt::GetU64Le(mp + 16);
  const std::uint64_t flags = snapfmt::GetU64Le(mp + 24);
  if (n64 >= kInvalidNode) {
    snapfmt::Fail(path, meta->offset, "node count " + std::to_string(n64) +
                                          " exceeds the 32-bit id space");
  }
  const NodeId n = static_cast<NodeId>(n64);

  struct CsrSpec {
    snapfmt::SectionKind off_kind;
    snapfmt::SectionKind adj_kind;
    std::uint64_t total;  // expected adjacency entries
  };
  const CsrSpec specs[3] = {
      {snapfmt::kFrOffsets, snapfmt::kFrAdj, 2 * num_edges},
      {snapfmt::kOutOffsets, snapfmt::kOutAdj, num_arcs},
      {snapfmt::kInOffsets, snapfmt::kInAdj, num_arcs}};
  util::AlignedVector<std::size_t> offs[3];
  util::AlignedVector<NodeId> adjs[3];
  for (int c = 0; c < 3; ++c) {
    const SectionEntry* oe = img.by_kind[specs[c].off_kind];
    const SectionEntry* ae = img.by_kind[specs[c].adj_kind];
    if (oe == nullptr || ae == nullptr) {
      snapfmt::Fail(path, snapfmt::kHeaderBytes,
                    "missing CSR sections " +
                        std::to_string(specs[c].off_kind) + "/" +
                        std::to_string(specs[c].adj_kind));
    }
    if (oe->length != (n64 + 1) * sizeof(std::uint64_t)) {
      snapfmt::Fail(path, oe->offset,
                    "offset section length disagrees with node count");
    }
    if (ae->length != specs[c].total * sizeof(NodeId)) {
      snapfmt::Fail(path, ae->offset,
                    "adjacency section length disagrees with the meta "
                    "section");
    }
    offs[c] = ReadOffsets(data + oe->offset, static_cast<std::size_t>(n64) + 1);
    CheckOffsets(path, *oe, offs[c], specs[c].total);
    adjs[c] = ReadNodeIds(data + ae->offset,
                          static_cast<std::size_t>(specs[c].total));
  }

  Layout layout;
  if ((flags & snapfmt::kFlagHasLayout) != 0) {
    const SectionEntry* le = img.by_kind[snapfmt::kLayout];
    if (le == nullptr || le->length != n64 * sizeof(NodeId)) {
      snapfmt::Fail(path, snapfmt::kHeaderBytes,
                    "missing or malformed layout section");
    }
    std::vector<NodeId> old_of_new =
        ReadNodeIds(data + le->offset, static_cast<std::size_t>(n64))
            .ToStdVector();
    layout.new_of_old.assign(n, kInvalidNode);
    for (NodeId v = 0; v < n; ++v) {
      const NodeId o = old_of_new[v];
      if (o >= n || layout.new_of_old[o] != kInvalidNode) {
        snapfmt::Fail(path, le->offset,
                      "layout permutation is not a bijection");
      }
      layout.new_of_old[o] = v;
    }
    layout.old_of_new = std::move(old_of_new);
  }

  Snapshot snap;
  snap.graph = AugmentedGraph(
      SocialGraph::FromCsr(n, std::move(offs[0]), std::move(adjs[0])),
      RejectionGraph::FromCsr(n, std::move(offs[1]), std::move(adjs[1]),
                              std::move(offs[2]), std::move(adjs[2])));
  snap.layout = std::move(layout);
  return snap;
}

}  // namespace

void SaveSnapshot(const std::string& path, const AugmentedGraph& g,
                  const Layout& layout, const SnapshotOptions& options,
                  std::span<const unsigned char> state) {
  const NodeId n = g.NumNodes();
  CompressedSnapshotWriter writer(path, n, {.block_rows = options.block_rows},
                                  layout, state);
  const SocialGraph& fr = g.Friendships();
  const RejectionGraph& rej = g.Rejections();
  for (NodeId u = 0; u < n; ++u) writer.AppendFriendRow(fr.Neighbors(u));
  for (NodeId u = 0; u < n; ++u) {
    writer.AppendRejectionOutRow(rej.Rejectees(u));
  }
  for (NodeId u = 0; u < n; ++u) writer.AppendRejectionInRow(rej.Rejectors(u));
  writer.Finish();
}

Layout LayoutFromPermutation(std::vector<NodeId> new_of_old) {
  const std::size_t n = new_of_old.size();
  Layout layout;
  layout.old_of_new.assign(n, kInvalidNode);
  for (std::size_t old = 0; old < n; ++old) {
    const NodeId t = new_of_old[old];
    if (t >= n || layout.old_of_new[t] != kInvalidNode) {
      throw std::invalid_argument(
          "LayoutFromPermutation: not a bijection on [0, n)");
    }
    layout.old_of_new[t] = static_cast<NodeId>(old);
  }
  layout.new_of_old = std::move(new_of_old);
  return layout;
}

Snapshot LoadSnapshot(const std::string& path, util::ThreadPool* pool) {
  // Dispatch on the magic with a plain 8-byte peek (no failpoints, no map):
  // each branch then opens the file exactly once, so fault-injection
  // counters on "snapshot/open"/"snapshot/map" see one evaluation per load
  // regardless of version. An unreadable file falls through to the v1
  // branch, whose FileBytes produces the canonical error.
  char magic[8] = {};
  {
    std::ifstream in(path, std::ios::binary);
    in.read(magic, sizeof(magic));
  }
  if (std::memcmp(magic, snapfmt::kMagicV2, sizeof(magic)) == 0) {
    return CompressedGraphView::Open(path).Materialize(pool);
  }
  return LoadSnapshotV1(path);
}

}  // namespace rejecto::graph
