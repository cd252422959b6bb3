#include "graph/compressed_view.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "graph/block_codec.h"
#include "util/crc32c.h"
#include "util/thread_pool.h"

namespace rejecto::graph {
namespace {

constexpr std::uint32_t kCsrBlobKind[3] = {
    snapfmt::kFrBlocks, snapfmt::kOutBlocks, snapfmt::kInBlocks};
constexpr std::uint32_t kCsrIndexKind[3] = {
    snapfmt::kFrIndex, snapfmt::kOutIndex, snapfmt::kInIndex};

std::string BlobName(int csr) {
  return std::string(snapfmt::SectionName(kCsrBlobKind[csr])) +
         " section (kind " + std::to_string(kCsrBlobKind[csr]) + ")";
}

}  // namespace

CompressedGraphView CompressedGraphView::Open(const std::string& path) {
  CompressedGraphView view;
  view.file_ = std::make_shared<snapfmt::FileBytes>(path);
  view.path_ = path;
  const unsigned char* data = view.file_->data();
  const std::size_t size = view.file_->size();

  const snapfmt::ParsedImage img = snapfmt::ParseImage(path, data, size);

  const snapfmt::SectionEntry* meta = img.by_kind[snapfmt::kMeta];
  if (meta == nullptr || meta->length != snapfmt::kMetaBytesV2) {
    snapfmt::Fail(path, snapfmt::kHeaderBytes,
                  "missing or malformed meta section");
  }
  const unsigned char* mp = data + meta->offset;
  const std::uint64_t n64 = snapfmt::GetU64Le(mp);
  view.edges_ = snapfmt::GetU64Le(mp + 8);
  view.arcs_ = snapfmt::GetU64Le(mp + 16);
  const std::uint64_t flags = snapfmt::GetU64Le(mp + 24);
  const std::uint64_t block_rows = snapfmt::GetU64Le(mp + 32);
  view.max_friendship_degree_ = snapfmt::GetU64Le(mp + 40);
  view.max_rejection_degree_ = snapfmt::GetU64Le(mp + 48);
  if (n64 >= kInvalidNode) {
    snapfmt::Fail(path, meta->offset,
                  "node count " + std::to_string(n64) +
                      " exceeds the 32-bit id space");
  }
  // No flag is defined. A set bit means a writer this reader does not
  // know (the retired permutation flag was bit 0), so the file is refused.
  if (flags != 0) {
    snapfmt::Fail(path, meta->offset + 24,
                  "unknown meta flags " + std::to_string(flags));
  }
  if (block_rows < 64 || block_rows > 256) {
    snapfmt::Fail(path, meta->offset,
                  "block span " + std::to_string(block_rows) +
                      " outside the supported [64, 256] range");
  }
  view.n_ = static_cast<NodeId>(n64);
  view.block_rows_ = static_cast<std::uint32_t>(block_rows);
  view.num_blocks_ =
      view.n_ == 0
          ? 0
          : (view.n_ + view.block_rows_ - 1) / view.block_rows_;

  const std::uint64_t totals[3] = {2 * view.edges_, view.arcs_, view.arcs_};
  for (int c = 0; c < 3; ++c) {
    const snapfmt::SectionEntry* be = img.by_kind[kCsrBlobKind[c]];
    const snapfmt::SectionEntry* ie = img.by_kind[kCsrIndexKind[c]];
    if (be == nullptr || ie == nullptr) {
      snapfmt::Fail(path, snapfmt::kHeaderBytes,
                    "missing compressed CSR sections " +
                        std::to_string(kCsrBlobKind[c]) + "/" +
                        std::to_string(kCsrIndexKind[c]));
    }
    const std::uint64_t expect_index =
        (static_cast<std::uint64_t>(view.num_blocks_) + 1) *
        snapfmt::kIndexEntryBytes;
    if (ie->length != expect_index) {
      snapfmt::Fail(path, ie->offset,
                    "block index length disagrees with node count");
    }
    CsrView& cv = view.csr_[c];
    cv.index = data + ie->offset;
    cv.blob = data + be->offset;
    cv.blob_file_offset = be->offset;
    cv.blob_len = be->length;
    cv.total_adj = totals[c];

    // Walk the (small) index once: records must tile the blob exactly and
    // the rows must tile [0, n). Everything downstream (block decode,
    // Materialize's disjoint writes) relies on these invariants.
    std::uint64_t prev_off = 0;
    std::uint64_t prev_adj = 0;
    std::uint64_t rows_total = 0;
    for (NodeId b = 0; b <= view.num_blocks_; ++b) {
      std::uint64_t off = 0;
      std::uint64_t adj = 0;
      std::uint32_t crc = 0;
      std::uint32_t rows = 0;
      view.IndexRecord(c, b, &off, &adj, &crc, &rows);
      const std::uint64_t rec_offset =
          ie->offset + static_cast<std::uint64_t>(b) * snapfmt::kIndexEntryBytes;
      if (b == 0 && (off != 0 || adj != 0)) {
        snapfmt::Fail(path, rec_offset,
                      "block index does not start at the blob origin");
      }
      if (off < prev_off || adj < prev_adj) {
        snapfmt::Fail(path, rec_offset, "block index is not monotone");
      }
      if (b < view.num_blocks_) {
        const bool last = b + 1 == view.num_blocks_;
        if (rows == 0 || rows > view.block_rows_ ||
            (!last && rows != view.block_rows_)) {
          snapfmt::Fail(path, rec_offset,
                        "block row count disagrees with the block span");
        }
        rows_total += rows;
      } else {
        // Sentinel: byte_off/first_adj carry the blob totals.
        if (off != cv.blob_len) {
          snapfmt::Fail(path, rec_offset,
                        "block index totals disagree with the blob section "
                        "length");
        }
        if (adj != cv.total_adj) {
          snapfmt::Fail(path, rec_offset,
                        "block index adjacency total disagrees with the meta "
                        "section");
        }
      }
      prev_off = off;
      prev_adj = adj;
    }
    if (rows_total != view.n_) {
      snapfmt::Fail(path, ie->offset,
                    "block rows do not cover the node count");
    }
  }

  if (const snapfmt::SectionEntry* se = img.by_kind[snapfmt::kState]) {
    view.state_ = {data + se->offset, static_cast<std::size_t>(se->length)};
  }
  return view;
}

void CompressedGraphView::IndexRecord(int csr, NodeId block,
                                      std::uint64_t* byte_off,
                                      std::uint64_t* first_adj,
                                      std::uint32_t* crc,
                                      std::uint32_t* rows) const {
  const unsigned char* p =
      csr_[csr].index +
      static_cast<std::size_t>(block) * snapfmt::kIndexEntryBytes;
  *byte_off = snapfmt::GetU64Le(p);
  *first_adj = snapfmt::GetU64Le(p + 8);
  *crc = snapfmt::GetU32Le(p + 16);
  *rows = snapfmt::GetU32Le(p + 20);
}

std::uint64_t CompressedGraphView::BlockFirstAdj(int csr, NodeId block) const {
  std::uint64_t off = 0, adj = 0;
  std::uint32_t crc = 0, rows = 0;
  IndexRecord(csr, block, &off, &adj, &crc, &rows);
  return adj;
}

std::uint32_t CompressedGraphView::BlockRowCount(int csr, NodeId block) const {
  std::uint64_t off = 0, adj = 0;
  std::uint32_t crc = 0, rows = 0;
  IndexRecord(csr, block, &off, &adj, &crc, &rows);
  return rows;
}

void CompressedGraphView::BlockFileRange(int csr, NodeId block,
                                         std::uint64_t* offset,
                                         std::uint64_t* length) const {
  std::uint64_t off = 0, next_off = 0, adj = 0;
  std::uint32_t crc = 0, rows = 0;
  IndexRecord(csr, block, &off, &adj, &crc, &rows);
  IndexRecord(csr, block + 1, &next_off, &adj, &crc, &rows);
  *offset = csr_[csr].blob_file_offset + off;
  *length = next_off - off;
}

void CompressedGraphView::DecodeBlockInto(
    int csr, NodeId block, util::AlignedVector<std::uint32_t>& row_offsets,
    util::AlignedVector<NodeId>& adj) const {
  const CsrView& cv = csr_[csr];
  std::uint64_t off = 0, first_adj = 0, next_off = 0, next_adj = 0;
  std::uint32_t crc = 0, rows = 0, scrap_crc = 0, scrap_rows = 0;
  IndexRecord(csr, block, &off, &first_adj, &crc, &rows);
  IndexRecord(csr, block + 1, &next_off, &next_adj, &scrap_crc, &scrap_rows);
  const unsigned char* bytes = cv.blob + off;
  const std::size_t len = static_cast<std::size_t>(next_off - off);
  const std::string where =
      BlobName(csr) + " block " + std::to_string(block);
  // Per-block integrity: the blob section carries no whole-section CRC
  // (opening must not page it in), so corruption is caught here, on the
  // first decode of the affected block.
  if (util::Crc32c(bytes, len) != crc) {
    snapfmt::Fail(path_, cv.blob_file_offset + off,
                  where + " CRC mismatch (corrupt bytes)");
  }
  std::string error;
  if (!DecodeAdjBlock(bytes, len, block * block_rows_, rows, row_offsets, adj,
                      &error)) {
    snapfmt::Fail(path_, cv.blob_file_offset + off,
                  where + " decode failure: " + error);
  }
  if (adj.size() != next_adj - first_adj) {
    snapfmt::Fail(path_, cv.blob_file_offset + off,
                  where + " adjacency count disagrees with the block index");
  }
}

Snapshot CompressedGraphView::Materialize(util::ThreadPool* pool) const {
  util::AlignedVector<std::size_t> offs[3];
  util::AlignedVector<NodeId> adjs[3];
  for (int c = 0; c < 3; ++c) {
    offs[c].resize(static_cast<std::size_t>(n_) + 1);
    offs[c][0] = 0;
    adjs[c].resize(static_cast<std::size_t>(csr_[c].total_adj));
  }

  // Each block owns a disjoint slice of its CSR ([first_adj, next first_adj)
  // plus its rows' offsets), so blocks decode in parallel with no
  // synchronization beyond the pool barrier.
  const std::size_t work = static_cast<std::size_t>(num_blocks_) * 3;
  auto expand = [&](std::size_t i, util::AlignedVector<std::uint32_t>& ro,
                    util::AlignedVector<NodeId>& scratch) {
    const int c = static_cast<int>(i / num_blocks_);
    const NodeId b = static_cast<NodeId>(i % num_blocks_);
    DecodeBlockInto(c, b, ro, scratch);
    const std::uint64_t first_adj = BlockFirstAdj(c, b);
    const NodeId first_row = b * block_rows_;
    const std::size_t rows = ro.size() - 1;
    for (std::size_t r = 0; r < rows; ++r) {
      offs[c][first_row + r + 1] =
          static_cast<std::size_t>(first_adj) + ro[r + 1];
    }
    if (!scratch.empty()) {
      std::memcpy(adjs[c].data() + first_adj, scratch.data(),
                  scratch.size() * sizeof(NodeId));
    }
  };

  if (pool != nullptr && pool->size() > 1 && work > 1) {
    struct Scratch {
      util::AlignedVector<std::uint32_t> ro;
      util::AlignedVector<NodeId> adj;
    };
    std::vector<Scratch> scratch(std::min(work, pool->size()));
    pool->ParallelFor(work, [&](std::size_t block, std::size_t i) {
      expand(i, scratch[block].ro, scratch[block].adj);
    });
  } else {
    util::AlignedVector<std::uint32_t> ro;
    util::AlignedVector<NodeId> scratch;
    for (std::size_t i = 0; i < work; ++i) expand(i, ro, scratch);
  }

  Snapshot snap;
  snap.graph = AugmentedGraph(
      SocialGraph::FromCsr(n_, std::move(offs[0]), std::move(adjs[0])),
      RejectionGraph::FromCsr(n_, std::move(offs[1]), std::move(adjs[1]),
                              std::move(offs[2]), std::move(adjs[2])));
  snap.state.assign(state_.begin(), state_.end());
  return snap;
}

}  // namespace rejecto::graph
