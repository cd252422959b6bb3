// Reader for an RJSNAP02 compressed snapshot.
//
// CompressedGraphView mmaps the file and exposes the three adjacency
// structures (friendship, rejection-out, rejection-in) at block granularity:
// Open() validates the container, the meta section and the three block
// indexes — a few KB of reads — without paging in a single adjacency byte.
// Each block's encoded bytes carry their own CRC32C in the index, verified
// when the block is decoded (DecodeBlockInto), so opening stays cheap and a
// damaged block is reported by section, block and file offset.
//
// Materialize() decodes every block (in parallel on a pool) into a plain
// in-RAM Snapshot. It is all LoadSnapshot does, and the way detection
// reads a compressed snapshot: DetectFriendSpammersCompressed materializes
// once on the detection pool and runs the in-RAM pipeline, so every block's
// CRC is checked before any KL run starts.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "graph/snapshot.h"
#include "graph/snapshot_format.h"
#include "graph/types.h"
#include "util/buffer.h"

namespace rejecto::util {
class ThreadPool;
}  // namespace rejecto::util

namespace rejecto::graph {

class CompressedGraphView {
 public:
  // CSR selector for the block APIs.
  enum Csr : int { kFriend = 0, kRejOut = 1, kRejIn = 2 };

  // Maps and validates `path`. Throws std::runtime_error (with the usual
  // "snapshot: <path> at offset <n>: ..." diagnostics) on any container
  // violation, and on anything this reader does not read: another magic
  // (the retired raw-CSR RJSNAP format included), a non-zero meta flags
  // word, or a section kind other than meta, the six compressed-adjacency
  // kinds and state.
  static CompressedGraphView Open(const std::string& path);

  NodeId NumNodes() const noexcept { return n_; }
  std::uint64_t NumEdges() const noexcept { return edges_; }
  std::uint64_t NumArcs() const noexcept { return arcs_; }
  std::uint32_t BlockRows() const noexcept { return block_rows_; }
  // Identical for all three CSRs (same row count, same span).
  NodeId NumBlocks() const noexcept { return num_blocks_; }

  // Degree maxima from the meta section — exact, computed by the writer,
  // so ExtendedKl's gain bound is identical on the RAM and compressed
  // paths (a prerequisite for bit-identical cuts).
  std::uint64_t MaxFriendshipDegree() const noexcept {
    return max_friendship_degree_;
  }
  std::uint64_t MaxRejectionDegree() const noexcept {
    return max_rejection_degree_;
  }

  const std::string& Path() const noexcept { return path_; }

  // Bytes of file mapped (the whole file).
  std::uint64_t MappedBytes() const noexcept { return file_->size(); }

  // Total encoded adjacency bytes across the three blob sections.
  std::uint64_t AdjacencyBlobBytes() const noexcept {
    return csr_[0].blob_len + csr_[1].blob_len + csr_[2].blob_len;
  }

  // Global adjacency index of the first entry of `block` (== the CSR offset
  // of the block's first row).
  std::uint64_t BlockFirstAdj(int csr, NodeId block) const;

  // Rows in `block` (block_rows_ except possibly the last block).
  std::uint32_t BlockRowCount(int csr, NodeId block) const;

  // File-absolute byte range of the block's encoded bytes, for
  // FileBytes::ReleaseRange during bounded-RSS scans.
  void BlockFileRange(int csr, NodeId block, std::uint64_t* offset,
                      std::uint64_t* length) const;

  // CRC-verifies and decodes one block into reusable scratch: block-local
  // row offsets (BlockRowCount + 1 entries) and the block's adjacency.
  // Throws std::runtime_error naming the section, block and file offset on
  // CRC mismatch or malformed block bytes.
  void DecodeBlockInto(int csr, NodeId block,
                       util::AlignedVector<std::uint32_t>& row_offsets,
                       util::AlignedVector<NodeId>& adj) const;

  const snapfmt::FileBytes& Bytes() const noexcept { return *file_; }

  // Full in-RAM expansion (all of LoadSnapshot), state section included.
  // Decodes blocks in parallel when a pool is supplied (each writes a
  // disjoint slice of the target CSR), serially otherwise.
  Snapshot Materialize(util::ThreadPool* pool = nullptr) const;

 private:
  struct CsrView {
    const unsigned char* index = nullptr;  // (num_blocks + 1) records
    const unsigned char* blob = nullptr;
    std::uint64_t blob_file_offset = 0;
    std::uint64_t blob_len = 0;
    std::uint64_t total_adj = 0;
  };

  CompressedGraphView() = default;

  // {byte_off, first_adj, crc, rows} of index record `block` (the sentinel
  // included, as record num_blocks_).
  void IndexRecord(int csr, NodeId block, std::uint64_t* byte_off,
                   std::uint64_t* first_adj, std::uint32_t* crc,
                   std::uint32_t* rows) const;

  std::shared_ptr<snapfmt::FileBytes> file_;
  std::string path_;
  NodeId n_ = 0;
  std::uint64_t edges_ = 0;
  std::uint64_t arcs_ = 0;
  std::uint32_t block_rows_ = 0;
  NodeId num_blocks_ = 0;
  std::uint64_t max_friendship_degree_ = 0;
  std::uint64_t max_rejection_degree_ = 0;
  std::span<const unsigned char> state_;  // state section, in the mapping
  CsrView csr_[3];
};

}  // namespace rejecto::graph
