// Streaming RJSNAP02 writer: emits a compressed snapshot row by row,
// without ever materializing the graph.
//
// SaveSnapshot feeds it from an in-RAM AugmentedGraph, and the 100M-edge
// synthetic generator (gen/synthetic_stream.h) feeds it straight from its
// row generator — both produce byte-identical files for identical rows, so
// there is exactly one snapshot encoder in the tree.
//
// Protocol: construct with the node count, then append all n friendship
// rows, all n rejection out-rows, and all n rejection in-rows, in that
// order and in ascending row id, then Finish(). Rows must be sorted and
// duplicate-free (the CSR invariant). The writer streams encoded blocks to
// `path + ".tmp"` as they fill, keeps only the current block buffer, the
// growing block indexes (24 bytes per block per CSR) and one u32 per node
// (the out-degrees, needed for the exact max-rejection-degree the meta
// section must carry), and publishes atomically via rename in Finish() —
// peak writer RSS is O(n) small constants, independent of edge count.
// Failpoints: "snapshot/write" (construction) and "snapshot/rename"
// (Finish).
//
// Destruction before Finish() aborts the file: the tmp is removed and
// `path` is left untouched.
#pragma once

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "graph/types.h"

namespace rejecto::graph {

class CompressedSnapshotWriter {
 public:
  struct Options {
    // Rows per compressed block; clamped into [64, 256] (the format's
    // supported span range).
    std::uint32_t block_rows = 128;
  };

  // A non-empty `state` is written at once as the file's state section.
  CompressedSnapshotWriter(std::string path, NodeId num_nodes, Options options,
                           std::span<const unsigned char> state = {});
  ~CompressedSnapshotWriter();

  CompressedSnapshotWriter(const CompressedSnapshotWriter&) = delete;
  CompressedSnapshotWriter& operator=(const CompressedSnapshotWriter&) = delete;

  void AppendFriendRow(std::span<const NodeId> row);
  void AppendRejectionOutRow(std::span<const NodeId> row);
  void AppendRejectionInRow(std::span<const NodeId> row);

  // Writes the index/meta sections and the header + section table,
  // fsyncs, and atomically renames the tmp into place. Throws when row
  // counts are incomplete, the in-arc total disagrees with the out-arc
  // total, or the friendship total is odd.
  void Finish();

  // Total encoded blob bytes across the three adjacency streams so far
  // (the number the ≤ 0.5× raw-adjacency compression criterion is about).
  std::uint64_t AdjacencyBlobBytes() const noexcept;

 private:
  struct CsrStream {
    std::vector<std::uint32_t> degrees;  // buffered rows of the open block
    std::vector<NodeId> adj;
    std::vector<unsigned char> index;    // accumulated index records
    std::uint64_t blob_bytes = 0;        // encoded bytes flushed so far
    std::uint64_t total_adj = 0;         // adjacency entries flushed
    NodeId rows_appended = 0;
    std::uint64_t section_offset = 0;    // blob section file offset
  };

  void AppendRow(int csr, std::span<const NodeId> row);
  void FlushBlock(int csr);             // encodes + writes the open block
  void FinishStream(int csr);           // final partial block + index section
  void WriteSection(std::uint32_t kind, const void* data,
                    std::uint64_t length);
  void PadToAlignment();
  void WriteBytes(const void* data, std::size_t length);
  void Abort() noexcept;

  std::string path_;
  std::string tmp_;
  std::FILE* file_ = nullptr;
  NodeId n_ = 0;
  std::uint32_t block_rows_ = 128;
  std::uint64_t file_offset_ = 0;
  std::uint64_t section_base_ = 0;  // first section offset (after the table)
  CsrStream csr_[3];
  int phase_ = 0;  // 0 = friend rows, 1 = out rows, 2 = in rows, 3 = finished
  std::vector<unsigned char> encode_buf_;
  std::vector<std::uint32_t> out_degree_;  // per-node, for max rejection degree
  std::uint64_t max_friend_degree_ = 0;
  std::uint64_t max_rejection_degree_ = 0;
  struct TableEntry {
    std::uint32_t kind;
    std::uint32_t crc;
    std::uint64_t offset;
    std::uint64_t length;
  };
  std::vector<TableEntry> table_;
};

}  // namespace rejecto::graph
