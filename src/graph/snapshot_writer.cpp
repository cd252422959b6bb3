#include "graph/snapshot_writer.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "graph/block_codec.h"
#include "graph/snapshot_format.h"
#include "util/crc32c.h"
#include "util/failpoint.h"

namespace rejecto::graph {

namespace {
constexpr std::uint32_t kCsrBlobKind[3] = {
    snapfmt::kFrBlocks, snapfmt::kOutBlocks, snapfmt::kInBlocks};
constexpr std::uint32_t kCsrIndexKind[3] = {
    snapfmt::kFrIndex, snapfmt::kOutIndex, snapfmt::kInIndex};
}  // namespace

CompressedSnapshotWriter::CompressedSnapshotWriter(
    std::string path, NodeId num_nodes, Options options,
    std::span<const unsigned char> state)
    : path_(std::move(path)),
      tmp_(path_ + ".tmp"),
      n_(num_nodes),
      block_rows_(std::clamp<std::uint32_t>(options.block_rows, 64, 256)) {
  if (util::Failpoints::Instance().ShouldFail("snapshot/write")) {
    throw std::runtime_error("snapshot: injected write failure on " + tmp_);
  }
  file_ = std::fopen(tmp_.c_str(), "wb");
  if (file_ == nullptr) {
    throw std::runtime_error("snapshot: cannot open " + tmp_);
  }
  const std::uint32_t sections = 7 + (state.empty() ? 0 : 1);
  section_base_ = snapfmt::kHeaderBytes +
                  static_cast<std::uint64_t>(sections) * snapfmt::kEntryBytes;
  while (section_base_ % snapfmt::kSectionAlign != 0) ++section_base_;
  // Header + table placeholder; patched by Finish() once every section
  // offset and CRC is known. A constructor that throws runs no destructor,
  // so a failed write aborts the tmp here.
  try {
    const std::vector<unsigned char> zeros(section_base_, 0);
    WriteBytes(zeros.data(), zeros.size());
    if (!state.empty()) {
      WriteSection(snapfmt::kState, state.data(), state.size());
      PadToAlignment();
    }
  } catch (...) {
    Abort();
    throw;
  }
  csr_[0].section_offset = file_offset_;
}

CompressedSnapshotWriter::~CompressedSnapshotWriter() {
  if (phase_ != 3) Abort();
}

void CompressedSnapshotWriter::Abort() noexcept {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  std::remove(tmp_.c_str());
}

void CompressedSnapshotWriter::WriteBytes(const void* data,
                                          std::size_t length) {
  if (length == 0) return;
  if (std::fwrite(data, 1, length, file_) != length) {
    throw std::runtime_error("snapshot: write failure on " + tmp_);
  }
  file_offset_ += length;
}

void CompressedSnapshotWriter::PadToAlignment() {
  static const unsigned char kZeros[snapfmt::kSectionAlign] = {0};
  const std::uint64_t rem = file_offset_ % snapfmt::kSectionAlign;
  if (rem != 0) WriteBytes(kZeros, snapfmt::kSectionAlign - rem);
}

std::uint64_t CompressedSnapshotWriter::AdjacencyBlobBytes() const noexcept {
  return csr_[0].blob_bytes + csr_[1].blob_bytes + csr_[2].blob_bytes;
}

void CompressedSnapshotWriter::AppendRow(int csr, std::span<const NodeId> row) {
  CsrStream& s = csr_[csr];
  if (s.rows_appended >= n_) {
    throw std::invalid_argument(
        "CompressedSnapshotWriter: more rows than nodes");
  }
  if (!row.empty() && row.back() >= n_) {
    // Rows are sorted (EncodeAdjBlock enforces it at flush), so the last
    // element bounds every neighbor id.
    throw std::invalid_argument(
        "CompressedSnapshotWriter: neighbor id exceeds node count");
  }
  s.degrees.push_back(static_cast<std::uint32_t>(row.size()));
  s.adj.insert(s.adj.end(), row.begin(), row.end());
  ++s.rows_appended;
  if (s.degrees.size() == block_rows_) FlushBlock(csr);
}

void CompressedSnapshotWriter::FlushBlock(int csr) {
  CsrStream& s = csr_[csr];
  if (s.degrees.empty()) return;
  const NodeId first_row =
      s.rows_appended - static_cast<NodeId>(s.degrees.size());
  encode_buf_.clear();
  EncodeAdjBlock(first_row, s.degrees, s.adj.data(), encode_buf_);
  unsigned char rec[snapfmt::kIndexEntryBytes];
  snapfmt::PutU64Le(rec, s.blob_bytes);
  snapfmt::PutU64Le(rec + 8, s.total_adj);
  snapfmt::PutU32Le(rec + 16,
                    util::Crc32c(encode_buf_.data(), encode_buf_.size()));
  snapfmt::PutU32Le(rec + 20, static_cast<std::uint32_t>(s.degrees.size()));
  s.index.insert(s.index.end(), rec, rec + snapfmt::kIndexEntryBytes);
  WriteBytes(encode_buf_.data(), encode_buf_.size());
  s.blob_bytes += encode_buf_.size();
  s.total_adj += s.adj.size();
  s.degrees.clear();
  s.adj.clear();
}

void CompressedSnapshotWriter::FinishStream(int csr) {
  CsrStream& s = csr_[csr];
  if (s.rows_appended != n_) {
    throw std::invalid_argument(
        "CompressedSnapshotWriter: stream is missing rows");
  }
  FlushBlock(csr);
  table_.push_back({kCsrBlobKind[csr], 0, s.section_offset, s.blob_bytes});
  // Sentinel record: blob totals, so readers derive block byte lengths and
  // the final global row offset without a second array.
  unsigned char rec[snapfmt::kIndexEntryBytes];
  snapfmt::PutU64Le(rec, s.blob_bytes);
  snapfmt::PutU64Le(rec + 8, s.total_adj);
  snapfmt::PutU32Le(rec + 16, 0);
  snapfmt::PutU32Le(rec + 20, 0);
  s.index.insert(s.index.end(), rec, rec + snapfmt::kIndexEntryBytes);
  WriteSection(kCsrIndexKind[csr], s.index.data(), s.index.size());
  s.index.clear();
  s.index.shrink_to_fit();
  if (csr < 2) {
    PadToAlignment();
    csr_[csr + 1].section_offset = file_offset_;
  }
}

void CompressedSnapshotWriter::WriteSection(std::uint32_t kind,
                                            const void* data,
                                            std::uint64_t length) {
  PadToAlignment();
  const std::uint32_t crc =
      util::Crc32c(data, static_cast<std::size_t>(length));
  table_.push_back({kind, crc, file_offset_, length});
  WriteBytes(data, static_cast<std::size_t>(length));
}

void CompressedSnapshotWriter::AppendFriendRow(std::span<const NodeId> row) {
  if (phase_ != 0) {
    throw std::logic_error(
        "CompressedSnapshotWriter: friendship rows must come first");
  }
  max_friend_degree_ = std::max<std::uint64_t>(max_friend_degree_, row.size());
  AppendRow(0, row);
}

void CompressedSnapshotWriter::AppendRejectionOutRow(
    std::span<const NodeId> row) {
  if (phase_ == 0) {
    FinishStream(0);
    phase_ = 1;
    out_degree_.assign(n_, 0);
  }
  if (phase_ != 1) {
    throw std::logic_error(
        "CompressedSnapshotWriter: out-rows must precede in-rows");
  }
  out_degree_[csr_[1].rows_appended] = static_cast<std::uint32_t>(row.size());
  AppendRow(1, row);
}

void CompressedSnapshotWriter::AppendRejectionInRow(
    std::span<const NodeId> row) {
  if (phase_ == 0 || phase_ == 1) {
    if (phase_ == 0) {
      FinishStream(0);
      out_degree_.assign(n_, 0);
    }
    FinishStream(1);
    phase_ = 2;
  }
  if (phase_ != 2) {
    throw std::logic_error(
        "CompressedSnapshotWriter: writer already finished");
  }
  // The max rejection degree is per-node in + out, matching what
  // AugmentedGraph computes at construction (ExtendedKl's gain bound must
  // be identical on both paths).
  max_rejection_degree_ = std::max<std::uint64_t>(
      max_rejection_degree_,
      static_cast<std::uint64_t>(out_degree_[csr_[2].rows_appended]) +
          row.size());
  AppendRow(2, row);
}

void CompressedSnapshotWriter::Finish() {
  if (phase_ == 3) {
    throw std::logic_error("CompressedSnapshotWriter: already finished");
  }
  if (phase_ == 0) {
    FinishStream(0);
    out_degree_.assign(n_, 0);
    phase_ = 1;
  }
  if (phase_ == 1) {
    FinishStream(1);
    phase_ = 2;
  }
  FinishStream(2);
  out_degree_.clear();
  out_degree_.shrink_to_fit();

  if (csr_[0].total_adj % 2 != 0) {
    throw std::invalid_argument(
        "CompressedSnapshotWriter: friendship adjacency total is odd");
  }
  if (csr_[1].total_adj != csr_[2].total_adj) {
    throw std::invalid_argument(
        "CompressedSnapshotWriter: in-arc total disagrees with out-arcs");
  }

  unsigned char meta[snapfmt::kMetaBytesV2];
  snapfmt::PutU64Le(meta, n_);
  snapfmt::PutU64Le(meta + 8, csr_[0].total_adj / 2);
  snapfmt::PutU64Le(meta + 16, csr_[1].total_adj);
  snapfmt::PutU64Le(meta + 24, 0);  // flags: none defined
  snapfmt::PutU64Le(meta + 32, block_rows_);
  snapfmt::PutU64Le(meta + 40, max_friend_degree_);
  snapfmt::PutU64Le(meta + 48, max_rejection_degree_);
  WriteSection(snapfmt::kMeta, meta, sizeof(meta));

  // Patch the header + section table in place, then publish.
  std::vector<unsigned char> table(table_.size() * snapfmt::kEntryBytes);
  for (std::size_t i = 0; i < table_.size(); ++i) {
    unsigned char* p = table.data() + i * snapfmt::kEntryBytes;
    snapfmt::PutU32Le(p, table_[i].kind);
    snapfmt::PutU32Le(p + 4, table_[i].crc);
    snapfmt::PutU64Le(p + 8, table_[i].offset);
    snapfmt::PutU64Le(p + 16, table_[i].length);
  }
  unsigned char header[snapfmt::kHeaderBytes];
  std::memcpy(header, snapfmt::kMagicV2, 8);
  snapfmt::PutU32Le(header + 8, static_cast<std::uint32_t>(table_.size()));
  snapfmt::PutU32Le(header + 12, util::Crc32c(table.data(), table.size()));

  bool ok = std::fseek(file_, 0, SEEK_SET) == 0;
  ok = ok && std::fwrite(header, 1, sizeof(header), file_) == sizeof(header);
  ok = ok && std::fwrite(table.data(), 1, table.size(), file_) == table.size();
  ok = ok && std::fflush(file_) == 0 && ::fsync(::fileno(file_)) == 0;
  std::fclose(file_);
  file_ = nullptr;
  if (!ok) {
    std::remove(tmp_.c_str());
    throw std::runtime_error("snapshot: write failure on " + tmp_);
  }
  if (util::Failpoints::Instance().ShouldFail("snapshot/rename") ||
      std::rename(tmp_.c_str(), path_.c_str()) != 0) {
    std::remove(tmp_.c_str());
    throw std::runtime_error("snapshot: cannot publish " + path_);
  }
  phase_ = 3;
}

}  // namespace rejecto::graph
