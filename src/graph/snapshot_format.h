// Container internals of the RJSNAP02 snapshot format.
//
// Internal header (not part of the public graph API): the writer
// (graph/snapshot_writer.cpp) and the mmap reader LoadSnapshot goes through
// (graph/compressed_view.cpp) speak the same header + section-table
// container, so its constants, little-endian codecs, file mapping and
// validation live here once.
//
// Layout:
//   [0,  8)  magic "RJSNAP02" (any other magic is refused, the retired
//            raw-CSR format included)
//   [8, 12)  u32 section count
//   [12,16)  u32 CRC32C of the section-table bytes
//   [16, ..) section table, 24 bytes per entry:
//              u32 kind, u32 crc32c(section bytes), u64 offset, u64 length
//   sections, each at a 64-byte-aligned offset; every byte between them
//   (and between the table and the first section) is zero, and the file
//   ends where the last section ends
//
// The sections are the meta section (kind 0), the compressed adjacency
// kinds 8–13 and an optional state section (kind 14: opaque caller bytes,
// the epoch detector's checkpoint state). Kinds 1–7 belonged to the retired
// raw-CSR format and its permutation section; the reader refuses them, and
// every other kind, rather than load a file it does not fully understand.
// The BLOB kinds (8/10/12) carry entry.crc == 0 and are excluded from the
// load-time whole-section CRC sweep — each compressed block carries its own
// CRC32C in the block index, verified at decode time, so opening a 100M+
// edge snapshot never pages the adjacency bytes in.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/memory.h"

namespace rejecto::graph::snapfmt {

inline constexpr char kMagicV2[8] = {'R', 'J', 'S', 'N', 'A', 'P', '0', '2'};

enum SectionKind : std::uint32_t {
  kMeta = 0,
  kFrBlocks = 8,    // compressed friendship adjacency blocks
  kFrIndex = 9,     // friendship block index
  kOutBlocks = 10,  // compressed rejection out-adjacency blocks
  kOutIndex = 11,
  kInBlocks = 12,   // compressed rejection in-adjacency blocks
  kInIndex = 13,
  kState = 14,      // opaque caller state (checkpoints only)
};

inline constexpr std::size_t kEntryBytes = 24;   // kind + crc + offset + length
inline constexpr std::size_t kHeaderBytes = 16;  // magic + count + table crc
inline constexpr std::uint32_t kMaxSections = 64;
inline constexpr std::uint32_t kMaxKinds = kState + 1;  // by_kind slots
// Every section starts on a 64-byte boundary (util::memory::kAlignment) so
// an mmap'd view can hand section payloads straight to the SIMD kernels.
inline constexpr std::size_t kSectionAlign = util::memory::kAlignment;

// Meta: 7 × u64 (n, E, R, flags, block_rows, max_friendship_degree,
// max_rejection_degree — the degree maxima ExtendedKl's gain bound needs,
// precomputed so a compressed view never scans the file to recover them).
// No flag is defined: the writer stores 0 and the reader refuses any other
// value.
inline constexpr std::size_t kMetaBytesV2 = 7 * 8;

// One block-index record (kFrIndex/kOutIndex/kInIndex payloads):
//   u64 byte_off    first byte of the block inside the blob section
//   u64 first_adj   global adjacency index of the block's first entry
//   u32 crc         CRC32C of the block's encoded bytes
//   u32 rows        rows in the block (last block may be short)
// An index section holds num_blocks records plus one sentinel whose
// byte_off/first_adj are the blob's totals (crc = rows = 0), so block byte
// lengths and global row offsets need no second array.
inline constexpr std::size_t kIndexEntryBytes = 24;

struct SectionEntry {
  std::uint32_t kind = 0;
  std::uint32_t crc = 0;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
};

// Blob sections skip the load-time whole-section CRC (see header note).
inline constexpr bool IsBlobKind(std::uint32_t kind) {
  return kind == kFrBlocks || kind == kOutBlocks || kind == kInBlocks;
}

// The kinds the reader reads: meta, the six compressed-adjacency kinds and
// state.
inline constexpr bool IsKnownKind(std::uint32_t kind) {
  return kind == kMeta || (kind >= kFrBlocks && kind <= kState);
}

// Human-readable section name for loader diagnostics.
const char* SectionName(std::uint32_t kind);

void PutU32Le(unsigned char* p, std::uint32_t v);
void PutU64Le(unsigned char* p, std::uint64_t v);
std::uint32_t GetU32Le(const unsigned char* p);
std::uint64_t GetU64Le(const unsigned char* p);

// Throws std::runtime_error("snapshot: <path> at offset <n>: <what>").
[[noreturn]] void Fail(const std::string& path, std::uint64_t offset,
                       const std::string& what);

// ---------- load side ----------

// Owns the loaded bytes: an mmap'd region, or a heap buffer when mapping is
// unavailable (failpoint "snapshot/map", zero-length files, exotic FS).
class FileBytes {
 public:
  FileBytes(const FileBytes&) = delete;
  FileBytes& operator=(const FileBytes&) = delete;

  explicit FileBytes(const std::string& path);
  ~FileBytes();

  const unsigned char* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }

  // Returns the residency of [offset, offset+length) to the kernel when the
  // bytes are mmap'd (madvise DONTNEED; pages reload from disk on the next
  // touch). No-op on the buffered fallback. The 100M-edge bench scan uses
  // this to keep peak RSS bounded while sweeping the whole blob.
  void ReleaseRange(std::size_t offset, std::size_t length) const;

 private:
  void* map_ = nullptr;
  std::vector<unsigned char> buf_;
  const unsigned char* data_ = nullptr;
  std::size_t size_ = 0;
};

// The validated header + section table.
struct ParsedImage {
  std::uint32_t count = 0;
  SectionEntry entries[kMaxSections];
  const SectionEntry* by_kind[kMaxKinds] = {nullptr};
};

// Validates the container: magic, section count, table CRC, and for every
// entry a known kind (IsKnownKind), bounds (distinguishing a TRUNCATED file
// from corrupt bytes), content CRC (skipped for blob kinds), 64-byte
// alignment and kind uniqueness; then that every byte outside the header,
// the table and the sections is a zero pad byte and that nothing follows
// the last section. Every failure throws via Fail() naming the section (or
// the stray byte, or the table entry of an unknown kind) and its offset.
ParsedImage ParseImage(const std::string& path, const unsigned char* data,
                       std::size_t size);

}  // namespace rejecto::graph::snapfmt
