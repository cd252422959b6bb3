#include "graph/snapshot_format.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "util/crc32c.h"
#include "util/failpoint.h"

namespace rejecto::graph::snapfmt {

const char* SectionName(std::uint32_t kind) {
  switch (kind) {
    case kMeta: return "meta";
    case kFrBlocks: return "friendship-blocks";
    case kFrIndex: return "friendship-block-index";
    case kOutBlocks: return "rejection-out-blocks";
    case kOutIndex: return "rejection-out-block-index";
    case kInBlocks: return "rejection-in-blocks";
    case kInIndex: return "rejection-in-block-index";
    case kState: return "state";
    default: return "unknown";
  }
}

void PutU32Le(unsigned char* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = (v >> (8 * i)) & 0xff;
}

void PutU64Le(unsigned char* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = (v >> (8 * i)) & 0xff;
}

std::uint32_t GetU32Le(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t GetU64Le(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

void Fail(const std::string& path, std::uint64_t offset,
          const std::string& what) {
  throw std::runtime_error("snapshot: " + path + " at offset " +
                           std::to_string(offset) + ": " + what);
}

// ---------- load side ----------

FileBytes::FileBytes(const std::string& path) {
  if (util::Failpoints::Instance().ShouldFail("snapshot/open")) {
    throw std::runtime_error("snapshot: injected open failure on " + path);
  }
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw std::runtime_error("snapshot: cannot open " + path);
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    throw std::runtime_error("snapshot: cannot stat " + path);
  }
  size_ = static_cast<std::size_t>(st.st_size);

  const bool force_fallback =
      util::Failpoints::Instance().ShouldFail("snapshot/map");
  if (size_ > 0 && !force_fallback) {
    void* m = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (m != MAP_FAILED) {
      map_ = m;
      data_ = static_cast<const unsigned char*>(m);
    }
  }
  if (data_ == nullptr && size_ > 0) {
    // Buffered fallback: one sequential read of the whole file.
    buf_.resize(size_);
    std::ifstream in(path, std::ios::binary);
    if (!in.read(reinterpret_cast<char*>(buf_.data()),
                 static_cast<std::streamsize>(size_))) {
      ::close(fd);
      throw std::runtime_error("snapshot: cannot read " + path);
    }
    data_ = buf_.data();
  }
  ::close(fd);
}

FileBytes::~FileBytes() {
  if (map_ != nullptr) ::munmap(map_, size_);
}

void FileBytes::ReleaseRange(std::size_t offset, std::size_t length) const {
  if (map_ == nullptr || length == 0 || offset >= size_) return;
  const std::size_t page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  const std::size_t begin = (offset / page) * page;
  std::size_t end = offset + std::min(length, size_ - offset);
  end = ((end + page - 1) / page) * page;
  if (end > size_) end = size_;
  if (end > begin) {
    ::madvise(static_cast<char*>(map_) + begin, end - begin, MADV_DONTNEED);
  }
}

ParsedImage ParseImage(const std::string& path, const unsigned char* data,
                       std::size_t size) {
  ParsedImage img;
  if (size < kHeaderBytes) Fail(path, size, "truncated header");
  if (std::memcmp(data, kMagicV2, 8) != 0) {
    Fail(path, 0, "bad magic (not an RJSNAP02 snapshot)");
  }
  img.count = GetU32Le(data + 8);
  if (img.count == 0 || img.count > kMaxSections) {
    Fail(path, 8, "implausible section count " + std::to_string(img.count));
  }
  const std::size_t table_bytes = img.count * kEntryBytes;
  if (size < kHeaderBytes + table_bytes) {
    Fail(path, size, "truncated section table");
  }
  if (util::Crc32c(data + kHeaderBytes, table_bytes) != GetU32Le(data + 12)) {
    Fail(path, 12, "section table CRC mismatch");
  }

  // Validate every entry's kind, bounds and content CRC before any payload
  // is consumed. An unknown kind is refused outright: a section the reader
  // would skip may change what the rest of the file means (the retired
  // permutation section did), so no file loads with one. A section running
  // past the end of the file is reported as TRUNCATION (the tail is
  // missing); a section whose bytes are present but fail their CRC is
  // reported as corruption — distinct errors so an operator can tell a torn
  // copy from bit rot.
  for (std::uint32_t i = 0; i < img.count; ++i) {
    const unsigned char* p = data + kHeaderBytes + i * kEntryBytes;
    SectionEntry& e = img.entries[i];
    e.kind = GetU32Le(p);
    e.crc = GetU32Le(p + 4);
    e.offset = GetU64Le(p + 8);
    e.length = GetU64Le(p + 16);
    if (!IsKnownKind(e.kind)) {
      Fail(path, kHeaderBytes + i * kEntryBytes,
           "unknown section kind " + std::to_string(e.kind) +
               " in the section table");
    }
    const std::string name =
        std::string(SectionName(e.kind)) + " section (kind " +
        std::to_string(e.kind) + ")";
    if (e.offset > size || e.length > size - e.offset) {
      Fail(path, e.offset,
           name + " truncated: length " + std::to_string(e.length) +
               " exceeds file size " + std::to_string(size));
    }
    if (!IsBlobKind(e.kind)) {
      if (util::Crc32c(data + e.offset, static_cast<std::size_t>(e.length)) !=
          e.crc) {
        Fail(path, e.offset, name + " CRC mismatch (corrupt bytes)");
      }
    }
    if (e.offset % kSectionAlign != 0) {
      Fail(path, e.offset,
           name +
               " is not 64-byte aligned (pre-alignment snapshot? re-save "
               "with this build)");
    }
    if (img.by_kind[e.kind] != nullptr) {
      Fail(path, e.offset, "duplicate " + name);
    }
    img.by_kind[e.kind] = &e;
  }

  // Every byte the CRCs do not cover must still be accounted for: the gaps
  // the 64-byte alignment leaves (after the table, between sections) are
  // zero, and the file ends with its last section. Walking the sections in
  // offset order, `end` is the first byte not yet covered.
  const SectionEntry* order[kMaxSections];
  for (std::uint32_t i = 0; i < img.count; ++i) order[i] = &img.entries[i];
  std::sort(order, order + img.count,
            [](const SectionEntry* a, const SectionEntry* b) {
              return a->offset < b->offset;
            });
  std::uint64_t end = kHeaderBytes + table_bytes;
  for (std::uint32_t i = 0; i < img.count; ++i) {
    for (; end < order[i]->offset; ++end) {
      if (data[end] != 0) Fail(path, end, "non-zero byte in section padding");
    }
    end = std::max(end, order[i]->offset + order[i]->length);
  }
  if (end != size) {
    Fail(path, end,
         std::to_string(size - end) + " trailing bytes after the last section");
  }
  return img;
}

}  // namespace rejecto::graph::snapfmt
