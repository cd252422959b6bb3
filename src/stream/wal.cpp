#include "stream/wal.h"

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

#include "graph/snapshot.h"
#include "util/crc32c.h"
#include "util/failpoint.h"

namespace rejecto::stream {

namespace {

constexpr char kWalMagic[8] = {'R', 'J', 'W', 'A', 'L', '0', '0', '1'};
constexpr std::uint32_t kPayloadLen = 9;   // tag + u + v
constexpr std::uint32_t kRecordLen = 17;   // len + crc + payload
constexpr std::uint32_t kMaxPayloadLen = 1u << 20;  // length sanity bound
constexpr std::uint8_t kGrowTag = 4;       // after the EventType values

std::string SegmentPathFor(const std::string& base, std::uint32_t index) {
  char suffix[16];
  std::snprintf(suffix, sizeof(suffix), ".%06u.wal", index);
  return base + suffix;
}

std::uint32_t ReadU32Le(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

void WriteU32Le(unsigned char* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = (v >> (8 * i)) & 0xff;
}

// Serializes an event (or grow marker) into the 9-byte payload.
void EncodePayload(std::uint8_t tag, graph::NodeId u, graph::NodeId v,
                   unsigned char* out) {
  out[0] = tag;
  WriteU32Le(out + 1, u);
  WriteU32Le(out + 5, v);
}

// File-size helper for accounting truncated segments.
std::uint64_t FileSize(std::FILE* f) {
  const long pos = std::ftell(f);
  std::fseek(f, 0, SEEK_END);
  const long end = std::ftell(f);
  std::fseek(f, pos, SEEK_SET);
  return end < 0 ? 0 : static_cast<std::uint64_t>(end);
}

void FsyncFile(std::FILE* f, const std::string& path, const char* site) {
  if (std::fflush(f) != 0 || util::Failpoints::Instance().ShouldFail(site) ||
      ::fsync(::fileno(f)) != 0) {
    throw std::runtime_error(std::string("wal: fsync failed on ") + path);
  }
}

}  // namespace

// ---------- ByteWriter / ByteReader ----------

void ByteWriter::PutF64(double v) {
  PutU64(std::bit_cast<std::uint64_t>(v));
}

void ByteWriter::PutBytes(const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  buf.insert(buf.end(), p, p + len);
}

std::uint8_t ByteReader::GetU8() {
  if (pos_ + 1 > size_) throw std::runtime_error("checkpoint: short payload");
  return data_[pos_++];
}

std::uint32_t ByteReader::GetU32() {
  if (pos_ + 4 > size_) throw std::runtime_error("checkpoint: short payload");
  const std::uint32_t v = ReadU32Le(data_ + pos_);
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::GetU64() {
  const std::uint64_t lo = GetU32();
  const std::uint64_t hi = GetU32();
  return lo | (hi << 32);
}

double ByteReader::GetF64() { return std::bit_cast<double>(GetU64()); }

void ByteReader::GetBytes(void* out, std::size_t len) {
  if (pos_ + len > size_) throw std::runtime_error("checkpoint: short payload");
  std::memcpy(out, data_ + pos_, len);
  pos_ += len;
}

// ---------- WalWriter ----------

WalWriter::WalWriter(std::string base_path, WalOptions options)
    : base_path_(std::move(base_path)), options_(options) {
  // A zero limit would rotate after every record; refuse it before any
  // file is probed or created.
  if (options_.max_segment_bytes == 0) {
    throw std::invalid_argument("WalWriter: max_segment_bytes must be positive");
  }
  // Continue after the highest existing segment; a possibly-torn tail in an
  // old segment is recovery's business, never the writer's.
  std::uint32_t last = 0;
  while (true) {
    std::FILE* probe = std::fopen(SegmentPathFor(base_path_, last + 1).c_str(), "rb");
    if (probe == nullptr) break;
    std::fclose(probe);
    ++last;
  }
  segment_index_ = last;
  OpenNextSegment();
}

WalWriter::~WalWriter() {
  try {
    Close();
  } catch (...) {
    // A destructor cannot surface the failure; the tail loss is exactly
    // what RecoverWal tolerates.
  }
}

void WalWriter::OpenNextSegment() {
  ++segment_index_;
  segment_path_ = SegmentPathFor(base_path_, segment_index_);
  if (util::Failpoints::Instance().ShouldFail("wal/open")) {
    throw std::runtime_error("wal: injected open failure on " + segment_path_);
  }
  file_ = std::fopen(segment_path_.c_str(), "wb");
  if (file_ == nullptr) {
    throw std::runtime_error("wal: cannot open segment " + segment_path_);
  }
  if (std::fwrite(kWalMagic, 1, sizeof(kWalMagic), file_) !=
      sizeof(kWalMagic)) {
    throw std::runtime_error("wal: cannot write header of " + segment_path_);
  }
  segment_bytes_ = sizeof(kWalMagic);
}

void WalWriter::AppendRecord(const unsigned char* payload, std::uint32_t len) {
  if (broken_) {
    throw std::runtime_error(
        "wal: writer broken by an earlier failure; recover before appending");
  }
  if (file_ == nullptr) throw std::runtime_error("wal: writer is closed");

  unsigned char record[kRecordLen];
  WriteU32Le(record, len);
  WriteU32Le(record + 4, util::Crc32c(payload, len));
  std::memcpy(record + 8, payload, len);

  if (util::Failpoints::Instance().ShouldFail("wal/append_write")) {
    // Simulated crash mid-write: a prefix of the record reaches the file,
    // then the process "dies". The record was never acked.
    std::fwrite(record, 1, kRecordLen / 2, file_);
    std::fflush(file_);
    broken_ = true;
    throw std::runtime_error("wal: injected torn write on " + segment_path_);
  }
  if (std::fwrite(record, 1, kRecordLen, file_) != kRecordLen) {
    broken_ = true;
    throw std::runtime_error("wal: short write on " + segment_path_);
  }
  segment_bytes_ += kRecordLen;
  ++appended_;
  ++unsynced_;
  if (options_.sync_every_n > 0 && unsynced_ >= options_.sync_every_n) {
    Sync();
  }
  if (segment_bytes_ >= options_.max_segment_bytes) {
    FsyncFile(file_, segment_path_, "wal/sync");
    std::fclose(file_);
    file_ = nullptr;
    OpenNextSegment();
  }
}

void WalWriter::Append(const Event& e) {
  if (e.u == graph::kInvalidNode ||
      (e.type != EventType::kRemoveNode &&
       (e.v == graph::kInvalidNode || e.u == e.v))) {
    throw std::invalid_argument("WalWriter::Append: invalid event");
  }
  unsigned char payload[kPayloadLen];
  EncodePayload(static_cast<std::uint8_t>(e.type), e.u, e.v, payload);
  AppendRecord(payload, kPayloadLen);
}

void WalWriter::AppendGrowTo(graph::NodeId num_nodes) {
  unsigned char payload[kPayloadLen];
  EncodePayload(kGrowTag, num_nodes, 0, payload);
  AppendRecord(payload, kPayloadLen);
}

void WalWriter::Sync() {
  if (file_ == nullptr || broken_) return;
  try {
    FsyncFile(file_, segment_path_, "wal/sync");
  } catch (...) {
    broken_ = true;  // post-fsync-failure page state is unknowable
    throw;
  }
  unsynced_ = 0;
}

void WalWriter::Close() {
  if (file_ == nullptr) return;
  Sync();
  std::fclose(file_);
  file_ = nullptr;
}

// ---------- Recovery ----------

namespace {

// Decodes and validates one payload; returns false when it is semantically
// invalid (treated exactly like a CRC mismatch — the tail is truncated).
bool DecodePayload(const unsigned char* payload, std::uint32_t len,
                   WalRecoverResult& out) {
  if (len != kPayloadLen) return false;
  const std::uint8_t tag = payload[0];
  const graph::NodeId u = ReadU32Le(payload + 1);
  const graph::NodeId v = ReadU32Le(payload + 5);
  if (tag == kGrowTag) {
    out.num_nodes = std::max(out.num_nodes, u);
    return true;
  }
  if (tag > static_cast<std::uint8_t>(EventType::kRemoveNode)) return false;
  const auto type = static_cast<EventType>(tag);
  if (u == graph::kInvalidNode) return false;
  if (type != EventType::kRemoveNode &&
      (v == graph::kInvalidNode || u == v)) {
    return false;
  }
  out.events.push_back({type, u, v});
  out.num_nodes = std::max(out.num_nodes, u + 1);
  if (type != EventType::kRemoveNode) {
    out.num_nodes = std::max(out.num_nodes, v + 1);
  }
  return true;
}

// Returns true when the segment ended cleanly (recovery may continue into
// the next segment); false truncates here and abandons later segments.
bool RecoverSegment(std::FILE* f, WalRecoverResult& out) {
  const std::uint64_t size = FileSize(f);
  unsigned char magic[sizeof(kWalMagic)];
  std::uint64_t pos = std::fread(magic, 1, sizeof(magic), f);
  if (pos != sizeof(magic) ||
      std::memcmp(magic, kWalMagic, sizeof(magic)) != 0) {
    out.truncated_bytes += size;
    return false;
  }
  while (true) {
    unsigned char header[8];
    const std::size_t got = std::fread(header, 1, sizeof(header), f);
    if (got == 0) return true;  // clean end
    if (got < sizeof(header)) {
      out.truncated_bytes += got;
      return false;  // torn header
    }
    const std::uint32_t len = ReadU32Le(header);
    const std::uint32_t crc = ReadU32Le(header + 4);
    if (len == 0 || len > kMaxPayloadLen || len > size - pos) {
      out.truncated_bytes += size - pos;
      return false;  // insane length (corrupt header)
    }
    std::vector<unsigned char> payload(len);
    if (std::fread(payload.data(), 1, len, f) != len) {
      out.truncated_bytes += size - pos;
      return false;  // torn payload
    }
    if (util::Crc32c(payload.data(), len) != crc ||
        !DecodePayload(payload.data(), len, out)) {
      out.truncated_bytes += size - pos;
      return false;  // corrupt record
    }
    pos += sizeof(header) + len;
    ++out.valid_records;
  }
}

}  // namespace

WalRecoverResult RecoverWalSegment(const std::string& segment_path) {
  WalRecoverResult out;
  std::FILE* f = std::fopen(segment_path.c_str(), "rb");
  if (f == nullptr) return out;
  out.segments_scanned = 1;
  out.clean = RecoverSegment(f, out);
  std::fclose(f);
  return out;
}

WalRecoverResult RecoverWal(const std::string& base_path) {
  WalRecoverResult out;
  for (std::uint32_t seg = 1;; ++seg) {
    std::FILE* f = std::fopen(SegmentPathFor(base_path, seg).c_str(), "rb");
    if (f == nullptr) break;
    ++out.segments_scanned;
    const bool clean = RecoverSegment(f, out);
    std::fclose(f);
    if (!clean) {
      // Later segments hold events acked after the corruption; replaying
      // them would reorder the stream, so charge them to the truncation.
      out.clean = false;
      for (std::uint32_t later = seg + 1;; ++later) {
        std::FILE* g = std::fopen(SegmentPathFor(base_path, later).c_str(), "rb");
        if (g == nullptr) break;
        ++out.segments_scanned;
        out.truncated_bytes += FileSize(g);
        std::fclose(g);
      }
      break;
    }
  }
  return out;
}

MutationLog WalRecoverResult::BuildLog() const {
  MutationLog log;
  for (const Event& e : events) log.Append(e);
  if (num_nodes > log.NumNodes()) log.GrowTo(num_nodes);
  return log;
}

// ---------- Checkpoints ----------

void CheckpointDeltaGraph(DeltaGraph& d, const std::string& path) {
  d.Compact();
  graph::SaveSnapshot(path, d.Graph());
}

DeltaGraph RestoreDeltaGraph(const std::string& path, DeltaConfig config) {
  return DeltaGraph(std::move(graph::LoadSnapshot(path).graph), config);
}

}  // namespace rejecto::stream
