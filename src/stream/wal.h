// Crash-safe binary write-ahead log and checkpoints for the streaming layer.
//
// The text MutationLog persistence (Save/Load) is a debugging format: a torn
// write corrupts it irrecoverably and nothing detects bit rot. The WAL is
// the durable form of the same event stream, built for operators that must
// survive crashes (paper §V's continuously-running deployment):
//
//   segment file := magic "RJWAL001" ++ record*
//   record       := len:u32le ++ crc:u32le ++ payload[len]
//   payload      := tag:u8 ++ u:u32le ++ v:u32le        (9 bytes)
//
// where tag 0–3 are the stream::EventType values and tag 4 is a grow-to
// marker carrying MutationLog::GrowTo's node count in `u`. `crc` is CRC32C
// of the payload. Appends go to numbered segments ("<base>.000001.wal",
// ...); a segment rotates once it reaches WalOptions::max_segment_bytes,
// and Sync() (or sync_every_n) fsyncs the live segment.
//
// Recovery invariants (pinned by the torn-write property test):
//   * RecoverWal NEVER throws on torn or corrupt data — a record whose
//     header is incomplete, whose length is insane, whose payload is short,
//     whose CRC mismatches, or whose decoded event is semantically invalid
//     ends recovery at the last valid record; everything after (including
//     later segments) is reported as truncated bytes.
//   * The recovered events are exactly a prefix of the acked appends, so
//     replaying them through DeltaGraph/MutationLog reproduces the
//     pre-crash graph bit-identically.
//
// Checkpoints bound replay: CheckpointDeltaGraph / EpochDetector::
// SaveCheckpoint write an RJSNAP02 snapshot (graph/snapshot.h: CRC-guarded,
// atomic via tmp + rename; the detector adds its state section), and
// recovery = restore checkpoint + replay the WAL tail beyond the
// checkpoint's event count. Corrupt checkpoints throw — the operator falls
// back to an older checkpoint or a full WAL replay.
//
// Failpoint sites (see util/failpoint.h): "wal/open", "wal/append_write"
// (tears the record mid-write then fails, simulating a crash), "wal/sync";
// checkpoints fire the snapshot writer's "snapshot/write" and
// "snapshot/rename".
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "graph/types.h"
#include "stream/delta_graph.h"
#include "stream/mutation_log.h"

namespace rejecto::stream {

struct WalOptions {
  // Rotate past this size; must be positive (WalWriter throws
  // std::invalid_argument on 0 before it touches a file).
  std::uint64_t max_segment_bytes = 64ull << 20;
  // fsync the live segment after every Nth acked record; 0 = only on
  // explicit Sync() / Close().
  std::uint64_t sync_every_n = 0;
};

// Appends events to the numbered segment after the highest existing one (a
// restarted writer never touches a possibly-torn tail; recovery handles
// that). Throws std::runtime_error on real or injected I/O failure; after a
// failed append the writer is broken and every later Append throws — the
// in-file state past the last ack is undefined, exactly what RecoverWal
// truncates.
class WalWriter {
 public:
  explicit WalWriter(std::string base_path, WalOptions options = {});
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  void Append(const Event& e);
  // Records MutationLog::GrowTo so trailing isolated nodes survive replay.
  void AppendGrowTo(graph::NodeId num_nodes);

  void Sync();   // fsync the live segment
  void Close();  // sync + close; idempotent

  std::uint64_t NumAppended() const noexcept { return appended_; }
  std::uint32_t SegmentIndex() const noexcept { return segment_index_; }
  const std::string& SegmentPath() const noexcept { return segment_path_; }

 private:
  void OpenNextSegment();
  void AppendRecord(const unsigned char* payload, std::uint32_t len);

  std::string base_path_;
  WalOptions options_;
  std::FILE* file_ = nullptr;
  std::string segment_path_;
  std::uint32_t segment_index_ = 0;
  std::uint64_t segment_bytes_ = 0;
  std::uint64_t appended_ = 0;
  std::uint64_t unsynced_ = 0;
  bool broken_ = false;
};

struct WalRecoverResult {
  std::vector<Event> events;
  graph::NodeId num_nodes = 0;       // max grow-to / event-implied id + 1
  std::uint32_t segments_scanned = 0;
  std::uint64_t valid_records = 0;   // events + grow markers recovered
  std::uint64_t truncated_bytes = 0; // torn/corrupt bytes discarded
  bool clean = true;                 // false when anything was truncated

  // The recovered prefix as a replayable MutationLog.
  MutationLog BuildLog() const;
};

// Scans "<base>.000001.wal", ... in order. Missing base → empty clean
// result. Never throws on torn or corrupt contents (see header comment).
WalRecoverResult RecoverWal(const std::string& base_path);

// Recovers a single segment file (the property-test entry point).
WalRecoverResult RecoverWalSegment(const std::string& segment_path);

// Little-endian bounds-checked byte codec. EpochDetector serializes its
// warm-start state through it into the checkpoint's state section.
struct ByteWriter {
  std::vector<unsigned char> buf;

  void PutU8(std::uint8_t v) { buf.push_back(v); }
  void PutU32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf.push_back((v >> (8 * i)) & 0xff);
  }
  void PutU64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf.push_back((v >> (8 * i)) & 0xff);
  }
  void PutF64(double v);
  void PutBytes(const void* data, std::size_t len);
};

// Throws std::runtime_error on reads past the end (a truncated payload that
// slipped past the CRC can never read uninitialized memory).
class ByteReader {
 public:
  ByteReader(const unsigned char* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint8_t GetU8();
  std::uint32_t GetU32();
  std::uint64_t GetU64();
  double GetF64();
  void GetBytes(void* out, std::size_t len);
  std::size_t Remaining() const noexcept { return size_ - pos_; }

 private:
  const unsigned char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// Compacts the overlay and atomically writes the base graph as a snapshot.
void CheckpointDeltaGraph(DeltaGraph& d, const std::string& path);

// Restores a checkpointed graph into a fresh DeltaGraph. Throws
// std::runtime_error on missing, truncated, or corrupt checkpoints.
DeltaGraph RestoreDeltaGraph(const std::string& path, DeltaConfig config = {});

}  // namespace rejecto::stream
