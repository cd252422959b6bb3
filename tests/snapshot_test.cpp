// graph/snapshot.h: round-trip exactness, byte determinism, the refusal of
// files the reader does not fully read (unknown section kinds, meta flags,
// other magics), and the corruption model — every torn or bit-flipped file
// (every byte of it, the committed graph.snap2 and checkpoints included)
// must be rejected with a clean path+offset error, never undefined behavior.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "detect/iterative.h"
#include "engine/epoch_detector.h"
#include "gen/holme_kim.h"
#include "graph/builder.h"
#include "graph/compressed_view.h"
#include "graph/snapshot.h"
#include "sim/scenario.h"
#include "util/crc32c.h"
#include "util/failpoint.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace rejecto {
namespace {

namespace fs = std::filesystem;

using graph::AugmentedGraph;
using graph::Layout;
using graph::LoadSnapshot;
using graph::NodeId;
using graph::SaveSnapshot;
using graph::Snapshot;

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("rejecto_snapshot_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + std::to_string(reinterpret_cast<std::uintptr_t>(this)));
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

// The deterministic graph tests/golden/graph.snap2 holds (pinned byte for
// byte by compressed_view_test). Touch it only together with that file.
AugmentedGraph GoldenGraph() {
  graph::GraphBuilder b(9);
  b.AddFriendship(0, 1);
  b.AddFriendship(0, 2);
  b.AddFriendship(1, 2);
  b.AddFriendship(3, 4);
  b.AddFriendship(4, 5);
  b.AddFriendship(6, 0);
  b.AddRejection(7, 0);
  b.AddRejection(7, 3);
  b.AddRejection(5, 7);
  b.AddRejection(8, 7);  // 8: rejector only; node ids 0..8 all materialized
  return b.BuildAugmented();
}

AugmentedGraph RandomScenarioGraph(std::uint64_t seed, NodeId n = 400) {
  util::Rng rng(seed);
  const auto legit = gen::HolmeKim({.num_nodes = n, .edges_per_node = 3}, rng);
  sim::ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.num_fakes = n / 10;
  return sim::BuildScenario(legit, cfg).graph;
}

std::vector<unsigned char> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  return std::vector<unsigned char>(std::istreambuf_iterator<char>(in),
                                    std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path,
                    const std::vector<unsigned char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

std::uint32_t GetU32(const std::vector<unsigned char>& b, std::size_t at) {
  return static_cast<std::uint32_t>(b[at]) |
         (static_cast<std::uint32_t>(b[at + 1]) << 8) |
         (static_cast<std::uint32_t>(b[at + 2]) << 16) |
         (static_cast<std::uint32_t>(b[at + 3]) << 24);
}

std::uint64_t GetU64(const std::vector<unsigned char>& b, std::size_t at) {
  return static_cast<std::uint64_t>(GetU32(b, at)) |
         (static_cast<std::uint64_t>(GetU32(b, at + 4)) << 32);
}

void PutU32(std::vector<unsigned char>& b, std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    b[at + i] = static_cast<unsigned char>(v >> (8 * i));
  }
}

void PutU64(std::vector<unsigned char>& b, std::size_t at, std::uint64_t v) {
  PutU32(b, at, static_cast<std::uint32_t>(v));
  PutU32(b, at + 4, static_cast<std::uint32_t>(v >> 32));
}

struct SectionEntry {
  std::uint32_t kind = 0;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
};

// Parses the section table of a KNOWN-GOOD snapshot image (test-side
// reimplementation, so the tests can compute section boundaries without
// reaching into the loader's internals).
std::vector<SectionEntry> ParseTable(const std::vector<unsigned char>& b) {
  const std::uint32_t count = GetU32(b, 8);
  std::vector<SectionEntry> entries;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::size_t at = 16 + 24 * static_cast<std::size_t>(i);
    entries.push_back(SectionEntry{GetU32(b, at), GetU64(b, at + 8),
                                   GetU64(b, at + 16)});
  }
  return entries;
}

// The committed RJSNAP02 pin of GoldenGraph().
std::string GoldenV2() {
  return std::string(REJECTO_GOLDEN_DIR) + "/graph.snap2";
}

// Re-seals a hand-edited image the way a writer would: every non-blob
// section's CRC over its bytes, then the table CRC. The edited file is
// therefore refused for what it says, not for a checksum.
void Reseal(std::vector<unsigned char>& b) {
  const std::uint32_t count = GetU32(b, 8);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::size_t at = 16 + 24 * static_cast<std::size_t>(i);
    const std::uint32_t kind = GetU32(b, at);
    if (kind == 8 || kind == 10 || kind == 12) continue;  // blobs: crc 0
    PutU32(b, at + 4,
           util::Crc32c(b.data() + GetU64(b, at + 8),
                        static_cast<std::size_t>(GetU64(b, at + 16))));
  }
  PutU32(b, 12, util::Crc32c(b.data() + 16, 24 * std::size_t{count}));
}

// Sets the meta section's flags word (bytes 24..32 of the meta payload).
std::vector<unsigned char> WithMetaFlags(std::vector<unsigned char> b,
                                         std::uint64_t flags) {
  for (const SectionEntry& e : ParseTable(b)) {
    if (e.kind == 0) PutU64(b, e.offset + 24, flags);
  }
  Reseal(b);
  return b;
}

// Adds one section of `kind` to a saved image, as a writer that knew the
// kind would have: the table grows by one entry, every section moves down
// by however much the 64-byte-aligned table end moved (0 or 64 bytes), and
// the payload is appended, aligned, at the end of the file.
std::vector<unsigned char> WithExtraSection(
    const std::vector<unsigned char>& b, std::uint32_t kind,
    const std::vector<unsigned char>& payload) {
  const auto align = [](std::size_t x) { return (x + 63) / 64 * 64; };
  const std::uint32_t count = GetU32(b, 8);
  const std::size_t old_base = align(16 + 24 * std::size_t{count});
  const std::size_t new_base = align(16 + 24 * std::size_t{count + 1});
  const std::size_t shift = new_base - old_base;

  std::vector<unsigned char> out(new_base, 0);
  std::copy(b.begin(), b.begin() + 16 + 24 * std::size_t{count}, out.begin());
  out.insert(out.end(), b.begin() + static_cast<std::ptrdiff_t>(old_base),
             b.end());
  PutU32(out, 8, count + 1);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::size_t at = 16 + 24 * static_cast<std::size_t>(i);
    PutU64(out, at + 8, GetU64(out, at + 8) + shift);
  }
  out.resize(align(out.size()), 0);
  const std::size_t at = 16 + 24 * static_cast<std::size_t>(count);
  PutU32(out, at, kind);
  PutU64(out, at + 8, out.size());
  PutU64(out, at + 16, payload.size());
  out.insert(out.end(), payload.begin(), payload.end());
  Reseal(out);
  return out;
}

// A permutation-shaped payload for an n-node file: n u32 ids, reversed.
std::vector<unsigned char> ReversedIds(NodeId n) {
  std::vector<unsigned char> p(4 * static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) PutU32(p, 4 * std::size_t{v}, n - 1 - v);
  return p;
}

// Expects `call` to throw std::runtime_error naming `path` and an offset.
template <typename Call>
void ExpectRefusedByPathAndOffset(const std::string& path, Call call,
                                  const std::string& label) {
  try {
    call();
    ADD_FAILURE() << label << ": " << path << " was accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << label << ": " << what;
    EXPECT_NE(what.find("at offset"), std::string::npos)
        << label << ": " << what;
  }
}

// An epoch detector checkpoint (a snapshot with a state section), taken
// after one epoch so the state carries a warm-start mask.
detect::Seeds CheckpointSeeds() {
  detect::Seeds seeds;
  seeds.legit = {0, 1};
  return seeds;
}

engine::EpochConfig CheckpointConfig() {
  engine::EpochConfig cfg;
  cfg.detect.target_detections = 6;
  cfg.detect.maar.seed = 5;
  cfg.warm_start = true;
  return cfg;
}

void SaveTestCheckpoint(const std::string& path) {
  engine::EpochDetector detector(RandomScenarioGraph(41, 60),
                                 CheckpointSeeds(), CheckpointConfig());
  detector.RunEpoch();
  detector.SaveCheckpoint(path);
}

// ---------- round trips ----------

TEST_F(SnapshotTest, IdentityRoundTripIsExact) {
  const AugmentedGraph g = RandomScenarioGraph(7);
  const std::string path = Path("g.snap");
  SaveSnapshot(path, g);
  const Snapshot snap = LoadSnapshot(path);
  EXPECT_EQ(snap.graph, g);
  EXPECT_EQ(snap, (Snapshot{g}));
}

TEST_F(SnapshotTest, StateSectionRoundTripsAndPlainSnapshotsCarryNone) {
  const AugmentedGraph g = RandomScenarioGraph(37, 120);
  const std::vector<unsigned char> state = {7, 0, 255, 42, 1};
  SaveSnapshot(Path("state.snap"), g, Layout{}, graph::SnapshotOptions{},
               state);
  EXPECT_EQ(LoadSnapshot(Path("state.snap")), (Snapshot{g, state}));

  // An empty state writes no section: the file is byte-identical to a
  // plain save, so snapshots without state are unchanged by the feature.
  SaveSnapshot(Path("plain.snap"), g);
  SaveSnapshot(Path("empty_state.snap"), g, Layout{}, graph::SnapshotOptions{},
               {});
  EXPECT_EQ(ReadFileBytes(Path("plain.snap")),
            ReadFileBytes(Path("empty_state.snap")));
  EXPECT_TRUE(LoadSnapshot(Path("plain.snap")).state.empty());
  EXPECT_TRUE(LoadSnapshot(GoldenV2()).state.empty());
}

TEST_F(SnapshotTest, PreservesIsolatedNodesAndEmptyGraphs) {
  // Text edge lists drop isolated nodes; snapshots must not.
  graph::GraphBuilder b(5);
  b.AddFriendship(1, 3);  // nodes 0, 2, 4 stay fully isolated
  const AugmentedGraph g = b.BuildAugmented();
  const std::string path = Path("iso.snap");
  SaveSnapshot(path, g);
  EXPECT_EQ(LoadSnapshot(path).graph, g);

  const AugmentedGraph empty = graph::GraphBuilder(0).BuildAugmented();
  SaveSnapshot(Path("empty.snap"), empty);
  const Snapshot esnap = LoadSnapshot(Path("empty.snap"));
  EXPECT_EQ(esnap.graph.NumNodes(), 0u);
  EXPECT_EQ(esnap.graph, empty);
}

TEST_F(SnapshotTest, WritesAreByteDeterministic) {
  const AugmentedGraph g = RandomScenarioGraph(13);
  SaveSnapshot(Path("a.snap"), g);
  SaveSnapshot(Path("b.snap"), g);
  EXPECT_EQ(ReadFileBytes(Path("a.snap")), ReadFileBytes(Path("b.snap")));
}

// ---------- corruption model ----------

// Cuts `path` at every header/table/section boundary and each section's
// midpoint; every cut must be rejected with a path+offset error.
void ExpectEveryTruncationRejected(const std::string& path,
                                   const std::string& torn,
                                   std::size_t sections) {
  const auto bytes = ReadFileBytes(path);
  const auto table = ParseTable(bytes);
  ASSERT_EQ(table.size(), sections) << path;

  std::vector<std::size_t> cuts = {0, 4, 8, 12, 16};
  for (std::size_t i = 0; i < table.size(); ++i) {
    cuts.push_back(16 + 24 * (i + 1));  // after table entry i
    cuts.push_back(table[i].offset);
    cuts.push_back(table[i].offset + table[i].length / 2);
    cuts.push_back(table[i].offset + table[i].length);
  }
  for (std::size_t cut : cuts) {
    if (cut >= bytes.size()) continue;
    WriteFileBytes(
        torn, std::vector<unsigned char>(bytes.begin(),
                                         bytes.begin() +
                                             static_cast<std::ptrdiff_t>(cut)));
    try {
      LoadSnapshot(torn);
      FAIL() << path << ": truncation at byte " << cut << " was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("snapshot: "), std::string::npos)
          << "cut=" << cut << " what=" << e.what();
      EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos)
          << "cut=" << cut << " what=" << e.what();
    }
  }
}

// A plain file has seven sections (meta and three blob + index pairs); a
// checkpoint adds its state section.
TEST_F(SnapshotTest, EveryTruncationIsRejectedCleanly) {
  const AugmentedGraph g = RandomScenarioGraph(17, 120);
  const std::string path = Path("g.snap");
  SaveSnapshot(path, g);
  ExpectEveryTruncationRejected(path, Path("torn.snap"), 7);
  ExpectEveryTruncationRejected(GoldenV2(), Path("torn_golden.snap"), 7);
  const std::string ckpt = Path("epoch.ckpt");
  SaveTestCheckpoint(ckpt);
  ExpectEveryTruncationRejected(ckpt, Path("torn.ckpt"), 8);
}

// One flip in the magic, the count, the table CRC, each table entry, and
// the middle of every section of `path`.
void ExpectSectionBitFlipsRejected(const std::string& path,
                                   const std::string& evil) {
  const auto bytes = ReadFileBytes(path);
  const auto table = ParseTable(bytes);
  std::vector<std::size_t> targets = {0, 9, 13};
  for (std::size_t i = 0; i < table.size(); ++i) {
    targets.push_back(16 + 24 * i + 4);  // the entry's stored section CRC
    targets.push_back(table[i].offset + table[i].length / 2);
  }
  for (std::size_t at : targets) {
    ASSERT_LT(at, bytes.size());
    auto mutated = bytes;
    mutated[at] ^= 0x40;
    WriteFileBytes(evil, mutated);
    EXPECT_THROW(LoadSnapshot(evil), std::runtime_error)
        << path << ": bit flip at byte " << at << " was accepted";
  }
}

TEST_F(SnapshotTest, BitFlipsAnywhereAreRejected) {
  const AugmentedGraph g = RandomScenarioGraph(19, 60);
  const std::string path = Path("g.snap");
  SaveSnapshot(path, g);
  ExpectSectionBitFlipsRejected(path, Path("flipped.snap"));
  ExpectSectionBitFlipsRejected(GoldenV2(), Path("flipped_golden.snap"));
  const std::string ckpt = Path("epoch.ckpt");
  SaveTestCheckpoint(ckpt);
  ExpectSectionBitFlipsRejected(ckpt, Path("flipped.ckpt"));
}

// An operator reading the error must be able to tell a torn copy (the
// tail is missing) from bit rot (the bytes are there but wrong): the
// loader names the section and says "truncated" for one, "CRC mismatch"
// for the other — never both.
void ExpectTruncationAndCorruptionDistinct(const std::string& path,
                                           const std::string& scratch) {
  const auto bytes = ReadFileBytes(path);
  const auto table = ParseTable(bytes);
  ASSERT_FALSE(table.empty());
  const SectionEntry& last = table.back();

  WriteFileBytes(scratch, std::vector<unsigned char>(
                              bytes.begin(),
                              bytes.begin() + static_cast<std::ptrdiff_t>(
                                                  last.offset + last.length / 2)));
  try {
    LoadSnapshot(scratch);
    FAIL() << path << ": torn section accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("truncated"), std::string::npos) << what;
    EXPECT_NE(what.find("section"), std::string::npos) << what;
    EXPECT_EQ(what.find("CRC mismatch"), std::string::npos) << what;
  }

  auto flipped = bytes;
  flipped[last.offset + last.length / 2] ^= 0x20;
  WriteFileBytes(scratch, flipped);
  try {
    LoadSnapshot(scratch);
    FAIL() << path << ": corrupt section accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("CRC mismatch"), std::string::npos) << what;
    EXPECT_NE(what.find("section"), std::string::npos) << what;
    EXPECT_EQ(what.find("truncated"), std::string::npos) << what;
  }
}

TEST_F(SnapshotTest, TruncationAndCorruptionAreDistinctErrors) {
  const AugmentedGraph g = RandomScenarioGraph(31, 120);
  const std::string path = Path("g.snap");
  SaveSnapshot(path, g);
  ExpectTruncationAndCorruptionDistinct(path, Path("bad.snap"));
  ExpectTruncationAndCorruptionDistinct(GoldenV2(), Path("bad_golden.snap"));
  const std::string ckpt = Path("epoch.ckpt");
  SaveTestCheckpoint(ckpt);
  ExpectTruncationAndCorruptionDistinct(ckpt, Path("bad.ckpt"));
}

// Every byte of a snapshot is covered by a check: a CRC (table, section or
// compressed block), the magic, or the rule that alignment padding is zero
// and nothing follows the last section. Flipping any single byte of the
// committed graph.snap2, of a fresh multi-block save, or of an epoch
// detector checkpoint must therefore be rejected.
TEST_F(SnapshotTest, EveryByteOfASnapshotIsChecked) {
  auto expect_every_flip_rejected = [&](const std::string& path,
                                        const auto& load) {
    const auto bytes = ReadFileBytes(path);
    ASSERT_FALSE(bytes.empty()) << path;
    const std::string evil = Path("flipped_every.snap");
    std::size_t accepted = 0;
    for (std::size_t at = 0; at < bytes.size(); ++at) {
      auto mutated = bytes;
      mutated[at] ^= 0x40;
      WriteFileBytes(evil, mutated);
      try {
        load(evil);
        ++accepted;
        ADD_FAILURE() << path << ": bit flip at byte " << at
                      << " was accepted";
      } catch (const std::runtime_error&) {
      }
    }
    EXPECT_EQ(accepted, 0u) << path << " (" << bytes.size() << " bytes)";
  };
  auto load = [](const std::string& p) { LoadSnapshot(p); };

  expect_every_flip_rejected(GoldenV2(), load);

  const std::string fresh = Path("fresh.snap");
  graph::SnapshotOptions options;
  options.block_rows = 64;  // 150 nodes: three blocks per CSR
  SaveSnapshot(fresh, RandomScenarioGraph(43, 150), Layout{}, options);
  expect_every_flip_rejected(fresh, load);

  const std::string ckpt = Path("epoch.ckpt");
  SaveTestCheckpoint(ckpt);
  expect_every_flip_rejected(ckpt, [&](const std::string& p) {
    engine::EpochDetector::RestoreCheckpoint(p, CheckpointSeeds(),
                                             CheckpointConfig());
  });
}

// A checkpoint is a snapshot with a state section. RestoreCheckpoint
// refuses a file in the retired RJCKP001 checkpoint format, a file with the
// retired RJSNAP01 snapshot magic, and a plain snapshot, naming the path
// each time.
TEST_F(SnapshotTest, RestoreCheckpointRefusesOldFormatAndPlainSnapshots) {
  auto expect_refused = [](const std::string& path) {
    try {
      engine::EpochDetector::RestoreCheckpoint(path, detect::Seeds{},
                                               engine::EpochConfig{});
      FAIL() << path << " restored as a checkpoint";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
          << e.what();
    }
  };

  std::vector<unsigned char> old_format = {'R', 'J', 'C', 'K',
                                           'P', '0', '0', '1'};
  old_format.resize(64, 0);
  WriteFileBytes(Path("old.ckpt"), old_format);
  expect_refused(Path("old.ckpt"));

  auto v1 = ReadFileBytes(GoldenV2());
  v1[7] = '1';  // "RJSNAP02" -> "RJSNAP01"
  WriteFileBytes(Path("v1.snap"), v1);
  expect_refused(Path("v1.snap"));

  SaveSnapshot(Path("plain.snap"), GoldenGraph());
  expect_refused(Path("plain.snap"));
  expect_refused(GoldenV2());
}

// The reader refuses what it does not read. Each file below is a copy of
// graph.snap2 with every CRC re-sealed, so only its content is wrong: a
// meta flag bit it does not know, or a well-formed extra section of a kind
// it does not read (1 was the retired format's friendship offsets, 7 its
// permutation; 15 and 20 are unassigned, 20 past the kind table). Loading
// any of them would ignore part of the file, so LoadSnapshot and
// CompressedGraphView::Open both refuse each, naming the path and offset.
TEST_F(SnapshotTest, UnreadFlagsAndSectionKindsAreRefused) {
  const auto golden = ReadFileBytes(GoldenV2());
  std::vector<std::pair<std::string, std::vector<unsigned char>>> probes;
  probes.emplace_back("flag_bit2.snap", WithMetaFlags(golden, 4));
  for (const std::uint32_t kind : {1u, 7u, 15u, 20u}) {
    probes.emplace_back("kind" + std::to_string(kind) + ".snap",
                        WithExtraSection(golden, kind, ReversedIds(9)));
  }
  for (const auto& [name, bytes] : probes) {
    const std::string path = Path(name);
    WriteFileBytes(path, bytes);
    ExpectRefusedByPathAndOffset(
        path, [&] { LoadSnapshot(path); }, "LoadSnapshot " + name);
    ExpectRefusedByPathAndOffset(
        path, [&] { graph::CompressedGraphView::Open(path); },
        "Open " + name);
  }
  // The same edits with what the reader does read load: an extra state
  // section, and flags re-sealed as 0 (which gives back the golden bytes).
  const std::string state = Path("state.snap");
  WriteFileBytes(state, WithExtraSection(golden, 14, ReversedIds(9)));
  EXPECT_EQ(LoadSnapshot(state), (Snapshot{GoldenGraph(), ReversedIds(9)}));
  WriteFileBytes(state, WithMetaFlags(golden, 0));
  EXPECT_EQ(ReadFileBytes(state), golden);
}

TEST_F(SnapshotTest, MissingFileAndGarbageAreRejected) {
  EXPECT_THROW(LoadSnapshot(Path("nope.snap")), std::runtime_error);
  WriteFileBytes(Path("garbage.snap"),
                 std::vector<unsigned char>(64, 0xAB));
  EXPECT_THROW(LoadSnapshot(Path("garbage.snap")), std::runtime_error);
}

// ---------- failpoints ----------

TEST_F(SnapshotTest, WriteAndRenameFailpointsLeaveNoPartialFile) {
  const AugmentedGraph g = GoldenGraph();
  const std::string path = Path("g.snap");
  {
    util::ScopedFailpoint fp("snapshot/write",
                             util::FailpointPolicy::OnNth(1));
    EXPECT_THROW(SaveSnapshot(path, g), std::runtime_error);
  }
  EXPECT_FALSE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  {
    util::ScopedFailpoint fp("snapshot/rename",
                             util::FailpointPolicy::OnNth(1));
    EXPECT_THROW(SaveSnapshot(path, g), std::runtime_error);
  }
  EXPECT_FALSE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  // With the failpoints disarmed the same save succeeds.
  SaveSnapshot(path, g);
  EXPECT_EQ(LoadSnapshot(path).graph, g);
}

TEST_F(SnapshotTest, OpenFailpointThrowsAndMapFailpointFallsBackToStreams) {
  const AugmentedGraph g = RandomScenarioGraph(23, 80);
  const std::string path = Path("g.snap");
  SaveSnapshot(path, g);
  {
    util::ScopedFailpoint fp("snapshot/open",
                             util::FailpointPolicy::OnNth(1));
    EXPECT_THROW(LoadSnapshot(path), std::runtime_error);
  }
  {
    // mmap "fails": the ifstream fallback must produce the identical
    // snapshot.
    util::ScopedFailpoint fp("snapshot/map", util::FailpointPolicy::OnNth(1));
    const Snapshot snap = LoadSnapshot(path);
    EXPECT_EQ(snap, (Snapshot{g}));
  }
}

// ---------- engine integration ----------

TEST_F(SnapshotTest, EpochDetectorFromSnapshotMatchesDirectConstruction) {
  const AugmentedGraph g = RandomScenarioGraph(29, 200);
  const std::string path = Path("g.snap");
  SaveSnapshot(path, g);

  detect::Seeds seeds;
  seeds.legit = {0, 1};
  engine::EpochConfig cfg;
  cfg.detect.target_detections = 10;
  cfg.detect.maar.seed = 5;

  auto from_snap = engine::EpochDetector::FromSnapshot(path, seeds, cfg);
  engine::EpochDetector direct(g, seeds, cfg);
  EXPECT_EQ(from_snap->Graph().NumNodes(), g.NumNodes());

  const auto& a = from_snap->RunEpoch();
  const auto& b = direct.RunEpoch();
  EXPECT_EQ(from_snap->LastResult().detected, direct.LastResult().detected);
  EXPECT_EQ(a.num_detected, b.num_detected);
  EXPECT_EQ(a.round_ratios, b.round_ratios);
}

// The restore paths decode on the detector's own pool. A checkpoint
// restored at 1, 2 and 8 threads must give the same detector: the same
// graph, warm-start state and event cursor, and the same next epoch.
TEST_F(SnapshotTest, CheckpointRestoresIdenticallyAtAnyThreadCount) {
  const AugmentedGraph g = RandomScenarioGraph(31, 3000);
  detect::Seeds seeds;
  seeds.legit = {0, 1, 2};
  engine::EpochConfig cfg;
  cfg.detect.target_detections = 300;
  cfg.detect.maar.seed = 5;
  cfg.detect.maar.num_threads = 1;
  cfg.warm_start = true;
  cfg.events_per_epoch = 0;
  const std::string ckpt = Path("threads.ckpt");
  {
    engine::EpochDetector detector(g, seeds, cfg);
    detector.RunEpoch();
    detector.Ingest({stream::EventType::kAddFriend, 3, 2999});
    detector.SaveCheckpoint(ckpt);
  }
  const AugmentedGraph serial = LoadSnapshot(ckpt).graph;

  std::vector<std::unique_ptr<engine::EpochDetector>> restored;
  for (const int threads : {1, 2, 8}) {
    cfg.detect.maar.num_threads = threads;
    restored.push_back(
        engine::EpochDetector::RestoreCheckpoint(ckpt, seeds, cfg));
    util::ThreadPool pool(static_cast<std::size_t>(threads));
    EXPECT_EQ(LoadSnapshot(ckpt, &pool).graph, serial) << threads;
    EXPECT_EQ(
        engine::EpochDetector::FromSnapshot(ckpt, seeds, cfg)->Graph().Graph(),
        serial)
        << threads;
  }
  const engine::EpochDetector& first = *restored.front();
  ASSERT_TRUE(first.HasIncrementalBaseline());
  EXPECT_EQ(first.Graph().Graph(), serial);
  const engine::EpochStats base = restored.front()->RunEpoch();
  for (std::size_t i = 1; i < restored.size(); ++i) {
    engine::EpochDetector& d = *restored[i];
    EXPECT_EQ(d.Graph().Graph(), serial) << i;
    EXPECT_EQ(d.EventsIngested(), first.EventsIngested()) << i;
    EXPECT_EQ(d.IncrementalK(), first.IncrementalK()) << i;
    const engine::EpochStats& next = d.RunEpoch();
    EXPECT_EQ(next.epoch, base.epoch) << i;
    EXPECT_EQ(next.round_ratios, base.round_ratios) << i;
    EXPECT_EQ(d.LastResult().detected, first.LastResult().detected) << i;
    EXPECT_EQ(d.IncrementalMask(), first.IncrementalMask()) << i;
  }
}

// A file carrying the retired permutation (meta flag bit 0 and a kind-7
// section) would load in stored-id space if the reader skipped the section;
// FromSnapshot refuses it instead, naming the path.
TEST_F(SnapshotTest, EpochDetectorFromPermutedSnapshotThrowsNamingThePath) {
  const AugmentedGraph g = RandomScenarioGraph(29, 200);
  const std::string plain = Path("plain.snap");
  SaveSnapshot(plain, g);
  const std::string path = Path("permuted.snap");
  WriteFileBytes(path, WithExtraSection(WithMetaFlags(ReadFileBytes(plain), 1),
                                        7, ReversedIds(g.NumNodes())));
  ExpectRefusedByPathAndOffset(
      path,
      [&] {
        engine::EpochDetector::FromSnapshot(path, CheckpointSeeds(),
                                            engine::EpochConfig{});
      },
      "FromSnapshot");
}

}  // namespace
}  // namespace rejecto
