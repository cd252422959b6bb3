// graph/snapshot.h: round-trip exactness, byte determinism, the golden
// format pin, and the corruption model — every torn or bit-flipped file
// must be rejected with a clean path+offset error, never undefined
// behavior.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "detect/iterative.h"
#include "engine/epoch_detector.h"
#include "gen/holme_kim.h"
#include "graph/builder.h"
#include "graph/snapshot.h"
#include "sim/scenario.h"
#include "util/failpoint.h"
#include "util/flags.h"
#include "util/rng.h"

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

// The deterministic graph used by the golden pin AND the regeneration
// helper below. Touch it only together with a new golden file.
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

// A hand-built non-identity permutation (id reversal): saving with it puts
// the optional permutation section in the file. The CSRs are stored as
// given; the loader only validates and returns the permutation.
Layout ReversedLayout(NodeId n) {
  std::vector<NodeId> new_of_old(n);
  for (NodeId v = 0; v < n; ++v) new_of_old[v] = n - 1 - v;
  return graph::LayoutFromPermutation(std::move(new_of_old));
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

// ---------- round trips ----------

TEST_F(SnapshotTest, IdentityRoundTripIsExact) {
  const AugmentedGraph g = RandomScenarioGraph(7);
  const std::string path = Path("g.snap");
  SaveSnapshot(path, g);
  const Snapshot snap = LoadSnapshot(path);
  EXPECT_TRUE(snap.layout.IsIdentity());
  EXPECT_EQ(snap.graph, g);
  EXPECT_EQ(snap, (Snapshot{g, Layout{}}));
}

TEST_F(SnapshotTest, PermutationSectionRoundTripsExactly) {
  const AugmentedGraph g = RandomScenarioGraph(11);
  const Layout layout = ReversedLayout(g.NumNodes());
  const std::string path = Path("g.snap");
  SaveSnapshot(path, g, layout);
  EXPECT_EQ(LoadSnapshot(path), (Snapshot{g, layout}));
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

TEST_F(SnapshotTest, SaveRejectsMismatchedLayout) {
  const AugmentedGraph g = GoldenGraph();
  EXPECT_THROW(SaveSnapshot(Path("bad.snap"), g,
                            graph::LayoutFromPermutation({1, 0})),
               std::invalid_argument);
}

TEST(LayoutTest, LayoutFromPermutationRejectsNonBijections) {
  EXPECT_THROW(graph::LayoutFromPermutation({0, 0}), std::invalid_argument);
  EXPECT_THROW(graph::LayoutFromPermutation({0, 5}), std::invalid_argument);
  EXPECT_THROW(graph::LayoutFromPermutation({1, 2, 0, 1}),
               std::invalid_argument);
  const Layout ok = graph::LayoutFromPermutation({2, 0, 1});
  EXPECT_EQ(ok.old_of_new, (std::vector<NodeId>{1, 2, 0}));
}

TEST_F(SnapshotTest, WritesAreByteDeterministic) {
  const AugmentedGraph g = RandomScenarioGraph(13);
  SaveSnapshot(Path("a.snap"), g);
  SaveSnapshot(Path("b.snap"), g);
  EXPECT_EQ(ReadFileBytes(Path("a.snap")), ReadFileBytes(Path("b.snap")));
}

// ---------- golden pin ----------

TEST_F(SnapshotTest, GoldenPinReloadsEqualAndByteIdentical) {
  const std::string golden = std::string(REJECTO_GOLDEN_DIR) + "/graph.snap";
  if (util::RegenGolden()) {
    SaveSnapshot(golden, GoldenGraph());
    GTEST_SKIP() << "golden snapshot regenerated at " << golden;
  }
  const Snapshot snap = LoadSnapshot(golden);
  EXPECT_EQ(snap, (Snapshot{GoldenGraph(), Layout{}}))
      << "golden snapshot no longer decodes to the pinned graph";

  // Byte-identity both ways pins the FORMAT, not just the decode: a writer
  // change that still round-trips would silently orphan old snapshots. If
  // the format legitimately evolves, bump the magic and regenerate with
  // REJECTO_REGEN_GOLDEN=1 (see tests/golden/README.md).
  SaveSnapshot(Path("regen.snap"), GoldenGraph());
  EXPECT_EQ(ReadFileBytes(Path("regen.snap")), ReadFileBytes(golden));
}

// ---------- corruption model ----------

TEST_F(SnapshotTest, EveryTruncationIsRejectedCleanly) {
  const AugmentedGraph g = RandomScenarioGraph(17, 120);
  const std::string path = Path("g.snap");
  SaveSnapshot(path, g, ReversedLayout(g.NumNodes()));
  const auto bytes = ReadFileBytes(path);
  const auto table = ParseTable(bytes);
  ASSERT_EQ(table.size(), 8u);  // meta, 3x(offsets+adjacency), layout

  // Every header/table/section boundary plus each section's midpoint.
  std::vector<std::size_t> cuts = {0, 4, 8, 12, 16};
  for (std::size_t i = 0; i < table.size(); ++i) {
    cuts.push_back(16 + 24 * (i + 1));  // after table entry i
    cuts.push_back(table[i].offset);
    cuts.push_back(table[i].offset + table[i].length / 2);
    cuts.push_back(table[i].offset + table[i].length);
  }
  const std::string torn = Path("torn.snap");
  for (std::size_t cut : cuts) {
    if (cut >= bytes.size()) continue;
    WriteFileBytes(
        torn, std::vector<unsigned char>(bytes.begin(),
                                         bytes.begin() +
                                             static_cast<std::ptrdiff_t>(cut)));
    try {
      LoadSnapshot(torn);
      FAIL() << "truncation at byte " << cut << " was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("snapshot: "), std::string::npos)
          << "cut=" << cut << " what=" << e.what();
      EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos)
          << "cut=" << cut << " what=" << e.what();
    }
  }
}

TEST_F(SnapshotTest, BitFlipsAnywhereAreRejected) {
  const AugmentedGraph g = RandomScenarioGraph(19, 60);
  const std::string path = Path("g.snap");
  SaveSnapshot(path, g, ReversedLayout(g.NumNodes()));
  const auto bytes = ReadFileBytes(path);
  const auto table = ParseTable(bytes);

  // One flip in the magic, the count, the table CRC, each table entry, and
  // the middle of every section.
  std::vector<std::size_t> targets = {0, 9, 13};
  for (std::size_t i = 0; i < table.size(); ++i) {
    targets.push_back(16 + 24 * i + 4);  // the entry's stored section CRC
    targets.push_back(table[i].offset + table[i].length / 2);
  }
  const std::string evil = Path("flipped.snap");
  for (std::size_t at : targets) {
    ASSERT_LT(at, bytes.size());
    auto mutated = bytes;
    mutated[at] ^= 0x40;
    WriteFileBytes(evil, mutated);
    EXPECT_THROW(LoadSnapshot(evil), std::runtime_error)
        << "bit flip at byte " << at << " was accepted";
  }
}

TEST_F(SnapshotTest, TruncationAndCorruptionAreDistinctErrors) {
  // An operator reading the error must be able to tell a torn copy (the
  // tail is missing) from bit rot (the bytes are there but wrong): the
  // loader names the section and says "truncated" for one, "CRC mismatch"
  // for the other — never both.
  const AugmentedGraph g = RandomScenarioGraph(31, 120);
  const std::string path = Path("g.snap");
  SaveSnapshot(path, g);
  const auto bytes = ReadFileBytes(path);
  const auto table = ParseTable(bytes);
  ASSERT_FALSE(table.empty());
  const SectionEntry& last = table.back();

  const std::string torn = Path("torn.snap");
  WriteFileBytes(torn, std::vector<unsigned char>(
                           bytes.begin(),
                           bytes.begin() + static_cast<std::ptrdiff_t>(
                                               last.offset + last.length / 2)));
  try {
    LoadSnapshot(torn);
    FAIL() << "torn section accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("truncated"), std::string::npos) << what;
    EXPECT_NE(what.find("section"), std::string::npos) << what;
    EXPECT_EQ(what.find("CRC mismatch"), std::string::npos) << what;
  }

  auto flipped = bytes;
  flipped[last.offset + last.length / 2] ^= 0x20;
  const std::string evil = Path("flipped.snap");
  WriteFileBytes(evil, flipped);
  try {
    LoadSnapshot(evil);
    FAIL() << "corrupt section accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("CRC mismatch"), std::string::npos) << what;
    EXPECT_NE(what.find("section"), std::string::npos) << what;
    EXPECT_EQ(what.find("truncated"), std::string::npos) << what;
  }
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
  const Layout layout = ReversedLayout(g.NumNodes());
  SaveSnapshot(path, g, layout);
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
    EXPECT_EQ(snap, (Snapshot{g, layout}));
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

TEST_F(SnapshotTest, EpochDetectorFromPermutedSnapshotThrowsNamingThePath) {
  // Stream ids are original ids: a snapshot whose CSRs were stored under a
  // permutation cannot seed a detector, so FromSnapshot refuses it.
  const AugmentedGraph g = RandomScenarioGraph(29, 200);
  const std::string path = Path("permuted.snap");
  SaveSnapshot(path, g, ReversedLayout(g.NumNodes()));
  detect::Seeds seeds;
  seeds.legit = {0, 1};
  try {
    engine::EpochDetector::FromSnapshot(path, seeds, engine::EpochConfig{});
    FAIL() << "a permuted snapshot was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace rejecto
