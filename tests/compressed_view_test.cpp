// graph/compressed_view.h: the RJSNAP02 out-of-core reader. Opening must
// never expand the adjacency; Materialize and the DecodeCursor must agree
// exactly with the uncompressed load; corruption is caught per block with a
// section+offset diagnostic that tells a torn file from bit rot; and the
// on-disk format itself is pinned by a golden file.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "gen/holme_kim.h"
#include "gen/synthetic_stream.h"
#include "graph/builder.h"
#include "graph/compressed_view.h"
#include "graph/layout.h"
#include "graph/snapshot.h"
#include "graph/snapshot_format.h"
#include "sim/scenario.h"
#include "util/failpoint.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace rejecto {
namespace {

namespace fs = std::filesystem;

using graph::AugmentedGraph;
using graph::CompressedGraphView;
using graph::DecodeCursor;
using graph::LayoutPolicy;
using graph::LoadSnapshot;
using graph::NodeId;
using graph::Snapshot;
using graph::SnapshotFormat;
using graph::SnapshotOptions;

class CompressedViewTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("rejecto_cview_test_" +
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

AugmentedGraph RandomScenarioGraph(std::uint64_t seed, NodeId n = 400) {
  util::Rng rng(seed);
  const auto legit = gen::HolmeKim({.num_nodes = n, .edges_per_node = 3}, rng);
  sim::ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.num_fakes = n / 10;
  return sim::BuildScenario(legit, cfg).graph;
}

SnapshotOptions V2Options(std::uint32_t block_rows = 128) {
  SnapshotOptions o;
  o.format = SnapshotFormat::kRjsnap02;
  o.block_rows = block_rows;
  return o;
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

// Locates section `kind` in a known-good image (test-side re-parse).
bool FindSection(const std::vector<unsigned char>& b, std::uint32_t kind,
                 std::uint64_t* offset, std::uint64_t* length) {
  const std::uint32_t count = GetU32(b, 8);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::size_t at = 16 + 24 * static_cast<std::size_t>(i);
    if (GetU32(b, at) == kind) {
      *offset = GetU64(b, at + 8);
      *length = GetU64(b, at + 16);
      return true;
    }
  }
  return false;
}

// ---------- exactness ----------

TEST_F(CompressedViewTest, V2LoadMatchesV1LoadExactly) {
  const AugmentedGraph g = RandomScenarioGraph(31);
  const std::string v1 = Path("g.snap");
  const std::string v2 = Path("g.snap2");
  graph::SaveSnapshotWithPolicy(v1, g, LayoutPolicy::kBfs);
  graph::SaveSnapshotWithPolicy(v2, g, LayoutPolicy::kBfs, V2Options());
  const Snapshot s1 = LoadSnapshot(v1);
  const Snapshot s2 = LoadSnapshot(v2);
  EXPECT_EQ(s1.graph, s2.graph);
  EXPECT_EQ(s1.layout, s2.layout);
}

// Even on the attack scenario, whose rejection arcs are scattered across
// the id space (the format's worst case), the RJSNAP02 adjacency must be
// smaller than the raw u32 adjacency RJSNAP01 stores: both friendship
// directions plus the out- and in-arc copies of every rejection.
TEST_F(CompressedViewTest, AdjacencyIsSmallerThanRawOnAttackScenario) {
  const AugmentedGraph g = RandomScenarioGraph(37, 2000);
  const std::string v2 = Path("g.snap2");
  graph::SaveSnapshotWithPolicy(v2, g, LayoutPolicy::kBfs, V2Options());
  const auto view = CompressedGraphView::Open(v2);
  const std::uint64_t raw_bytes =
      (2 * g.Friendships().NumEdges() + 2 * g.Rejections().NumArcs()) *
      sizeof(NodeId);
  EXPECT_LT(view.AdjacencyBlobBytes(), raw_bytes);
}

TEST_F(CompressedViewTest, ViewMetadataAndMaterializeMatchTheGraph) {
  const AugmentedGraph g = RandomScenarioGraph(37, 600);
  const std::string path = Path("g.snap2");
  graph::SaveSnapshot(path, g, graph::Layout{}, V2Options());

  const auto view = CompressedGraphView::Open(path);
  EXPECT_EQ(view.NumNodes(), g.NumNodes());
  EXPECT_EQ(view.NumEdges(), g.Friendships().NumEdges());
  EXPECT_EQ(view.NumArcs(), g.Rejections().NumArcs());
  // The meta maxima must be EXACT (ExtendedKl's gain bound derives from
  // them; a looser bound would change bucket geometry and break
  // bit-identity with the in-RAM path).
  EXPECT_EQ(view.MaxFriendshipDegree(), g.MaxFriendshipDegree());
  EXPECT_EQ(view.MaxRejectionDegree(), g.MaxRejectionDegree());
  EXPECT_TRUE(view.StoredLayout().IsIdentity());

  const Snapshot serial = view.Materialize();
  EXPECT_EQ(serial.graph, g);
  util::ThreadPool pool(4);
  EXPECT_EQ(view.Materialize(&pool).graph, g);
}

TEST_F(CompressedViewTest, AllSupportedBlockSpansRoundTrip) {
  const AugmentedGraph g = RandomScenarioGraph(41, 500);
  for (const std::uint32_t rows : {64u, 100u, 128u, 256u}) {
    const std::string path = Path("g" + std::to_string(rows) + ".snap2");
    graph::SaveSnapshot(path, g, graph::Layout{}, V2Options(rows));
    const auto view = CompressedGraphView::Open(path);
    EXPECT_EQ(view.BlockRows(), rows);
    EXPECT_EQ(view.Materialize().graph, g);
  }
}

TEST_F(CompressedViewTest, EmptyAndIsolatedGraphsSurvive) {
  graph::GraphBuilder b(5);
  b.AddFriendship(1, 3);  // 0, 2, 4 isolated
  const AugmentedGraph g = b.BuildAugmented();
  graph::SaveSnapshot(Path("iso.snap2"), g, graph::Layout{}, V2Options());
  EXPECT_EQ(LoadSnapshot(Path("iso.snap2")).graph, g);

  const AugmentedGraph empty = graph::GraphBuilder(0).BuildAugmented();
  graph::SaveSnapshot(Path("empty.snap2"), empty, graph::Layout{},
                      V2Options());
  EXPECT_EQ(LoadSnapshot(Path("empty.snap2")).graph, empty);
}

TEST_F(CompressedViewTest, WritesAreByteDeterministic) {
  const AugmentedGraph g = RandomScenarioGraph(43);
  graph::SaveSnapshot(Path("a.snap2"), g, graph::Layout{}, V2Options());
  graph::SaveSnapshot(Path("b.snap2"), g, graph::Layout{}, V2Options());
  EXPECT_EQ(ReadFileBytes(Path("a.snap2")), ReadFileBytes(Path("b.snap2")));
}

// ---------- the decode cursor ----------

TEST_F(CompressedViewTest, CursorRowsMatchTheGraphEverywhere) {
  const AugmentedGraph g = RandomScenarioGraph(47, 700);
  const std::string path = Path("g.snap2");
  graph::SaveSnapshot(path, g, graph::Layout{}, V2Options());
  const auto view = CompressedGraphView::Open(path);
  DecodeCursor cursor(view);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    const auto fr = cursor.Friends(v);
    ASSERT_TRUE(std::equal(fr.begin(), fr.end(),
                           g.Friendships().Neighbors(v).begin(),
                           g.Friendships().Neighbors(v).end()))
        << "friend row " << v;
    const auto out = cursor.Rejectees(v);
    ASSERT_TRUE(std::equal(out.begin(), out.end(),
                           g.Rejections().Rejectees(v).begin(),
                           g.Rejections().Rejectees(v).end()))
        << "out row " << v;
    const auto in = cursor.Rejectors(v);
    ASSERT_TRUE(std::equal(in.begin(), in.end(),
                           g.Rejections().Rejectors(v).begin(),
                           g.Rejections().Rejectors(v).end()))
        << "in row " << v;
    EXPECT_EQ(cursor.FriendDegree(v), fr.size());
    EXPECT_EQ(cursor.OutDegree(v), out.size());
    EXPECT_EQ(cursor.InDegree(v), in.size());
  }
}

TEST_F(CompressedViewTest, TinyCacheStaysCorrectUnderThrashing) {
  const AugmentedGraph g = RandomScenarioGraph(53, 900);
  const std::string path = Path("g.snap2");
  graph::SaveSnapshot(path, g, graph::Layout{}, V2Options(64));
  const auto view = CompressedGraphView::Open(path);
  // cache_rows = 1 clamps to the 4-block floor: far fewer blocks than the
  // graph has, so the LRU evicts constantly. Random access must still be
  // exact.
  DecodeCursor cursor(view, /*cache_rows=*/1);
  util::Rng rng(5);
  for (int i = 0; i < 5'000; ++i) {
    const NodeId v = static_cast<NodeId>(rng.NextUInt(g.NumNodes()));
    const auto fr = cursor.Friends(v);
    ASSERT_TRUE(std::equal(fr.begin(), fr.end(),
                           g.Friendships().Neighbors(v).begin(),
                           g.Friendships().Neighbors(v).end()))
        << "friend row " << v << " after " << i << " random accesses";
  }
  EXPECT_GT(cursor.BlocksDecoded(), 0u);
}

TEST_F(CompressedViewTest, SequentialScanHitsTheCache) {
  const AugmentedGraph g = RandomScenarioGraph(59, 600);
  const std::string path = Path("g.snap2");
  graph::SaveSnapshot(path, g, graph::Layout{}, V2Options(128));
  const auto view = CompressedGraphView::Open(path);
  DecodeCursor cursor(view);
  for (NodeId v = 0; v < g.NumNodes(); ++v) cursor.Friends(v);
  // A sequential scan decodes each friendship block exactly once.
  EXPECT_EQ(cursor.BlocksDecoded(), view.NumBlocks());
  EXPECT_EQ(cursor.CacheHits(),
            static_cast<std::uint64_t>(g.NumNodes()) - view.NumBlocks());
}

// ---------- streamed writer vs in-RAM writer ----------

TEST_F(CompressedViewTest, StreamedGeneratorMatchesInRamEncoderByteForByte) {
  // The generator streams rows straight into the writer; saving its
  // materialized graph through the in-RAM v2 path must produce the exact
  // same file — one encoder, two feeders.
  gen::StreamSnapshotConfig cfg;
  cfg.num_nodes = 3'000;
  cfg.friendship_stubs = 5;
  cfg.rejection_stubs = 2;
  cfg.locality_window = 32;
  cfg.seed = 17;
  cfg.block_rows = 64;
  const std::string streamed = Path("streamed.snap2");
  const auto stats = gen::WriteSyntheticCompressedSnapshot(streamed, cfg);
  EXPECT_GT(stats.num_edges, 0u);
  EXPECT_GT(stats.num_arcs, 0u);

  const Snapshot snap = LoadSnapshot(streamed);
  EXPECT_EQ(snap.graph.Friendships().NumEdges(), stats.num_edges);
  EXPECT_EQ(snap.graph.Rejections().NumArcs(), stats.num_arcs);

  const std::string resaved = Path("resaved.snap2");
  graph::SaveSnapshot(resaved, snap.graph, graph::Layout{}, V2Options(64));
  EXPECT_EQ(ReadFileBytes(streamed), ReadFileBytes(resaved));

  // Determinism: the same config streams the same bytes again.
  const std::string again = Path("again.snap2");
  gen::WriteSyntheticCompressedSnapshot(again, cfg);
  EXPECT_EQ(ReadFileBytes(streamed), ReadFileBytes(again));
}

// ---------- golden pin ----------

// The deterministic graph behind tests/golden/graph.snap2. Touch only
// together with a regenerated golden (REJECTO_REGEN_GOLDEN=1).
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
  b.AddRejection(8, 7);
  return b.BuildAugmented();
}

TEST_F(CompressedViewTest, GoldenV2PinReloadsEqualAndByteIdentical) {
  const std::string golden =
      std::string(REJECTO_GOLDEN_DIR) + "/graph.snap2";
  if (util::GetEnvBool("REJECTO_REGEN_GOLDEN", false)) {
    graph::SaveSnapshot(golden, GoldenGraph(), graph::Layout{}, V2Options());
    GTEST_SKIP() << "golden v2 snapshot regenerated at " << golden;
  }
  const Snapshot snap = LoadSnapshot(golden);
  EXPECT_EQ(snap.graph, GoldenGraph())
      << "golden v2 snapshot no longer decodes to the pinned graph";
  EXPECT_TRUE(snap.layout.IsIdentity());

  // Byte-identity both ways pins the FORMAT (container + block codec), not
  // just the decode. If the wire format legitimately evolves, bump the
  // magic and regenerate with REJECTO_REGEN_GOLDEN=1.
  graph::SaveSnapshot(Path("regen.snap2"), GoldenGraph(), graph::Layout{},
                      V2Options());
  EXPECT_EQ(ReadFileBytes(Path("regen.snap2")), ReadFileBytes(golden));
}

// ---------- corruption model: torn file vs bit rot ----------

TEST_F(CompressedViewTest, TruncationAndCorruptionAreDistinctErrors) {
  const AugmentedGraph g = RandomScenarioGraph(61, 300);
  const std::string path = Path("g.snap2");
  graph::SaveSnapshot(path, g, graph::Layout{}, V2Options());
  const auto bytes = ReadFileBytes(path);

  std::uint64_t blob_off = 0, blob_len = 0;
  ASSERT_TRUE(FindSection(bytes, graph::snapfmt::kFrBlocks, &blob_off,
                          &blob_len));
  ASSERT_GT(blob_len, 0u);

  // A file cut inside the adjacency blob is reported as TRUNCATION, naming
  // the section and where it should have ended.
  const std::string torn = Path("torn.snap2");
  WriteFileBytes(torn, std::vector<unsigned char>(
                           bytes.begin(),
                           bytes.begin() + static_cast<std::ptrdiff_t>(
                                               blob_off + blob_len / 2)));
  try {
    LoadSnapshot(torn);
    FAIL() << "torn blob accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("truncated"), std::string::npos) << what;
    EXPECT_NE(what.find("offset"), std::string::npos) << what;
    EXPECT_EQ(what.find("CRC mismatch"), std::string::npos) << what;
  }

  // The same bytes present but damaged is reported as CORRUPTION (a block
  // CRC mismatch), again naming section + block + offset.
  auto flipped = bytes;
  flipped[blob_off + blob_len / 2] ^= 0x20;
  const std::string evil = Path("flipped.snap2");
  WriteFileBytes(evil, flipped);
  try {
    LoadSnapshot(evil);
    FAIL() << "corrupt blob accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("CRC mismatch"), std::string::npos) << what;
    EXPECT_NE(what.find("block"), std::string::npos) << what;
    EXPECT_NE(what.find("offset"), std::string::npos) << what;
    EXPECT_EQ(what.find("truncated"), std::string::npos) << what;
  }
}

TEST_F(CompressedViewTest, BlobCorruptionIsLazyCaughtOnFirstDecode) {
  const AugmentedGraph g = RandomScenarioGraph(67, 300);
  const std::string path = Path("g.snap2");
  graph::SaveSnapshot(path, g, graph::Layout{}, V2Options());
  auto bytes = ReadFileBytes(path);
  std::uint64_t blob_off = 0, blob_len = 0;
  ASSERT_TRUE(FindSection(bytes, graph::snapfmt::kInBlocks, &blob_off,
                          &blob_len));
  bytes[blob_off + blob_len - 1] ^= 0x01;
  WriteFileBytes(path, bytes);

  // Opening succeeds: blob sections carry no whole-section CRC, so nothing
  // pages them in. The damage surfaces at the first decode of the affected
  // block — and only that block.
  const auto view = CompressedGraphView::Open(path);
  DecodeCursor cursor(view);
  EXPECT_NO_THROW(cursor.Friends(0));  // different CSR, untouched bytes
  const NodeId last = g.NumNodes() - 1;
  EXPECT_THROW(cursor.Rejectors(last), std::runtime_error);
}

TEST_F(CompressedViewTest, IndexBitFlipsAreRejectedAtOpen) {
  const AugmentedGraph g = RandomScenarioGraph(71, 300);
  const std::string path = Path("g.snap2");
  graph::SaveSnapshot(path, g, graph::Layout{}, V2Options());
  auto bytes = ReadFileBytes(path);
  std::uint64_t idx_off = 0, idx_len = 0;
  ASSERT_TRUE(FindSection(bytes, graph::snapfmt::kFrIndex, &idx_off,
                          &idx_len));
  bytes[idx_off + idx_len / 2] ^= 0x10;
  WriteFileBytes(path, bytes);
  // Index sections ARE in the open-time CRC sweep (they are tiny).
  EXPECT_THROW(CompressedGraphView::Open(path), std::runtime_error);
}

// ---------- failpoints ----------

TEST_F(CompressedViewTest, V2WriteAndRenameFailpointsLeaveNoPartialFile) {
  const AugmentedGraph g = GoldenGraph();
  const std::string path = Path("g.snap2");
  {
    util::ScopedFailpoint fp("snapshot/write",
                             util::FailpointPolicy::OnNth(1));
    EXPECT_THROW(
        graph::SaveSnapshot(path, g, graph::Layout{}, V2Options()),
        std::runtime_error);
  }
  EXPECT_FALSE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  {
    util::ScopedFailpoint fp("snapshot/rename",
                             util::FailpointPolicy::OnNth(1));
    EXPECT_THROW(
        graph::SaveSnapshot(path, g, graph::Layout{}, V2Options()),
        std::runtime_error);
  }
  EXPECT_FALSE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  graph::SaveSnapshot(path, g, graph::Layout{}, V2Options());
  EXPECT_EQ(LoadSnapshot(path).graph, g);
}

TEST_F(CompressedViewTest, V2OpenFailpointThrowsAndMapFailpointFallsBack) {
  const AugmentedGraph g = RandomScenarioGraph(73, 200);
  const std::string path = Path("g.snap2");
  graph::SaveSnapshot(path, g, graph::Layout{}, V2Options());
  {
    util::ScopedFailpoint fp("snapshot/open",
                             util::FailpointPolicy::OnNth(1));
    EXPECT_THROW(LoadSnapshot(path), std::runtime_error);
  }
  {
    // mmap "fails": the read() fallback must still decode the identical
    // snapshot.
    util::ScopedFailpoint fp("snapshot/map", util::FailpointPolicy::OnNth(1));
    EXPECT_EQ(LoadSnapshot(path).graph, g);
  }
}

}  // namespace
}  // namespace rejecto
