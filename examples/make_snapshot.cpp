// Text-to-binary snapshot converter (graph/snapshot.h).
//
// Usage:
//   make_snapshot <friendships.txt> <rejections.txt> <out.snap>
//                 [--compress-block-rows=N]
//
// Parses the text edge lists once (the slow path) and writes the
// checksummed RJSNAP02 snapshot (delta+varint compressed adjacency) under
// the dense text-intern ids; CompressedGraphView opens it off the mmap and
// Materialize expands it for detection (DetectFriendSpammersCompressed).
// --compress-block-rows sets the block span (an integer in [64, 256],
// default 128; anything else exits 2 naming the flag). Later runs load the
// snapshot in milliseconds instead of re-parsing the text.
//
// With no arguments, runs a self-checking demo: generates a small scenario,
// saves it to a temp file, reloads, and verifies the round-trip is exact.
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "gen/holme_kim.h"
#include "graph/io.h"
#include "graph/snapshot.h"
#include "sim/scenario.h"
#include "util/parse.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

using namespace rejecto;

int RunDemo() {
  std::fprintf(stderr,
               "no input files given; running the built-in round-trip demo "
               "(see the header comment for real usage)\n");
  util::Rng rng(7);
  const auto legit = gen::HolmeKim(
      {.num_nodes = 3'000, .edges_per_node = 4, .triad_probability = 0.5},
      rng);
  sim::ScenarioConfig attack;
  attack.num_fakes = 300;
  const auto scenario = sim::BuildScenario(legit, attack);

  const auto path =
      (std::filesystem::temp_directory_path() / "make_snapshot_demo.snap")
          .string();
  graph::SaveSnapshot(path, scenario.graph);
  const graph::Snapshot snap = graph::LoadSnapshot(path);
  std::filesystem::remove(path);

  const bool ok = snap.graph == scenario.graph;
  std::fprintf(stderr, "demo: %u users round-tripped through %s: %s\n",
               scenario.graph.NumNodes(), path.c_str(),
               ok ? "exact" : "MISMATCH");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rejecto;
  if (argc < 2) return RunDemo();
  if (argc < 4) {
    std::fprintf(stderr,
                 "usage: %s <friendships.txt> <rejections.txt> <out.snap> "
                 "[--compress-block-rows=N]\n",
                 argv[0]);
    return 2;
  }

  graph::SnapshotOptions options;
  for (int i = 4; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string rows_prefix = "--compress-block-rows=";
    if (arg.rfind(rows_prefix, 0) != 0) {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
    std::uint64_t rows = 0;
    try {
      rows = util::ParseU64Checked(arg.substr(rows_prefix.size()),
                                   "--compress-block-rows");
    } catch (const std::runtime_error& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
    if (rows < 64 || rows > 256) {
      std::fprintf(stderr, "--compress-block-rows must be in [64, 256]\n");
      return 2;
    }
    options.block_rows = static_cast<std::uint32_t>(rows);
  }

  try {
    util::WallTimer load_timer;
    const auto loaded = graph::LoadAugmentedGraph(argv[1], argv[2]);
    const double load_s = load_timer.Seconds();
    std::fprintf(stderr,
                 "parsed %u users, %llu friendships, %llu rejections in "
                 "%.3fs\n",
                 loaded.graph.NumNodes(),
                 static_cast<unsigned long long>(
                     loaded.graph.Friendships().NumEdges()),
                 static_cast<unsigned long long>(
                     loaded.graph.Rejections().NumArcs()),
                 load_s);

    util::WallTimer save_timer;
    graph::SaveSnapshot(argv[3], loaded.graph, graph::Layout{}, options);
    const double save_s = save_timer.Seconds();

    // Reload and verify before declaring success: a snapshot that cannot
    // round-trip is worse than no snapshot.
    util::WallTimer reload_timer;
    const graph::Snapshot snap = graph::LoadSnapshot(argv[3]);
    const double reload_s = reload_timer.Seconds();
    if (snap.graph != loaded.graph) {
      std::fprintf(stderr, "error: snapshot round-trip mismatch on %s\n",
                   argv[3]);
      return 1;
    }
    std::fprintf(stderr,
                 "wrote %s in %.3fs; verified reload in %.3fs "
                 "(%.1fx faster than the text parse)\n",
                 argv[3], save_s, reload_s,
                 load_s / (reload_s > 0 ? reload_s : 1e-9));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
