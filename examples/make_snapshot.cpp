// Text-to-binary snapshot converter (graph/snapshot.h).
//
// Usage:
//   make_snapshot <friendships.txt> <rejections.txt> <out.snap>
//                 [--layout=identity|bfs] [--format=rjsnap01|rjsnap02]
//                 [--compress-block-rows=N]
//
// Parses the text edge lists once (the slow path), optionally reorders the
// vertices with the locality-preserving BFS layout, and writes the
// checksummed snapshot. The default format stays RJSNAP01 (plain CSR, so
// existing goldens and scripts are untouched); --format=rjsnap02 writes the
// delta+varint compressed format that CompressedGraphView consumes straight
// off the mmap — pair it with --layout=bfs, which is what makes the deltas
// small. --compress-block-rows sets the v2 block span (64-256 rows, default
// 128; ignored for v1). Later runs load the snapshot in milliseconds
// instead of re-parsing the text. The snapshot stores laid-out ids plus the
// permutation, so detection results reported from it can always be
// translated back to the dense text-intern ids.
//
// With no arguments, runs a self-checking demo: generates a small scenario,
// saves it with the BFS layout to a temp file, reloads, and verifies the
// round-trip is exact.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "gen/holme_kim.h"
#include "graph/io.h"
#include "graph/layout.h"
#include "graph/snapshot.h"
#include "sim/scenario.h"
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
  const graph::Layout layout = graph::SaveSnapshotWithPolicy(
      path, scenario.graph, graph::LayoutPolicy::kBfs);
  const graph::Snapshot snap = graph::LoadSnapshot(path);
  std::filesystem::remove(path);

  const bool ok =
      snap.graph == graph::ApplyLayout(scenario.graph, layout) &&
      snap.layout == layout;
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
                 "[--layout=identity|bfs] [--format=rjsnap01|rjsnap02] "
                 "[--compress-block-rows=N]\n",
                 argv[0]);
    return 2;
  }

  graph::LayoutPolicy policy = graph::LayoutPolicy::kIdentity;
  graph::SnapshotOptions options;
  for (int i = 4; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string layout_prefix = "--layout=";
    const std::string format_prefix = "--format=";
    const std::string rows_prefix = "--compress-block-rows=";
    if (arg.rfind(layout_prefix, 0) == 0) {
      try {
        policy = graph::ParseLayoutPolicy(arg.substr(layout_prefix.size()));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
      }
    } else if (arg.rfind(format_prefix, 0) == 0) {
      const std::string value = arg.substr(format_prefix.size());
      if (value == "rjsnap01") {
        options.format = graph::SnapshotFormat::kRjsnap01;
      } else if (value == "rjsnap02") {
        options.format = graph::SnapshotFormat::kRjsnap02;
      } else {
        std::fprintf(stderr, "unknown snapshot format: %s\n", value.c_str());
        return 2;
      }
    } else if (arg.rfind(rows_prefix, 0) == 0) {
      const long rows = std::atol(arg.substr(rows_prefix.size()).c_str());
      if (rows < 64 || rows > 256) {
        std::fprintf(stderr, "--compress-block-rows must be in [64, 256]\n");
        return 2;
      }
      options.block_rows = static_cast<std::uint32_t>(rows);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
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
    graph::SaveSnapshotWithPolicy(argv[3], loaded.graph, policy, options);
    const double save_s = save_timer.Seconds();

    // Reload and verify before declaring success: a snapshot that cannot
    // round-trip is worse than no snapshot.
    util::WallTimer reload_timer;
    const graph::Snapshot snap = graph::LoadSnapshot(argv[3]);
    const double reload_s = reload_timer.Seconds();
    const graph::AugmentedGraph expect =
        snap.layout.IsIdentity()
            ? loaded.graph
            : graph::ApplyLayout(loaded.graph, snap.layout);
    if (snap.graph != expect) {
      std::fprintf(stderr, "error: snapshot round-trip mismatch on %s\n",
                   argv[3]);
      return 1;
    }
    std::fprintf(stderr,
                 "wrote %s (layout=%s, format=%s) in %.3fs; verified reload "
                 "in %.3fs (%.1fx faster than the text parse)\n",
                 argv[3], graph::LayoutPolicyName(policy),
                 options.format == graph::SnapshotFormat::kRjsnap02
                     ? "rjsnap02"
                     : "rjsnap01",
                 save_s, reload_s,
                 load_s / (reload_s > 0 ? reload_s : 1e-9));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
