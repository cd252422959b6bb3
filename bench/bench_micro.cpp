// Micro-benchmarks (google-benchmark): data-structure and algorithm
// throughput underlying the headline numbers — bucket-list operations, the
// incremental partition switch, a full extended-KL solve, the parallel MAAR
// sweep, generator throughput, and the engine's fetch path. In full mode
// (REJECTO_BENCH_FAST unset), main() then runs the 100M-edge out-of-core
// memory-ceiling check, which aborts the process if the scan breaks its RSS
// budget. End-to-end performance is measured by bench/e2e.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "detect/bucket_list.h"
#include "detect/extended_kl.h"
#include "detect/maar.h"
#include "detect/partition.h"
#include "engine/cluster.h"
#include "engine/prefetch.h"
#include "engine/shard_store.h"
#include "gen/barabasi_albert.h"
#include "gen/holme_kim.h"
#include "gen/synthetic_stream.h"
#include "graph/compressed_view.h"
#include "sim/scenario.h"
#include "util/buffer.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

using namespace rejecto;

sim::Scenario MakeScenario(graph::NodeId legit_nodes, graph::NodeId fakes) {
  util::Rng rng(7);
  const auto legit = gen::BarabasiAlbert(
      {.num_nodes = legit_nodes, .edges_per_node = 4}, rng);
  sim::ScenarioConfig cfg;
  cfg.seed = 11;
  cfg.num_fakes = fakes;
  return sim::BuildScenario(legit, cfg);
}

void BM_BucketListInsertPop(benchmark::State& state) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  util::Rng rng(3);
  std::vector<double> gains(n);
  for (auto& g : gains) g = rng.NextDouble(-50.0, 50.0);
  for (auto _ : state) {
    detect::BucketList bl(n, 50.0, 64.0);
    for (graph::NodeId v = 0; v < n; ++v) bl.Insert(v, gains[v]);
    while (!bl.Empty()) benchmark::DoNotOptimize(bl.PopMax());
  }
  state.SetItemsProcessed(state.iterations() * n * 2);
}
BENCHMARK(BM_BucketListInsertPop)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

void BM_BucketListUpdate(benchmark::State& state) {
  const graph::NodeId n = 1 << 14;
  util::Rng rng(3);
  detect::BucketList bl(n, 50.0, 64.0);
  for (graph::NodeId v = 0; v < n; ++v) bl.Insert(v, rng.NextDouble(-50, 50));
  graph::NodeId v = 0;
  for (auto _ : state) {
    bl.Update(v, rng.NextDouble(-50.0, 50.0));
    v = (v + 1) % n;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BucketListUpdate);

void BM_PartitionSwitch(benchmark::State& state) {
  const auto scenario = MakeScenario(10'000, 1'000);
  std::vector<char> mask(scenario.NumNodes(), 0);
  for (graph::NodeId v = 0; v < scenario.NumNodes(); ++v) {
    mask[v] = scenario.graph.Rejections().InDegree(v) > 0 ? 1 : 0;
  }
  detect::Partition p(scenario.graph, mask);
  util::Rng rng(5);
  for (auto _ : state) {
    p.Switch(static_cast<graph::NodeId>(rng.NextUInt(scenario.NumNodes())));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PartitionSwitch);

void BM_ExtendedKlSolve(benchmark::State& state) {
  const auto scenario = MakeScenario(
      static_cast<graph::NodeId>(state.range(0)),
      static_cast<graph::NodeId>(state.range(0) / 10));
  std::vector<char> init(scenario.NumNodes(), 0);
  for (graph::NodeId v = 0; v < scenario.NumNodes(); ++v) {
    init[v] = scenario.graph.Rejections().InDegree(v) > 0 ? 1 : 0;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(detect::ExtendedKl(
        scenario.graph, init, {}, detect::KlConfig{.k = 0.5}));
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(scenario.graph.Friendships().NumEdges()));
}
BENCHMARK(BM_ExtendedKlSolve)->Arg(5'000)->Arg(20'000)->Unit(benchmark::kMillisecond);

void BM_MaarSolve(benchmark::State& state) {
  // The full k-sweep grid (default 11 k values × 4 inits) at the given
  // thread count; Arg(0) resolves to hardware concurrency.
  const auto scenario = MakeScenario(10'000, 1'000);
  detect::MaarConfig cfg;
  cfg.num_random_inits = 3;
  cfg.num_threads = static_cast<int>(state.range(0));
  cfg.seed = 17;
  for (auto _ : state) {
    detect::MaarSolver solver(scenario.graph, {}, cfg);
    benchmark::DoNotOptimize(solver.Solve());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MaarSolve)->Arg(1)->Arg(2)->Arg(4)->Arg(0)->Unit(benchmark::kMillisecond);

void BM_BarabasiAlbert(benchmark::State& state) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    util::Rng rng(seed++);
    benchmark::DoNotOptimize(
        gen::BarabasiAlbert({.num_nodes = n, .edges_per_node = 4}, rng));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BarabasiAlbert)->Arg(10'000)->Arg(100'000)->Unit(benchmark::kMillisecond);

void BM_HolmeKim(benchmark::State& state) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    util::Rng rng(seed++);
    benchmark::DoNotOptimize(gen::HolmeKim(
        {.num_nodes = n, .edges_per_node = 4, .triad_probability = 0.5},
        rng));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_HolmeKim)->Arg(10'000)->Unit(benchmark::kMillisecond);

void BM_ShardFetchBatch(benchmark::State& state) {
  const auto scenario = MakeScenario(20'000, 2'000);
  engine::ClusterConfig ccfg;
  ccfg.num_workers = 4;
  engine::Cluster cluster(ccfg);
  const engine::ShardedGraphStore store(scenario.graph, 4, cluster.Pool());
  util::Rng rng(9);
  std::vector<graph::NodeId> batch(static_cast<std::size_t>(state.range(0)));
  engine::IoStats stats;
  for (auto _ : state) {
    for (auto& v : batch) {
      v = static_cast<graph::NodeId>(rng.NextUInt(scenario.NumNodes()));
    }
    benchmark::DoNotOptimize(store.FetchBatch(batch, stats));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ShardFetchBatch)->Arg(16)->Arg(256);

void BM_PrefetchBufferGet(benchmark::State& state) {
  const auto scenario = MakeScenario(20'000, 2'000);
  engine::ClusterConfig ccfg;
  ccfg.num_workers = 4;
  engine::Cluster cluster(ccfg);
  const engine::ShardedGraphStore store(scenario.graph, 4, cluster.Pool());
  engine::PrefetchBuffer buf(store, 4096, 64);
  util::Rng rng(9);
  for (auto _ : state) {
    // Zipf-ish locality: 80% of accesses hit a hot 1K-node region.
    const graph::NodeId v =
        rng.NextBool(0.8)
            ? static_cast<graph::NodeId>(rng.NextUInt(1024))
            : static_cast<graph::NodeId>(rng.NextUInt(scenario.NumNodes()));
    benchmark::DoNotOptimize(buf.Get(v));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PrefetchBufferGet);

// Process peak resident set (VmHWM) from /proc/self/status, in bytes; 0
// where the kernel does not expose it.
std::uint64_t PeakRssBytes() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    std::uint64_t kb = 0;
    for (char c : line) {
      if (std::isdigit(static_cast<unsigned char>(c))) {
        kb = kb * 10 + static_cast<std::uint64_t>(c - '0');
      }
    }
    return kb * 1024;
  }
  return 0;
}

// 100M-edge memory-ceiling assertion: streams a synthetic 100M-edge
// RJSNAP02 to scratch via gen/ without materializing the graph, then
// decodes every block of every CSR through a bounded cursor while releasing
// cold pages, and ABORTS if VmHWM grew by more than REJECTO_RSS_BUDGET_MB
// (default 600) over the pre-open baseline, or if the compressed adjacency
// exceeds 0.5x the equivalent RJSNAP01 adjacency bytes (the acceptance bar,
// measured on the BFS-locality graph the format targets). Prints the
// measured peak.
void RunCompressedCeilingProbe() {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "rejecto_ceiling_bench_micro";
  fs::create_directories(dir);
  const std::string path = (dir / "synthetic_100m.snap2").string();

  gen::StreamSnapshotConfig cfg;
  cfg.num_nodes = 12'500'000;
  cfg.friendship_stubs = 8;  // ~100M undirected edges
  cfg.rejection_stubs = 2;
  cfg.locality_window = 64;
  cfg.seed = util::ExperimentSeed();

  std::cout << "bench_micro: streaming ~100M-edge synthetic RJSNAP02 to "
               "scratch...\n";
  util::WallTimer t_gen;
  const gen::StreamSnapshotStats stats =
      gen::WriteSyntheticCompressedSnapshot(path, cfg);
  const double gen_s = t_gen.Seconds();
  std::cout << "bench_micro: wrote " << stats.num_edges << " edges, "
            << stats.num_arcs << " arcs, " << stats.file_bytes << "B in "
            << gen_s << "s\n";

  const long long budget_mb = util::GetEnvInt("REJECTO_RSS_BUDGET_MB", 600);
  const std::uint64_t baseline = PeakRssBytes();

  // The <= 0.5x compression acceptance bar, measured where the format is
  // designed to win: a BFS-locality graph (the generator's window keeps
  // deltas in the single-byte varint range, like a relaid social graph).
  const std::uint64_t v1_adj_bytes =
      (2 * stats.num_edges + 2 * stats.num_arcs) * sizeof(graph::NodeId);

  // Decode every block of every CSR, releasing the mmapped pages behind
  // the scan so residency stays bounded no matter how big the file is.
  util::WallTimer t_scan;
  const auto view = graph::CompressedGraphView::Open(path);
  const double ratio = static_cast<double>(view.AdjacencyBlobBytes()) /
                       static_cast<double>(std::max<std::uint64_t>(
                           v1_adj_bytes, 1));
  std::cout << "bench_micro: rjsnap02 adjacency " << view.AdjacencyBlobBytes()
            << "B vs rjsnap01 " << v1_adj_bytes << "B (ratio " << ratio
            << ")\n";
  if (ratio > 0.5) {
    std::cerr << "bench_micro: COMPRESSION RATIO EXCEEDS 0.5x ON "
                 "BFS-LOCALITY GRAPH\n";
    std::abort();
  }
  util::AlignedVector<std::uint32_t> row_offsets;
  util::AlignedVector<graph::NodeId> adj;
  std::uint64_t checksum = 0;
  std::uint64_t release_floor = 0;
  constexpr std::uint64_t kReleaseChunk = 128ull << 20;
  for (int csr = 0; csr < 3; ++csr) {
    for (graph::NodeId b = 0; b < view.NumBlocks(); ++b) {
      view.DecodeBlockInto(csr, b, row_offsets, adj);
      checksum += adj.size() + (adj.empty() ? 0 : adj.back());
      std::uint64_t off = 0;
      std::uint64_t len = 0;
      view.BlockFileRange(csr, b, &off, &len);
      if (off > release_floor + kReleaseChunk) {
        view.Bytes().ReleaseRange(release_floor, off - release_floor);
        release_floor = off;
      }
    }
  }
  const double scan_s = t_scan.Seconds();
  const std::uint64_t peak = PeakRssBytes();
  const std::uint64_t grew = peak > baseline ? peak - baseline : 0;
  std::cout << "bench_micro: scanned all blocks in " << scan_s
            << "s (checksum=" << checksum << "), RSS grew " << (grew >> 20)
            << "MB over baseline (budget " << budget_mb << "MB, peak "
            << (peak >> 20) << "MB, mapped " << (view.MappedBytes() >> 20)
            << "MB)\n";
  if (grew > static_cast<std::uint64_t>(budget_mb) << 20) {
    std::cerr << "bench_micro: 100M-EDGE SCAN EXCEEDED " << budget_mb
              << "MB RSS BUDGET\n";
    std::abort();
  }

  std::error_code ec;
  fs::remove_all(dir, ec);  // best-effort scratch cleanup
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!rejecto::util::FastBenchMode()) RunCompressedCeilingProbe();
  return 0;
}
