// Distributed detection over a real transport (paper §V scale-out).
//
// The master shards the augmented graph across N workers and runs the full
// iterative MAAR pipeline with every fetch/update crossing the Transport
// boundary as RJNET001 frames. Two backends, same detection bits:
//
//   --transport=simnet     (default) deterministic simulated network, clean
//                          or with fault matrices (drop/duplicate/corrupt/
//                          reorder)
//   --transport=socket     real worker processes over UNIX-domain sockets
//                          (forked with --spawn=N, or external via
//                          --endpoints=...)
//
// Self-checking: always runs the serial pipeline (detect::
// DetectFriendSpammers) first and exits nonzero if the distributed
// detection diverges from it by a single bit — including under --flaky
// (10% drops) and --kill-one (worker 1 hard-exits mid-run and the master
// fails over from lineage).
//
// A worker process is this same binary:
//   ./build/examples/dist_detect --worker --listen=unix:/tmp/w0.sock
//
// Env knobs: REJECTO_SEED reseeds the world.
//
// Build & run:  cmake --build build && ./build/examples/dist_detect
#include <sys/wait.h>
#include <unistd.h>

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "detect/iterative.h"
#include "engine/cluster.h"
#include "engine/dist_detector.h"
#include "engine/net_worker.h"
#include "gen/holme_kim.h"
#include "metrics/classification.h"
#include "sim/scenario.h"
#include "util/failpoint.h"
#include "util/flags.h"
#include "util/rng.h"

namespace {

using namespace rejecto;

struct Options {
  bool worker = false;
  std::string listen;
  net::TransportKind transport = net::TransportKind::kSimNet;
  std::uint32_t spawn = 3;
  std::vector<std::string> endpoints;
  bool flaky = false;
  bool kill_one = false;
};

std::vector<std::string> SplitCsv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: dist_detect [--transport=simnet|socket]"
               " [--spawn=N | --endpoints=ep,ep,...] [--flaky]"
               " [--kill-one]\n"
               "       dist_detect --worker --listen=<endpoint>\n");
  std::exit(2);
}

// A worker count: decimal digits only, at least 1.
bool ParseWorkerCount(const char* text, std::uint32_t& out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, out);
  return ec == std::errc() && ptr == end && out >= 1;
}

Options Parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* prefix) -> const char* {
      return arg.compare(0, std::strlen(prefix), prefix) == 0
                 ? arg.c_str() + std::strlen(prefix)
                 : nullptr;
    };
    if (arg == "--worker") {
      o.worker = true;
    } else if (const char* v = value("--listen=")) {
      o.listen = v;
    } else if (const char* v = value("--transport=")) {
      try {
        o.transport = net::ParseTransportKind(v);
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "dist_detect: %s\n", e.what());
        Usage();
      }
    } else if (const char* v = value("--spawn=")) {
      if (!ParseWorkerCount(v, o.spawn)) {
        std::fprintf(stderr,
                     "dist_detect: --spawn needs a count >= 1, got '%s'\n", v);
        Usage();
      }
    } else if (const char* v = value("--endpoints=")) {
      o.endpoints = SplitCsv(v);
    } else if (arg == "--flaky") {
      o.flaky = true;
    } else if (arg == "--kill-one") {
      o.kill_one = true;
    } else {
      Usage();
    }
  }
  return o;
}

void PrintIo(const char* tag, const engine::IoStats& io) {
  std::printf(
      "%-9s fetches %-6llu nodes %-8llu retries %-4llu failovers %-3llu "
      "hit-rate %.2f\n",
      tag, static_cast<unsigned long long>(io.fetch_requests),
      static_cast<unsigned long long>(io.nodes_fetched),
      static_cast<unsigned long long>(io.fetch_retries),
      static_cast<unsigned long long>(io.shard_failovers), io.HitRate());
  std::printf(
      "%-9s wire: %llu/%llu frames out/in, %llu/%llu bytes, "
      "%llu timeouts, %llu reconnects, %llu corrupt, %llu dropped\n",
      "", static_cast<unsigned long long>(io.wire.frames_sent),
      static_cast<unsigned long long>(io.wire.frames_received),
      static_cast<unsigned long long>(io.wire.bytes_sent),
      static_cast<unsigned long long>(io.wire.bytes_received),
      static_cast<unsigned long long>(io.wire.timeouts),
      static_cast<unsigned long long>(io.wire.reconnects),
      static_cast<unsigned long long>(io.wire.corrupt_frames),
      static_cast<unsigned long long>(io.wire.dropped_frames));
}

bool SameDetection(const detect::DetectionResult& a,
                   const detect::DetectionResult& b) {
  if (a.detected != b.detected) return false;
  if (a.rounds.size() != b.rounds.size()) return false;
  for (std::size_t r = 0; r < a.rounds.size(); ++r) {
    if (a.rounds[r].detected != b.rounds[r].detected ||
        a.rounds[r].ratio != b.rounds[r].ratio) {
      return false;
    }
  }
  return true;
}

pid_t SpawnWorkerProcess(const std::string& endpoint, bool die_mid_run) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    net::WorkerOptions wopts;
    if (die_mid_run) wopts.die_after_frames = 5;
    int rc = 3;
    try {
      rc = engine::RunShardWorker(endpoint, wopts);
    } catch (...) {
      rc = 2;
    }
    std::_Exit(rc);
  }
  return pid;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = Parse(argc, argv);

  if (opts.worker) {
    if (opts.listen.empty()) {
      std::fprintf(stderr, "--worker requires --listen=<endpoint>\n");
      return 2;
    }
    return engine::RunShardWorker(opts.listen);
  }

  // The attack world: an organic Holme-Kim graph with an injected fake
  // region whose rejection edges the detector exploits.
  util::Rng rng(util::ExperimentSeed());
  const auto legit = gen::HolmeKim(
      {.num_nodes = 1'000, .edges_per_node = 4, .triad_probability = 0.4},
      rng);
  sim::ScenarioConfig scfg;
  scfg.seed = util::ExperimentSeed() + 1;
  scfg.num_fakes = 200;
  const auto scenario = sim::BuildScenario(legit, scfg);
  util::Rng seed_rng(23);
  const auto seeds = scenario.SampleSeeds(16, 6, seed_rng);
  detect::IterativeConfig dcfg;
  dcfg.target_detections = scfg.num_fakes;
  dcfg.maar.seed = 31;

  const std::uint32_t workers =
      opts.endpoints.empty()
          ? opts.spawn
          : static_cast<std::uint32_t>(opts.endpoints.size());

  // Baseline: the serial pipeline. The distributed run must match it.
  const auto baseline =
      detect::DetectFriendSpammers(scenario.graph, seeds, dcfg);
  const auto cm =
      metrics::EvaluateDetection(scenario.is_fake, baseline.detected);
  std::printf("serial baseline: %zu flagged in %d rounds, precision %.3f "
              "recall %.3f\n",
              baseline.detected.size(),
              static_cast<int>(baseline.rounds.size()), cm.Precision(),
              cm.Recall());

  engine::ClusterConfig cfg{.num_workers = workers,
                            .prefetch_batch = 64,
                            .buffer_capacity = 1024};
  cfg.transport = opts.transport;

  std::vector<pid_t> spawned;
  if (opts.transport == net::TransportKind::kSimNet) {
    cfg.sim.seed = util::ExperimentSeed() + 7;
    if (opts.flaky) {
      cfg.sim.default_link.drop_p = 0.10;
      cfg.sim.default_link.jitter_us = 20.0;
    }
  } else {
    cfg.socket.endpoints = opts.endpoints;
    if (cfg.socket.endpoints.empty()) {
      for (std::uint32_t i = 0; i < workers; ++i) {
        cfg.socket.endpoints.push_back(
            "unix:/tmp/rejecto_dist_" + std::to_string(::getpid()) + "_" +
            std::to_string(i) + ".sock");
        spawned.push_back(SpawnWorkerProcess(cfg.socket.endpoints.back(),
                                             opts.kill_one && i == 1));
      }
    }
    // Real sockets on loaded CI boxes: generous deadlines, retries cover it.
    cfg.fetch.attempt_timeout_us = 2'000'000.0;
    cfg.fetch.publish_timeout_us = 5'000'000.0;
  }

  int rc = 0;
  {
    engine::Cluster wired(cfg);
    // --kill-one on simnet: the worker "crashes" via the engine failpoint
    // instead of a process exit.
    util::ScopedFailpoint crash(
        "engine/worker_crash",
        opts.kill_one && opts.transport == net::TransportKind::kSimNet
            ? util::FailpointPolicy::OnNth(40)
            : util::FailpointPolicy::Off());
    const auto wire_result = engine::DetectFriendSpammersDistributed(
        scenario.graph, seeds, dcfg, wired);

    std::printf("\n%s: %zu flagged in %d rounds, %u dead worker(s)\n",
                net::TransportKindName(opts.transport),
                wire_result.detection.detected.size(),
                static_cast<int>(wire_result.detection.rounds.size()),
                wired.NumDeadWorkers());
    PrintIo(net::TransportKindName(opts.transport), wire_result.io);

    if (!SameDetection(wire_result.detection, baseline)) {
      std::printf("\nFAIL: distributed detection diverged from serial\n");
      rc = 1;
    } else if (wire_result.io.wire.frames_sent == 0) {
      std::printf("\nFAIL: no frames crossed the wire\n");
      rc = 1;
    } else if (opts.kill_one && wired.NumDeadWorkers() != 1) {
      std::printf("\nFAIL: --kill-one but no worker died\n");
      rc = 1;
    } else {
      std::printf("\nOK: detection over %s is bit-identical to serial\n",
                  net::TransportKindName(opts.transport));
    }
    wired.ShutdownTransport();
  }

  for (std::size_t i = 0; i < spawned.size(); ++i) {
    int status = 0;
    ::waitpid(spawned[i], &status, 0);
    const int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    const int expect = (opts.kill_one && i == 1) ? 137 : 0;
    if (code != expect) {
      std::printf("FAIL: worker %zu exited %d (expected %d)\n", i, code,
                  expect);
      rc = 1;
    }
  }
  return rc;
}
