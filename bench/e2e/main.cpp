// End-to-end benchmark binary: runs one workload in this process and
// writes one JSON run record. run.py builds it, runs it and prints the
// result line; see README.md.
//
//   e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --out <run.json> --trace-out <spans.json> --tmp <dir>
//             [--git-sha <sha>] [--readers <n>]
//
// --readers sets admit_live's reader threads (default 2), for one-off
// scaling measurements; the benchmark itself always runs 2.
//
// Exit codes: 0 ok, 2 bad usage, 3 a correctness gate failed (no metrics
// are printed or written), 4 any other error.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "e2e.h"
#include "trace.h"
#include "util/memory.h"
#include "util/simd.h"
#include "util/thread_pool.h"

extern char** environ;

namespace rejecto::e2e {
namespace {

const std::map<std::string, WorkloadFn>& Workloads() {
  static const std::map<std::string, WorkloadFn> w = {
      {"batch_ram", RunBatchRam},
      {"batch_ooc", RunBatchOoc},
      {"ingest_epochs", RunIngestEpochs},
      {"admit_live", RunAdmitLive},
  };
  return w;
}

const char* KindName(Report::Kind k) {
  switch (k) {
    case Report::Kind::kEndToEnd: return "end_to_end";
    case Report::Kind::kDetail: return "detail";
    case Report::Kind::kLayer: return "layer";
  }
  return "?";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + '"';
}

void WriteRecord(const Options& opt, const std::string& git_sha,
                 const Report& rep) {
  std::ofstream out(opt.out_json);
  if (!out) throw std::runtime_error("cannot write " + opt.out_json);
  out.precision(17);
  out << "{\n  \"bench\": \"e2e\",\n  \"workload\": "
      << JsonString(opt.workload)
      << ",\n  \"provenance\": {\"git_sha\": " << JsonString(git_sha)
      << ", \"nproc\": " << util::HardwareThreads() << ", \"simd\": "
      << JsonString(util::simd::ModeName(util::simd::ActiveMode()))
      << ", \"hugepages\": "
      << (util::memory::HugepagesEnabled() ? "true" : "false")
      << ", \"seed\": " << opt.seed << ", \"seconds\": " << opt.seconds
      << ", \"trace\": " << (opt.trace ? "true" : "false")
      << ", \"compiler\": " << JsonString(__VERSION__) << "},\n";
  out << "  \"config\": {";
  const auto& cfg = rep.ConfigEntries();
  for (std::size_t i = 0; i < cfg.size(); ++i) {
    out << (i ? ", " : "") << JsonString(cfg[i].first) << ": "
        << cfg[i].second;
  }
  out << "},\n  \"attempted\": " << rep.attempted
      << ",\n  \"failed\": " << rep.failed << ",\n  \"metrics\": {";
  bool first = true;
  for (const auto& m : rep.Metrics()) {
    out << (first ? "\n" : ",\n") << "    " << JsonString(m.name)
        << ": {\"value\": " << m.value << ", \"unit\": " << JsonString(m.unit)
        << ", \"kind\": \"" << KindName(m.kind) << "\"}";
    first = false;
  }
  out << "\n  },\n  \"notes\": [";
  for (std::size_t i = 0; i < rep.Notes().size(); ++i) {
    out << (i ? ", " : "") << JsonString(rep.Notes()[i]);
  }
  out << "]\n}\n";
}

// Self time of every traced layer, largest first.
void PrintSelfTimes(const std::map<std::string, trace::Totals>& totals) {
  std::vector<std::pair<std::string, trace::Totals>> rows(totals.begin(),
                                                          totals.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.self_s > b.second.self_s;
  });
  std::printf("# traced layers: name calls wall_s self_s\n");
  for (const auto& [name, t] : rows) {
    std::printf("# %-48s %8llu %12.6f %12.6f\n", name.c_str(),
                static_cast<unsigned long long>(t.calls), t.wall_s, t.self_s);
  }
}

int Usage(const char* msg) {
  std::fprintf(stderr, "e2e_bench: %s\n", msg);
  return 2;
}

int Main(int argc, char** argv) {
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "REJECTO_", 8) == 0) {
      return Usage("REJECTO_* variables must be unset (run through run.py)");
    }
  }
  Options opt;
  std::string git_sha = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::stoull(val);
    } else if (key == "--seconds") {
      opt.seconds = std::stod(val);
    } else if (key == "--trace") {
      opt.trace = val == "1";
    } else if (key == "--out") {
      opt.out_json = val;
    } else if (key == "--trace-out") {
      opt.trace_json = val;
    } else if (key == "--tmp") {
      opt.tmp_dir = val;
    } else if (key == "--git-sha") {
      git_sha = val;
    } else if (key == "--readers") {
      opt.readers = std::stoi(val);
    } else {
      return Usage(("unknown option " + key).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("options come in --key value pairs");
  const auto it = Workloads().find(opt.workload);
  if (it == Workloads().end()) return Usage("unknown --workload");
  if (opt.out_json.empty() || opt.tmp_dir.empty()) {
    return Usage("--out and --tmp are required");
  }
  if (opt.trace && opt.trace_json.empty()) {
    return Usage("--trace 1 needs --trace-out");
  }
  if (!(opt.seconds > 0)) return Usage("--seconds must be given, positive");
  if (opt.readers < 1 || opt.readers > 8) return Usage("--readers is 1..8");
  opt.threads = static_cast<int>(util::HardwareThreads());
  std::filesystem::create_directories(opt.tmp_dir);

  // Timed phases record no spans, so tracing can be on for the whole run.
  trace::Enable(opt.trace);
  Report rep;
  rep.Config("workload", opt.workload);
  rep.Config("maar.num_threads", opt.threads);
  try {
    it->second(opt, rep);
  } catch (const GateFailure& e) {
    std::fprintf(stderr, "e2e_bench: GATE FAILED (%s): %s\n",
                 opt.workload.c_str(), e.what());
    return 3;
  }

  for (const auto& m : rep.Metrics()) {
    if (!std::isfinite(m.value)) {
      throw std::runtime_error("metric " + m.name + " is not finite");
    }
  }
  if (opt.trace) {
    const auto spans = trace::Collect();
    trace::WriteJson(opt.trace_json, spans);
    PrintSelfTimes(trace::Aggregate(spans));
  }
  for (const auto& m : rep.Metrics()) {
    std::printf("%s %.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& note : rep.Notes()) std::printf("# %s\n", note.c_str());
  WriteRecord(opt, git_sha, rep);
  return 0;
}

}  // namespace
}  // namespace rejecto::e2e

int main(int argc, char** argv) {
  try {
    return rejecto::e2e::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: error: %s\n", e.what());
    return 4;
  }
}
