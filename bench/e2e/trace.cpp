#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace rejecto::e2e::trace {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};

struct ThreadBuffer {
  std::uint32_t thread = 0;
  std::vector<Record> records;
  std::vector<std::uint64_t> open;  // ids of this thread's open spans
};

// Buffers are owned here, not by their threads, so spans recorded by pool
// threads survive those threads' exit.
std::mutex g_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;

thread_local ThreadBuffer* t_buffer = nullptr;

// Id of the innermost open span on the calling thread (0 at top level).
std::uint64_t CurrentSpan() noexcept {
  if (t_buffer == nullptr || t_buffer->open.empty()) return 0;
  return t_buffer->open.back();
}

ThreadBuffer& Buffer() {
  if (t_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_mu);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    t_buffer = g_buffers.back().get();
    t_buffer->thread = static_cast<std::uint32_t>(g_buffers.size());
    t_buffer->records.reserve(1 << 12);
  }
  return *t_buffer;
}

}  // namespace

void Enable(bool on) noexcept {
  g_enabled.store(on, std::memory_order_relaxed);
}

bool Enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

std::int64_t NowNs() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Span::Span(const char* name) : Span(name, CurrentSpan()) {}

Span::Span(const char* name, std::uint64_t parent)
    : on_(Enabled()) {
  if (!on_) return;
  rec_.name = name;
  rec_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  rec_.parent = parent;
  ThreadBuffer& buf = Buffer();
  rec_.thread = buf.thread;
  buf.open.push_back(rec_.id);
  rec_.start_ns = NowNs();
}

Span::~Span() {
  if (!on_) return;
  rec_.end_ns = NowNs();
  ThreadBuffer& buf = Buffer();
  buf.open.pop_back();
  buf.records.push_back(rec_);
}

std::vector<Record> Collect() {
  std::vector<Record> all;
  std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& buf : g_buffers) {
    all.insert(all.end(), buf->records.begin(), buf->records.end());
  }
  std::sort(all.begin(), all.end(), [](const Record& a, const Record& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return all;
}

void WriteJson(const std::string& path, const std::vector<Record>& spans) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("trace: cannot write " + path);
  const std::int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  out << "{\"time_unit\": \"ns\", \"spans\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Record& r = spans[i];
    out << "  {\"name\": \"" << r.name << "\", \"id\": " << r.id
        << ", \"parent\": " << r.parent << ", \"thread\": " << r.thread
        << ", \"start\": " << (r.start_ns - t0)
        << ", \"end\": " << (r.end_ns - t0) << ", \"work\": [" << r.work[0]
        << ", " << r.work[1] << "]}" << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

std::map<std::string, Totals> Aggregate(const std::vector<Record>& spans) {
  // Child intervals per parent, clipped to the parent and merged, give the
  // covered part of each span; the rest is its self time.
  std::unordered_map<std::uint64_t, std::vector<std::pair<std::int64_t,
                                                          std::int64_t>>>
      children;
  for (const Record& r : spans) {
    if (r.parent != 0) children[r.parent].push_back({r.start_ns, r.end_ns});
  }
  std::map<std::string, Totals> out;
  for (const Record& r : spans) {
    std::int64_t covered = 0;
    auto it = children.find(r.id);
    if (it != children.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::int64_t lo = 0;
      std::int64_t hi = -1;
      bool open = false;
      for (auto [s, e] : iv) {
        s = std::max(s, r.start_ns);
        e = std::min(e, r.end_ns);
        if (e <= s) continue;
        if (open && s <= hi) {
          hi = std::max(hi, e);
        } else {
          if (open) covered += hi - lo;
          lo = s;
          hi = e;
          open = true;
        }
      }
      if (open) covered += hi - lo;
    }
    Totals& t = out[r.name];
    const double dur = static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
    t.wall_s += dur;
    t.self_s += dur - static_cast<double>(covered) * 1e-9;
    t.calls += 1;
    t.work[0] += r.work[0];
    t.work[1] += r.work[1];
  }
  return out;
}

}  // namespace rejecto::e2e::trace
