// The benchmark's own span recorder.
//
// Spans are recorded from the benchmark's files, around the calls into each
// layer's public functions; nothing inside src/ is instrumented. Each span
// keeps its name, start, end, parent span and thread. Spans go into
// per-thread buffers held in memory and are written out as JSON when the
// run ends.
//
// When tracing is off, constructing a Span costs one relaxed load.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rejecto::e2e::trace {

void Enable(bool on) noexcept;
bool Enabled() noexcept;

// Nanoseconds on the steady clock, the time base of every span.
std::int64_t NowNs() noexcept;

struct Record {
  const char* name = "";  // a string literal
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t thread = 0;
  // Work the span did, in the layer's own units (e.g. KL passes and
  // switches); 0 when the layer reports none.
  std::uint64_t work[2] = {0, 0};
};

class Span {
 public:
  // Parent is the calling thread's innermost open span.
  explicit Span(const char* name);
  // Explicit parent, for work a pool thread does on behalf of a span that
  // another thread opened.
  Span(const char* name, std::uint64_t parent);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint64_t Id() const noexcept { return rec_.id; }
  void SetWork(std::uint64_t a, std::uint64_t b = 0) noexcept {
    rec_.work[0] = a;
    rec_.work[1] = b;
  }

 private:
  bool on_ = false;
  Record rec_;
};

// Every recorded span, ordered by start time. Call only while no thread is
// recording (after the workload's threads have joined).
std::vector<Record> Collect();

void WriteJson(const std::string& path, const std::vector<Record>& spans);

// Per span name: summed duration, summed self time (duration minus the part
// of it that child spans cover), call count and summed work.
struct Totals {
  double wall_s = 0.0;
  double self_s = 0.0;
  std::uint64_t calls = 0;
  std::uint64_t work[2] = {0, 0};
};
std::map<std::string, Totals> Aggregate(const std::vector<Record>& spans);

}  // namespace rejecto::e2e::trace
