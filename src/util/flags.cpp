#include "util/flags.h"

#include <charconv>
#include <cstdlib>
#include <stdexcept>

#include "util/thread_pool.h"

namespace rejecto::util {

namespace {

std::optional<std::string> GetEnvString(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return std::nullopt;
  return std::string(v);
}

[[noreturn]] void Malformed(const char* name, const std::string& value,
                            const char* expected) {
  throw std::invalid_argument(std::string(name) + "='" + value +
                              "': expected " + expected);
}

// Full token, no sign, at most `max` (as util/parse.h parses ids).
std::uint64_t GetEnvInt(const char* name, std::uint64_t fallback,
                        std::uint64_t max, const char* expected) {
  const auto s = GetEnvString(name);
  if (!s) return fallback;
  std::uint64_t value = 0;
  const char* end = s->data() + s->size();
  const auto [ptr, ec] = std::from_chars(s->data(), end, value);
  if (ec != std::errc{} || ptr != end || value > max) {
    Malformed(name, *s, expected);
  }
  return value;
}

bool GetEnvBool(const char* name) {
  const auto s = GetEnvString(name);
  if (!s) return false;
  for (const char* yes : {"1", "true", "TRUE", "yes", "on"}) {
    if (*s == yes) return true;
  }
  for (const char* no : {"0", "false", "FALSE", "no", "off"}) {
    if (*s == no) return false;
  }
  Malformed(name, *s, "1/0, true/false, TRUE/FALSE, yes/no or on/off");
}

}  // namespace

bool FastBenchMode() { return GetEnvBool("REJECTO_BENCH_FAST"); }

std::uint64_t ExperimentSeed() {
  return GetEnvInt("REJECTO_SEED", 42, UINT64_MAX,
                   "an unsigned 64-bit integer");
}

int ThreadCount() {
  return static_cast<int>(GetEnvInt("REJECTO_THREADS", 0, kMaxThreads,
                                    "an integer in [0, 256]"));
}

std::optional<std::string> CsvDir() { return GetEnvString("REJECTO_CSV_DIR"); }

bool Fig17FullSweep() { return GetEnvBool("REJECTO_FIG17_FULL"); }

bool Fig18FullSweep() { return GetEnvBool("REJECTO_FIG18_FULL"); }

bool RegenGolden() { return GetEnvBool("REJECTO_REGEN_GOLDEN"); }

SimdRequest RequestedSimd() {
  const auto s = GetEnvString("REJECTO_SIMD");
  if (!s || *s == "auto") return SimdRequest::kAuto;
  if (*s == "avx2") return SimdRequest::kAvx2;
  if (*s == "scalar") return SimdRequest::kScalar;
  Malformed("REJECTO_SIMD", *s, "auto, avx2 or scalar");
}

bool HugepagesRequested() { return GetEnvBool("REJECTO_HUGEPAGES"); }

std::optional<std::string> FailpointSpec() {
  return GetEnvString("REJECTO_FAILPOINTS");
}

}  // namespace rejecto::util
