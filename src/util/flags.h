// The one place the process environment is read: one typed accessor per
// REJECTO_* knob. README "Environment knobs" is the table of accepted
// values, defaults and readers (the knob_table ctest keeps it in step with
// flags.cpp). Unset or empty means the default; a malformed value throws
// std::invalid_argument naming the variable and the value.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace rejecto::util {

bool FastBenchMode();                         // REJECTO_BENCH_FAST
std::uint64_t ExperimentSeed();               // REJECTO_SEED
int ThreadCount();                            // REJECTO_THREADS (0 = auto)
std::optional<std::string> CsvDir();          // REJECTO_CSV_DIR
bool Fig17FullSweep();                        // REJECTO_FIG17_FULL
bool Fig18FullSweep();                        // REJECTO_FIG18_FULL
bool RegenGolden();                           // REJECTO_REGEN_GOLDEN
enum class SimdRequest : std::uint8_t { kAuto, kAvx2, kScalar };
SimdRequest RequestedSimd();                  // REJECTO_SIMD
bool HugepagesRequested();                    // REJECTO_HUGEPAGES
std::optional<std::string> FailpointSpec();   // REJECTO_FAILPOINTS

}  // namespace rejecto::util
