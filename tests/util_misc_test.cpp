#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/flags.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace rejecto::util {
namespace {

// ---------- ThreadPool ----------

TEST(ThreadPoolTest, ZeroThreadsThrows) {
  EXPECT_THROW(ThreadPool(0), std::invalid_argument);
}

TEST(ThreadPoolTest, SubmitReturnsResult) {
  ThreadPool pool(2);
  auto f = pool.Submit([] { return 42; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPoolTest, SubmitPropagatesException) {
  ThreadPool pool(2);
  auto f = pool.Submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPoolTest, ManyTasksAllExecute) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 200; ++i) {
    futs.push_back(pool.Submit([&count] { ++count; }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&](std::size_t i) { ++hits[i]; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelFor(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, ParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.ParallelFor(10,
                                [](std::size_t i) {
                                  if (i == 5) throw std::runtime_error("x");
                                }),
               std::runtime_error);
}

TEST(ThreadPoolTest, ParallelForFewerItemsThanThreads) {
  ThreadPool pool(8);
  std::atomic<int> count{0};
  pool.ParallelFor(3, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPoolTest, SubmitAfterShutdownThrows) {
  ThreadPool pool(2);
  auto f = pool.Submit([] { return 1; });
  EXPECT_EQ(f.get(), 1);
  pool.Shutdown();
  pool.Shutdown();  // idempotent
  EXPECT_THROW(pool.Submit([] { return 2; }), std::runtime_error);
  EXPECT_THROW(pool.ParallelFor(4, [](std::size_t) {}), std::runtime_error);
  pool.ParallelFor(0, [](std::size_t) {});  // n == 0 stays a no-op
}

TEST(ThreadPoolTest, ParallelForPropagatesLowestBlockException) {
  // With 2 workers and 10 indices, blocks are [0,5) and [5,10); both throw,
  // and the block-0 exception must win regardless of worker scheduling.
  ThreadPool pool(2);
  for (int attempt = 0; attempt < 20; ++attempt) {
    try {
      pool.ParallelFor(10, [](std::size_t i) {
        if (i == 0) throw std::runtime_error("first-block");
        if (i == 5) throw std::runtime_error("second-block");
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "first-block");
    }
  }
}

TEST(ThreadPoolTest, HardwareThreadsAtLeastOne) {
  EXPECT_GE(HardwareThreads(), 1u);
}

// ---------- WallTimer ----------

TEST(WallTimerTest, MonotoneNonNegative) {
  WallTimer t;
  EXPECT_GE(t.Seconds(), 0.0);
  const double a = t.Seconds();
  const double b = t.Seconds();
  EXPECT_GE(b, a);
}

TEST(WallTimerTest, ResetRestarts) {
  WallTimer t;
  (void)t.Micros();
  t.Reset();
  EXPECT_LT(t.Seconds(), 1.0);
}

// ---------- Table ----------

TEST(TableTest, EmptyHeadersThrow) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(TableTest, WrongArityRowThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.AddRow({std::string("x")}), std::invalid_argument);
}

TEST(TableTest, PrintAlignsColumns) {
  Table t({"name", "value"});
  t.AddRow({std::string("x"), std::int64_t{42}});
  t.AddRow({std::string("longer"), 3.5});
  std::ostringstream os;
  t.set_precision(2);
  t.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
  EXPECT_NE(out.find("3.50"), std::string::npos);
  EXPECT_NE(out.find("------"), std::string::npos);
}

TEST(TableTest, CsvEscapesSpecialCharacters) {
  Table t({"a"});
  t.AddRow({std::string("has,comma")});
  t.AddRow({std::string("has\"quote")});
  std::ostringstream os;
  t.WriteCsv(os);
  EXPECT_NE(os.str().find("\"has,comma\""), std::string::npos);
  EXPECT_NE(os.str().find("\"has\"\"quote\""), std::string::npos);
}

TEST(TableTest, CsvPlainValuesUnquoted) {
  Table t({"a", "b"});
  t.AddRow({std::int64_t{1}, std::string("plain")});
  std::ostringstream os;
  t.WriteCsv(os);
  EXPECT_EQ(os.str(), "a,b\n1,plain\n");
}

TEST(TableTest, CountsRowsAndCols) {
  Table t({"a", "b", "c"});
  EXPECT_EQ(t.num_cols(), 3u);
  EXPECT_EQ(t.num_rows(), 0u);
  t.AddRow({std::int64_t{1}, std::int64_t{2}, std::int64_t{3}});
  EXPECT_EQ(t.num_rows(), 1u);
}

// ---------- Flags ----------

// Sets one knob for the scope of a test and clears it afterwards.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
};

TEST(FlagsTest, UnsetOrEmptyKnobsUseDefaults) {
  const char* const names[] = {"REJECTO_SEED", "REJECTO_THREADS",
                               "REJECTO_BENCH_FAST", "REJECTO_CSV_DIR",
                               "REJECTO_SIMD", "REJECTO_FAILPOINTS"};
  for (const bool empty : {false, true}) {
    for (const char* name : names) {
      empty ? ::setenv(name, "", 1) : ::unsetenv(name);
    }
    EXPECT_EQ(ExperimentSeed(), 42u);
    EXPECT_EQ(ThreadCount(), 0);
    EXPECT_FALSE(FastBenchMode());
    EXPECT_FALSE(CsvDir().has_value());
    EXPECT_EQ(RequestedSimd(), SimdRequest::kAuto);
    EXPECT_FALSE(FailpointSpec().has_value());
  }
  for (const char* name : names) ::unsetenv(name);
}

TEST(FlagsTest, ParsesWellFormedValues) {
  {
    ScopedEnv seed("REJECTO_SEED", "18446744073709551615");
    EXPECT_EQ(ExperimentSeed(), UINT64_MAX);
  }
  {
    ScopedEnv threads("REJECTO_THREADS", "4");
    EXPECT_EQ(ThreadCount(), 4);
  }
  {
    ScopedEnv dir("REJECTO_CSV_DIR", "/tmp/csvs");
    EXPECT_EQ(CsvDir(), std::optional<std::string>("/tmp/csvs"));
  }
  for (const char* yes : {"1", "true", "TRUE", "yes", "on"}) {
    ScopedEnv fast("REJECTO_BENCH_FAST", yes);
    EXPECT_TRUE(FastBenchMode()) << yes;
  }
  for (const char* no : {"0", "false", "FALSE", "no", "off"}) {
    ScopedEnv fast("REJECTO_BENCH_FAST", no);
    EXPECT_FALSE(FastBenchMode()) << no;
  }
  const std::pair<const char*, SimdRequest> simd[] = {
      {"auto", SimdRequest::kAuto},
      {"avx2", SimdRequest::kAvx2},
      {"scalar", SimdRequest::kScalar}};
  for (const auto& [text, mode] : simd) {
    ScopedEnv env("REJECTO_SIMD", text);
    EXPECT_EQ(RequestedSimd(), mode) << text;
  }
}

// A set but malformed knob throws, naming the variable and the value,
// instead of running a prefix ("12abc" -> 12), a wrapped value ("-1" ->
// 2^64 - 1) or the default ("four" -> every hardware thread, "2" -> the
// full sweep).
TEST(FlagsTest, MalformedValuesThrowNamingTheVariable) {
  struct Case {
    const char* name;
    const char* value;
    void (*read)();
  };
  const Case cases[] = {
      {"REJECTO_SEED", "12abc", [] { (void)ExperimentSeed(); }},
      {"REJECTO_SEED", "-1", [] { (void)ExperimentSeed(); }},
      {"REJECTO_SEED", "18446744073709551616", [] { (void)ExperimentSeed(); }},
      {"REJECTO_THREADS", "four", [] { (void)ThreadCount(); }},
      {"REJECTO_THREADS", "-1", [] { (void)ThreadCount(); }},
      {"REJECTO_THREADS", "4294967296", [] { (void)ThreadCount(); }},
      {"REJECTO_BENCH_FAST", "2", [] { (void)FastBenchMode(); }},
      {"REJECTO_HUGEPAGES", "enabled", [] { (void)HugepagesRequested(); }},
      {"REJECTO_REGEN_GOLDEN", "Yes", [] { (void)RegenGolden(); }},
      {"REJECTO_SIMD", "avx512", [] { (void)RequestedSimd(); }},
  };
  for (const Case& c : cases) {
    ScopedEnv env(c.name, c.value);
    try {
      c.read();
      ADD_FAILURE() << c.name << "=" << c.value << " was accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(c.name), std::string::npos) << what;
      EXPECT_NE(what.find(c.value), std::string::npos) << what;
    }
  }
}

TEST(FlagsTest, ThreadCountRefusesMoreThanTheThreadLimit) {
  ScopedEnv threads("REJECTO_THREADS", "257");
  EXPECT_THROW(ThreadCount(), std::invalid_argument);
}

TEST(FlagsTest, ExperimentSeedDefaultsTo42) {
  ::unsetenv("REJECTO_SEED");
  EXPECT_EQ(ExperimentSeed(), 42u);
  ::setenv("REJECTO_SEED", "99", 1);
  EXPECT_EQ(ExperimentSeed(), 99u);
  ::unsetenv("REJECTO_SEED");
}

}  // namespace
}  // namespace rejecto::util
