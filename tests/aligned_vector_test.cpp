// Unit suite for the memory tier: util::memory block allocator and the
// AlignedVector container every hot array now lives on. Pins the two
// contracts the SIMD kernels build on (64-byte base alignment, 64 readable
// slack bytes past end at any size), plus std::vector-mirrored growth
// semantics, move/copy behavior, and the hugepage fallback path (driven
// deterministically through the "memory/hugepage_map" failpoint).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <numeric>
#include <vector>

#include "util/buffer.h"
#include "util/failpoint.h"
#include "util/memory.h"
#include "util/rng.h"

namespace rejecto {
namespace {

using util::AlignedVector;
namespace memory = util::memory;

bool IsAligned(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % memory::kAlignment == 0;
}

// Reads the slack region past the last element; must not fault and — for a
// freshly grown block — must be readable as plain bytes. The return value
// defeats dead-code elimination.
template <typename T>
unsigned SlackChecksum(const AlignedVector<T>& v) {
  if (v.data() == nullptr) return 0;
  const auto* bytes =
      reinterpret_cast<const unsigned char*>(v.data() + v.size());
  unsigned sum = 0;
  for (std::size_t i = 0; i < memory::kSimdSlackBytes; ++i) sum += bytes[i];
  return sum;
}

TEST(MemoryTest, AllocateAlignsZeroesAndPadsSlack) {
  memory::Block b = memory::Allocate(100);
  ASSERT_NE(b.ptr, nullptr);
  EXPECT_TRUE(IsAligned(b.ptr));
  EXPECT_GE(b.bytes, 100 + memory::kSimdSlackBytes);
  EXPECT_EQ(b.bytes % memory::kAlignment, 0u);
  const auto* p = static_cast<const unsigned char*>(b.ptr);
  for (std::size_t i = 0; i < b.bytes; ++i) {
    ASSERT_EQ(p[i], 0u) << "byte " << i << " not zero-initialised";
  }
  memory::Deallocate(b);
  EXPECT_EQ(b.ptr, nullptr);
  memory::Deallocate(b);  // double-release of the empty block is safe
}

TEST(MemoryTest, ZeroByteRequestYieldsEmptyBlock) {
  memory::Block b = memory::Allocate(0);
  EXPECT_EQ(b.ptr, nullptr);
  EXPECT_EQ(b.bytes, 0u);
  memory::Deallocate(b);
}

TEST(AlignedVectorTest, DataStaysAlignedThroughGrowth) {
  AlignedVector<std::uint32_t> v;
  EXPECT_EQ(v.data(), nullptr);
  for (std::uint32_t i = 0; i < 5'000; ++i) {
    v.push_back(i);
    ASSERT_TRUE(IsAligned(v.data())) << "misaligned at size " << v.size();
  }
  // Slack stays readable at every capacity the growth path produced.
  EXPECT_GE(SlackChecksum(v), 0u);
  for (std::uint32_t i = 0; i < 5'000; ++i) ASSERT_EQ(v[i], i);
}

TEST(AlignedVectorTest, MirrorsStdVectorUnderRandomOps) {
  util::Rng rng(11);
  AlignedVector<std::uint32_t> v;
  std::vector<std::uint32_t> ref;
  for (int step = 0; step < 20'000; ++step) {
    switch (rng.NextUInt(6)) {
      case 0:
      case 1:
      case 2: {
        const auto x = rng.NextUInt(1u << 30);
        v.push_back(x);
        ref.push_back(x);
        break;
      }
      case 3:
        if (!ref.empty()) {
          v.pop_back();
          ref.pop_back();
        }
        break;
      case 4: {
        const std::size_t n = rng.NextUInt(64);
        std::vector<std::uint32_t> chunk(n);
        for (auto& x : chunk) x = rng.NextUInt(1u << 30);
        v.Append(chunk.data(), chunk.size());
        ref.insert(ref.end(), chunk.begin(), chunk.end());
        break;
      }
      default: {
        const std::size_t n = rng.NextUInt(200);
        v.resize(n);  // value-initialises growth, like std::vector
        ref.resize(n);
        break;
      }
    }
    ASSERT_EQ(v.size(), ref.size());
  }
  EXPECT_EQ(v.ToStdVector(), ref);
  EXPECT_TRUE(IsAligned(v.data()));
}

TEST(AlignedVectorTest, ConstructorsAndAssignment) {
  const AlignedVector<int> from_list = {1, 2, 3};
  EXPECT_EQ(from_list.ToStdVector(), (std::vector<int>{1, 2, 3}));

  const AlignedVector<int> sized(4);
  EXPECT_EQ(sized.ToStdVector(), (std::vector<int>{0, 0, 0, 0}));

  const AlignedVector<int> filled(3, 7);
  EXPECT_EQ(filled.ToStdVector(), (std::vector<int>{7, 7, 7}));

  const std::vector<int> src = {5, 6};
  const AlignedVector<int> from_std(src);
  EXPECT_EQ(from_std.ToStdVector(), src);

  AlignedVector<int> copy(from_list);
  EXPECT_EQ(copy, from_list);
  EXPECT_NE(copy.data(), from_list.data());

  copy = filled;
  EXPECT_EQ(copy, filled);
  copy = {9, 9};
  EXPECT_EQ(copy.ToStdVector(), (std::vector<int>{9, 9}));
  EXPECT_NE(copy, filled);
}

TEST(AlignedVectorTest, MoveStealsStorageAndLeavesEmpty) {
  AlignedVector<std::uint64_t> a;
  for (std::uint64_t i = 0; i < 100; ++i) a.push_back(i);
  const auto* stolen = a.data();

  AlignedVector<std::uint64_t> b(std::move(a));
  EXPECT_EQ(b.data(), stolen);
  EXPECT_EQ(b.size(), 100u);
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_EQ(a.size(), 0u);
  a.push_back(3);  // the moved-from container is reusable
  EXPECT_EQ(a.size(), 1u);

  AlignedVector<std::uint64_t> c;
  c.push_back(42);
  c = std::move(b);
  EXPECT_EQ(c.data(), stolen);
  EXPECT_EQ(c.size(), 100u);
  for (std::uint64_t i = 0; i < 100; ++i) ASSERT_EQ(c[i], i);

  AlignedVector<std::uint64_t> d;
  d.push_back(1);
  AlignedVector<std::uint64_t> e;
  e.push_back(2);
  swap(d, e);
  EXPECT_EQ(d[0], 2u);
  EXPECT_EQ(e[0], 1u);
}

TEST(AlignedVectorTest, ReserveKeepsContentsAndClearKeepsCapacity) {
  AlignedVector<int> v = {1, 2, 3};
  v.reserve(1000);
  EXPECT_GE(v.capacity(), 1000u);
  EXPECT_EQ(v.ToStdVector(), (std::vector<int>{1, 2, 3}));
  const auto* before = v.data();
  const auto cap = v.capacity();
  v.clear();
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.data(), before);
  EXPECT_EQ(v.capacity(), cap);
}

TEST(AlignedVectorTest, SixteenByteRecordsNeverSplitCacheLines) {
  struct Record {
    std::uint32_t a, b, c, d;
  };
  static_assert(sizeof(Record) == 16);
  AlignedVector<Record> v(1000);
  ASSERT_TRUE(IsAligned(v.data()));
  // 64 % 16 == 0 and the base is line-aligned, so no record straddles.
  for (std::size_t i = 0; i < v.size(); ++i) {
    const auto addr = reinterpret_cast<std::uintptr_t>(&v[i]);
    ASSERT_EQ(addr / 64, (addr + sizeof(Record) - 1) / 64);
  }
}

TEST(MemoryTest, HugepagePathMapsLargeBlocks) {
  const bool was_enabled = memory::HugepagesEnabled();
  memory::SetHugepagesForTest(true);
  const auto before = memory::Stats();
  memory::Block big = memory::Allocate(memory::kHugepageThreshold);
  const auto after = memory::Stats();
  EXPECT_NE(big.ptr, nullptr);
  EXPECT_TRUE(IsAligned(big.ptr));
  // Either the mmap succeeded (mapped block) or the allocator fell back to
  // the heap — both are valid outcomes of the best-effort contract, and
  // exactly one of the two counters moved.
  if (big.mapped) {
    EXPECT_EQ(after.mapped_allocs, before.mapped_allocs + 1);
  } else {
    EXPECT_EQ(after.hugepage_fallbacks, before.hugepage_fallbacks + 1);
  }
  std::memset(big.ptr, 0xAB, big.bytes);  // the mapping must be writable
  memory::Deallocate(big);

  // Small blocks never take the mmap path even with the knob on.
  memory::Block small = memory::Allocate(256);
  EXPECT_FALSE(small.mapped);
  memory::Deallocate(small);
  memory::SetHugepagesForTest(was_enabled);
}

TEST(MemoryTest, LargeBlocksAreMappedWithoutTheHugepageKnob) {
  const bool was_enabled = memory::HugepagesEnabled();
  memory::SetHugepagesForTest(false);
  const auto before = memory::Stats();
  memory::Block big = memory::Allocate(memory::kMapThreshold);
  const auto after = memory::Stats();
  ASSERT_NE(big.ptr, nullptr);
  EXPECT_TRUE(big.mapped);
  EXPECT_TRUE(IsAligned(big.ptr));
  EXPECT_EQ(after.mapped_allocs, before.mapped_allocs + 1);
  EXPECT_EQ(after.hugepage_fallbacks, before.hugepage_fallbacks);
  // Same zero-init + slack contract as a heap block.
  const auto* p = static_cast<const unsigned char*>(big.ptr);
  for (std::size_t i = 0; i < big.bytes; ++i) ASSERT_EQ(p[i], 0u);
  memory::Deallocate(big);

  // Just below the threshold (slack included) stays on the heap.
  memory::Block small = memory::Allocate(memory::kMapThreshold -
                                         memory::kSimdSlackBytes - 64);
  EXPECT_FALSE(small.mapped);
  memory::Deallocate(small);
  memory::SetHugepagesForTest(was_enabled);
}

TEST(MemoryTest, HugepageMapFailureFallsBackToHeap) {
  const bool was_enabled = memory::HugepagesEnabled();
  memory::SetHugepagesForTest(true);
  util::ScopedFailpoint fp("memory/hugepage_map",
                           util::FailpointPolicy::EveryNth(1));
  const auto before = memory::Stats();
  memory::Block b = memory::Allocate(memory::kHugepageThreshold);
  const auto after = memory::Stats();
  ASSERT_NE(b.ptr, nullptr);
  EXPECT_FALSE(b.mapped);
  EXPECT_TRUE(IsAligned(b.ptr));
  EXPECT_EQ(after.hugepage_fallbacks, before.hugepage_fallbacks + 1);
  EXPECT_EQ(after.mapped_allocs, before.mapped_allocs);
  // The fallback block honors the same zero-init + slack contract.
  const auto* p = static_cast<const unsigned char*>(b.ptr);
  for (std::size_t i = 0; i < b.bytes; ++i) ASSERT_EQ(p[i], 0u);
  memory::Deallocate(b);
  memory::SetHugepagesForTest(was_enabled);
}

TEST(MemoryTest, AlignedVectorSurvivesHugepageFallback) {
  const bool was_enabled = memory::HugepagesEnabled();
  memory::SetHugepagesForTest(true);
  util::ScopedFailpoint fp("memory/hugepage_map",
                           util::FailpointPolicy::EveryNth(1));
  // Grow a container through the hugepage threshold: every block comes from
  // the heap fallback and the contents survive each migration.
  AlignedVector<std::uint64_t> v;
  const std::size_t n = (memory::kHugepageThreshold / sizeof(std::uint64_t)) + 1'000;
  for (std::size_t i = 0; i < n; ++i) v.push_back(i);
  ASSERT_TRUE(IsAligned(v.data()));
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < n; ++i) sum += v[i] - i;
  EXPECT_EQ(sum, 0u);
  memory::SetHugepagesForTest(was_enabled);
}

}  // namespace
}  // namespace rejecto
