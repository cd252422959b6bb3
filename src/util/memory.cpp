#include "util/memory.h"

#include <sys/mman.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>

#include "util/failpoint.h"
#include "util/flags.h"

namespace rejecto::util::memory {

namespace {

std::atomic<int> g_hugepages{-1};  // -1 unresolved, 0 off, 1 on

struct Counters {
  std::atomic<std::uint64_t> heap_allocs{0};
  std::atomic<std::uint64_t> mapped_allocs{0};
  std::atomic<std::uint64_t> mapped_bytes{0};
  std::atomic<std::uint64_t> hugepage_fallbacks{0};
};

Counters& GlobalCounters() {
  static Counters counters;
  return counters;
}

std::size_t RoundUp(std::size_t bytes) {
  return (bytes + kAlignment - 1) / kAlignment * kAlignment;
}

}  // namespace

bool HugepagesEnabled() {
  int v = g_hugepages.load(std::memory_order_relaxed);
  if (v < 0) {
    v = HugepagesRequested() ? 1 : 0;
    g_hugepages.store(v, std::memory_order_relaxed);
  }
  return v == 1;
}

void SetHugepagesForTest(bool enabled) {
  g_hugepages.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

Block Allocate(std::size_t bytes) {
  if (bytes == 0) return {};
  const std::size_t total = RoundUp(bytes + kSimdSlackBytes);
  Counters& counters = GlobalCounters();
  if (total >= kMapThreshold) {
    const bool huge = HugepagesEnabled() && total >= kHugepageThreshold;
    void* map = MAP_FAILED;
    if (!huge || !Failpoints::Instance().ShouldFail("memory/hugepage_map")) {
      map = ::mmap(nullptr, total, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    }
    if (map != MAP_FAILED) {
      // Best effort: kernels without THP reject the advice; the mapping is
      // still a valid 64-byte-aligned zeroed block either way.
      if (huge) (void)::madvise(map, total, MADV_HUGEPAGE);
      counters.mapped_allocs.fetch_add(1, std::memory_order_relaxed);
      counters.mapped_bytes.fetch_add(total, std::memory_order_relaxed);
      return {map, total, true};
    }
    if (huge) {
      counters.hugepage_fallbacks.fetch_add(1, std::memory_order_relaxed);
    }
  }
  void* ptr = std::aligned_alloc(kAlignment, total);
  if (ptr == nullptr) throw std::bad_alloc();
  std::memset(ptr, 0, total);
  counters.heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return {ptr, total, false};
}

void Deallocate(Block& block) noexcept {
  if (block.ptr != nullptr) {
    if (block.mapped) {
      ::munmap(block.ptr, block.bytes);
    } else {
      std::free(block.ptr);
    }
  }
  block = {};
}

ArenaStats Stats() {
  const Counters& counters = GlobalCounters();
  ArenaStats out;
  out.heap_allocs = counters.heap_allocs.load(std::memory_order_relaxed);
  out.mapped_allocs = counters.mapped_allocs.load(std::memory_order_relaxed);
  out.mapped_bytes = counters.mapped_bytes.load(std::memory_order_relaxed);
  out.hugepage_fallbacks =
      counters.hugepage_fallbacks.load(std::memory_order_relaxed);
  return out;
}

}  // namespace rejecto::util::memory
