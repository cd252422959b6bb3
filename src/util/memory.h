// Memory tier for the hot integer arrays.
//
// Every CSR offset/adjacency array and packed record store in the detection
// path allocates through this module instead of the default allocator. Two
// guarantees matter to the kernels built on top:
//
//   1. 64-byte alignment — every Block starts on a cache-line (and AVX-512
//      friendly) boundary, so vector loads never straddle lines and packed
//      16-byte records never split.
//   2. Readable slack — every Block is at least kSimdSlackBytes longer than
//      requested, and the extra bytes are readable (zero-initialised).
//      SIMD gathers that load 4 bytes at a 1-byte-granularity address may
//      therefore overread up to 3 bytes past the last valid element without
//      faulting. See util/simd.h for the kernels that rely on this.
//
// Blocks of at least kMapThreshold bytes are anonymous mmap regions of their
// own, unmapped again on Deallocate. From the heap they would come, once
// glibc's dynamic mmap threshold has risen past them, out of the arena of
// whichever thread allocated them, and a freed block would stay resident in
// that arena: the resident size of a run would then depend on which pool
// thread happened to allocate which workspace. Mapped, a block is resident
// exactly while it is alive.
//
// Large blocks can additionally be backed by transparent hugepages: when
// REJECTO_HUGEPAGES is on (util::HugepagesRequested; README "Environment
// knobs"), mappings of at least kHugepageThreshold bytes are advised with
// MADV_HUGEPAGE. The advice is best-effort — kernels without THP simply
// ignore it — and when the mapping itself cannot be created the allocator
// falls back to the plain 64-byte-aligned heap path, so no allocation can
// fail that would otherwise succeed. The failpoint site
// "memory/hugepage_map" forces that fallback for hugepage-sized blocks
// deterministically in tests.
#pragma once

#include <cstddef>
#include <cstdint>

namespace rejecto::util::memory {

// Alignment of every block handed out by Allocate().
inline constexpr std::size_t kAlignment = 64;

// Minimum readable bytes past the requested size (see module comment).
inline constexpr std::size_t kSimdSlackBytes = 64;

// Allocations at least this large are mapped rather than taken from the
// heap (glibc's own initial mmap threshold).
inline constexpr std::size_t kMapThreshold = std::size_t{128} << 10;

// Mappings at least this large are advised as hugepages when enabled.
inline constexpr std::size_t kHugepageThreshold = std::size_t{2} << 20;

struct Block {
  void* ptr = nullptr;       // 64-byte aligned, or nullptr for the empty block
  std::size_t bytes = 0;     // total readable bytes (>= request + slack)
  bool mapped = false;       // true when mmap-backed
};

// Returns a zero-initialised block of at least `bytes + kSimdSlackBytes`
// readable bytes (rounded up to a multiple of kAlignment). `bytes == 0`
// yields the empty block. Throws std::bad_alloc when the heap path fails.
Block Allocate(std::size_t bytes);

// Releases a block obtained from Allocate() and resets it to empty.
// Safe on the empty block.
void Deallocate(Block& block) noexcept;

// Whether the hugepage path is active (REJECTO_HUGEPAGES, cached on first
// use; SetHugepagesForTest overrides it).
bool HugepagesEnabled();
void SetHugepagesForTest(bool enabled);

// Process-wide allocator counters, for tests and diagnostics.
struct ArenaStats {
  std::uint64_t heap_allocs = 0;       // aligned heap blocks handed out
  std::uint64_t mapped_allocs = 0;     // mmap-backed blocks handed out
  std::uint64_t mapped_bytes = 0;      // total bytes in mapped blocks
  std::uint64_t hugepage_fallbacks = 0;  // hugepage requests served by heap
};
ArenaStats Stats();

}  // namespace rejecto::util::memory
