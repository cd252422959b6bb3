// Runtime-dispatched SIMD primitives for the detection kernels.
//
// Every primitive here has a scalar implementation (the oracle) and an AVX2
// implementation compiled with a per-function target attribute, so the
// default build stays portable — no -mavx2 is needed, and non-AVX2 hosts
// simply never execute the vector bodies. Which body runs is a process-wide
// mode resolved once from REJECTO_SIMD (util::RequestedSimd; README
// "Environment knobs"): AVX2 when the CPU supports it unless the knob asks
// for the scalar oracle.
//
// All primitives are bit-identical across modes: they compute exact integer
// counts and copies, never reassociated floating point. Tests pin this
// (tests/simd_kernel_test.cpp) and the kernel benches abort on divergence.
//
// Addressing contract: the AVX2 paths gather 4 bytes at byte-granularity
// addresses (scale-1 gathers), so `mask`/`keep` buffers must have at least
// 3 readable bytes past the highest indexed element. Buffers owned by
// util::AlignedVector satisfy this with 64 bytes of readable slack; plain
// std::vector buffers do NOT — copy them into an AlignedVector first.
// Indices must be < 2^31 (they are sign-extended by the gather).
#pragma once

#include <cstddef>
#include <cstdint>

namespace rejecto::util::simd {

enum class SimdMode : std::uint8_t { kScalar, kAvx2 };

// True when the host CPU can execute the AVX2 paths.
bool Avx2Supported();

// The process-wide mode (cached after first resolution).
SimdMode ActiveMode();

// Overrides the cached mode; requesting kAvx2 on a host without AVX2 support
// silently keeps scalar so tests can call it unconditionally.
void SetModeForTest(SimdMode mode);

const char* ModeName(SimdMode mode);

// Returns the number of i in [0, count) with mask[idx[i]] == 0. With a 0/1
// mask over graph nodes this is exactly the "how many neighbours are outside
// U" cut count. `mask` needs the 3-byte slack described above.
std::size_t CountZeroAt(const unsigned char* mask, const std::uint32_t* idx,
                        std::size_t count);

// Left-packing filter for the subgraph compaction kernel: for each v in
// row[0..count) with keep[v] != 0, writes map[v] to `out` preserving row
// order; returns the number written. `out` must have room for every kept
// element; nothing is written past the returned count (the AVX2 path uses
// masked stores), so disjoint output rows can be filled concurrently.
// `keep` needs the 3-byte slack; `map` is indexed exactly (4-byte loads).
std::size_t FilterMapRow(const unsigned char* keep, const std::uint32_t* map,
                         const std::uint32_t* row, std::size_t count,
                         std::uint32_t* out);

// Copies count u32 values (the delta-merge untouched-row fast path).
void CopyU32(const std::uint32_t* src, std::size_t count, std::uint32_t* dst);

}  // namespace rejecto::util::simd
