#include "util/simd.h"

#include <immintrin.h>

#include <atomic>
#include <cstring>

#include "util/flags.h"

namespace rejecto::util::simd {

namespace {

// 0 unresolved, otherwise 1 + static_cast<int>(SimdMode).
std::atomic<int> g_mode{0};

// "avx2" differs from "auto" only in intent: both fall back to scalar on a
// CPU without AVX2.
SimdMode ResolveMode() {
  return RequestedSimd() != SimdRequest::kScalar && Avx2Supported()
             ? SimdMode::kAvx2
             : SimdMode::kScalar;
}

std::size_t CountZeroAtScalar(const unsigned char* mask,
                              const std::uint32_t* idx, std::size_t count) {
  std::size_t zeros = 0;
  for (std::size_t i = 0; i < count; ++i) {
    zeros += mask[idx[i]] == 0;
  }
  return zeros;
}

std::size_t FilterMapRowScalar(const unsigned char* keep,
                               const std::uint32_t* map,
                               const std::uint32_t* row, std::size_t count,
                               std::uint32_t* out) {
  std::size_t written = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint32_t v = row[i];
    if (keep[v] != 0) out[written++] = map[v];
  }
  return written;
}

#if defined(__x86_64__) || defined(__i386__)

// Left-pack permutation table: row m lists the set-bit lanes of m in order.
struct CompressLut {
  alignas(32) std::uint32_t perm[256][8];
  CompressLut() {
    for (int m = 0; m < 256; ++m) {
      int k = 0;
      for (int b = 0; b < 8; ++b) {
        if ((m >> b) & 1) perm[m][k++] = static_cast<std::uint32_t>(b);
      }
      for (; k < 8; ++k) perm[m][k] = 0;
    }
  }
};

// Store masks for maskstore: row c enables the first c lanes.
struct StoreLut {
  alignas(32) std::uint32_t lanes[9][8];
  StoreLut() {
    for (int c = 0; c <= 8; ++c) {
      for (int j = 0; j < 8; ++j) {
        lanes[c][j] = j < c ? 0xFFFFFFFFu : 0u;
      }
    }
  }
};

const CompressLut& Compress() {
  static const CompressLut lut;
  return lut;
}

const StoreLut& StoreMasks() {
  static const StoreLut lut;
  return lut;
}

__attribute__((target("avx2,popcnt"))) std::size_t CountZeroAtAvx2(
    const unsigned char* mask, const std::uint32_t* idx, std::size_t count) {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i low_byte = _mm256_set1_epi32(0xFF);
  std::size_t zeros = 0;
  std::size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const __m256i vidx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx + i));
    // Scale-1 gather: 4-byte load at mask + idx[lane]; the 3 high bytes are
    // slack reads covered by the AlignedVector padding contract.
    __m256i bytes = _mm256_i32gather_epi32(
        reinterpret_cast<const int*>(mask), vidx, 1);
    bytes = _mm256_and_si256(bytes, low_byte);
    const __m256i is_zero = _mm256_cmpeq_epi32(bytes, zero);
    zeros += static_cast<unsigned>(__builtin_popcount(static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_castsi256_ps(is_zero)))));
  }
  for (; i < count; ++i) {
    zeros += mask[idx[i]] == 0;
  }
  return zeros;
}

__attribute__((target("avx2,popcnt"))) std::size_t FilterMapRowAvx2(
    const unsigned char* keep, const std::uint32_t* map,
    const std::uint32_t* row, std::size_t count, std::uint32_t* out) {
  const CompressLut& compress = Compress();
  const StoreLut& stores = StoreMasks();
  const __m256i zero = _mm256_setzero_si256();
  const __m256i low_byte = _mm256_set1_epi32(0xFF);
  std::size_t written = 0;
  std::size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const __m256i vrow =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + i));
    __m256i kept = _mm256_i32gather_epi32(
        reinterpret_cast<const int*>(keep), vrow, 1);
    kept = _mm256_and_si256(kept, low_byte);
    const unsigned drop_bits = static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(kept, zero))));
    const unsigned keep_bits = ~drop_bits & 0xFFu;
    if (keep_bits == 0) continue;
    const __m256i mapped = _mm256_i32gather_epi32(
        reinterpret_cast<const int*>(map), vrow, 4);
    const __m256i perm = _mm256_load_si256(
        reinterpret_cast<const __m256i*>(compress.perm[keep_bits]));
    const __m256i packed = _mm256_permutevar8x32_epi32(mapped, perm);
    const int lanes = __builtin_popcount(keep_bits);
    // Masked store: never writes past the kept lanes, so concurrent fills of
    // adjacent output rows cannot race on out-of-row bytes.
    _mm256_maskstore_epi32(
        reinterpret_cast<int*>(out + written),
        _mm256_load_si256(reinterpret_cast<const __m256i*>(stores.lanes[lanes])),
        packed);
    written += static_cast<std::size_t>(lanes);
  }
  for (; i < count; ++i) {
    const std::uint32_t v = row[i];
    if (keep[v] != 0) out[written++] = map[v];
  }
  return written;
}

__attribute__((target("avx2"))) void CopyU32Avx2(const std::uint32_t* src,
                                                std::size_t count,
                                                std::uint32_t* dst) {
  std::size_t i = 0;
  for (; i + 16 <= count; i += 16) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i + 8));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), a);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i + 8), b);
  }
  if (i < count) std::memcpy(dst + i, src + i, (count - i) * sizeof(*src));
}

#endif  // x86

}  // namespace

bool Avx2Supported() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

SimdMode ActiveMode() {
  int packed = g_mode.load(std::memory_order_relaxed);
  if (packed == 0) {
    packed = 1 + static_cast<int>(ResolveMode());
    g_mode.store(packed, std::memory_order_relaxed);
  }
  return static_cast<SimdMode>(packed - 1);
}

void SetModeForTest(SimdMode mode) {
  if (mode == SimdMode::kAvx2 && !Avx2Supported()) mode = SimdMode::kScalar;
  g_mode.store(1 + static_cast<int>(mode), std::memory_order_relaxed);
}

const char* ModeName(SimdMode mode) {
  return mode == SimdMode::kAvx2 ? "avx2" : "scalar";
}

std::size_t CountZeroAt(const unsigned char* mask, const std::uint32_t* idx,
                        std::size_t count) {
#if defined(__x86_64__) || defined(__i386__)
  if (ActiveMode() == SimdMode::kAvx2) {
    return CountZeroAtAvx2(mask, idx, count);
  }
#endif
  return CountZeroAtScalar(mask, idx, count);
}

std::size_t FilterMapRow(const unsigned char* keep, const std::uint32_t* map,
                         const std::uint32_t* row, std::size_t count,
                         std::uint32_t* out) {
#if defined(__x86_64__) || defined(__i386__)
  if (ActiveMode() == SimdMode::kAvx2) {
    return FilterMapRowAvx2(keep, map, row, count, out);
  }
#endif
  return FilterMapRowScalar(keep, map, row, count, out);
}

void CopyU32(const std::uint32_t* src, std::size_t count, std::uint32_t* dst) {
#if defined(__x86_64__) || defined(__i386__)
  if (ActiveMode() == SimdMode::kAvx2) {
    CopyU32Avx2(src, count, dst);
    return;
  }
#endif
  // An empty row may come with null pointers, which memcpy must not get.
  if (count != 0) std::memcpy(dst, src, count * sizeof(*src));
}

}  // namespace rejecto::util::simd
