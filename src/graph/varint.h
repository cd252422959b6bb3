// LEB128 varint + zigzag primitives for the RJSNAP02 block codec.
//
// Adjacency rows are stored as deltas: rows are sorted, so consecutive
// neighbor ids differ by positive gaps, and a row's first neighbor is
// coded relative to the row's own id — it may sit below it, so the first
// delta is SIGNED and zigzag-mapped (0→0, −1→1, 1→2, −2→3, …) before the
// varint. All subsequent gaps are strictly positive (rows are sorted,
// duplicate-free) and stored as unsigned (gap − 1).
//
// Encoding is standard LEB128: 7 payload bits per byte, continuation bit
// 0x80, little-endian groups. Decoders are bounds-checked against an `end`
// pointer and reject over-long encodings, so a corrupt (or truncated) block
// that slipped past its CRC can never read out of bounds or loop — they
// return nullptr instead of a position.
#pragma once

#include <cstdint>
#include <vector>

namespace rejecto::graph::varint {

inline std::uint64_t ZigZagEncode64(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t ZigZagDecode64(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

inline void PutU32(std::vector<unsigned char>& out, std::uint32_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<unsigned char>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<unsigned char>(v));
}

inline void PutU64(std::vector<unsigned char>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<unsigned char>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<unsigned char>(v));
}

// Decodes one u32 varint from [p, end); stores it in *v and returns the
// position past the last consumed byte, or nullptr when the input is
// truncated or the encoding exceeds 5 bytes / 32 bits.
inline const unsigned char* GetU32(const unsigned char* p,
                                   const unsigned char* end,
                                   std::uint32_t* v) {
  std::uint32_t result = 0;
  for (int shift = 0; shift < 35; shift += 7) {
    if (p == end) return nullptr;
    const unsigned char byte = *p++;
    const std::uint32_t payload = byte & 0x7f;
    if (shift == 28 && payload > 0x0f) return nullptr;  // overflows 32 bits
    result |= payload << shift;
    if ((byte & 0x80) == 0) {
      *v = result;
      return p;
    }
  }
  return nullptr;  // 5 continuation bytes: over-long encoding
}

// u64 counterpart (up to 10 bytes).
inline const unsigned char* GetU64(const unsigned char* p,
                                   const unsigned char* end,
                                   std::uint64_t* v) {
  std::uint64_t result = 0;
  for (int shift = 0; shift < 70; shift += 7) {
    if (p == end) return nullptr;
    const unsigned char byte = *p++;
    const std::uint64_t payload = byte & 0x7f;
    if (shift == 63 && payload > 0x01) return nullptr;  // overflows 64 bits
    result |= payload << shift;
    if ((byte & 0x80) == 0) {
      *v = result;
      return p;
    }
  }
  return nullptr;
}

}  // namespace rejecto::graph::varint
