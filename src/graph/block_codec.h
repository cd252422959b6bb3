// Delta+varint block codec for RJSNAP02 compressed adjacency sections.
//
// A block covers a fixed span of consecutive CSR rows (the snapshot's
// block_rows, 64–256; the file's last block may be short). Wire layout:
//
//   for each row r in the block:   varint32  degree(r)
//   for each row r in the block:   payload(r)
// where payload(r) of a non-empty row is
//   svarint64  zigzag(first_neighbor − r)     (signed: a row's first
//                                              neighbor may precede the row)
//   varint32   gap − 1, × (degree − 1)        (gaps between consecutive
//                                              sorted neighbors, ≥ 1)
//
// Degrees lead as their own run so a decoder knows every row boundary —
// and the total adjacency size — before touching the payload stream. The
// codec is deterministic (byte-identical for identical rows) and exact:
// decode(encode(rows)) == rows for every sorted duplicate-free input.
//
// Decode dispatches through util::simd::ActiveMode() (REJECTO_SIMD): the
// AVX2 path batch-widens 32-byte chunks of single-byte varints (gaps
// < 128) and falls back to the scalar stepper at any continuation byte.
// Both paths produce bit-identical rows (exact integers, no reassociation).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/types.h"
#include "util/buffer.h"

namespace rejecto::graph {

// Appends the encoded block to `out`. `degrees[i]` is the degree of row
// (first_row + i); `adj` holds the rows' neighbors back to back. Throws
// std::invalid_argument when a row is not strictly increasing (unsorted or
// duplicate neighbors) or the block's total entries overflow the u32
// per-block row-offset space.
void EncodeAdjBlock(NodeId first_row, std::span<const std::uint32_t> degrees,
                    const NodeId* adj, std::vector<unsigned char>& out);

// Decodes a block of `rows` rows starting at row id `first_row` from the
// `len` bytes at `p`. On success fills `row_offsets` (rows + 1 entries,
// block-local) and `adj` (row_offsets.back() entries) and returns true; on
// malformed input returns false with a diagnostic in *error (when non-null)
// and unspecified buffer contents. Exactly `len` bytes must be consumed —
// trailing garbage is malformed. The output vectors are reusable scratch:
// capacity is retained across calls.
bool DecodeAdjBlock(const unsigned char* p, std::size_t len, NodeId first_row,
                    std::uint32_t rows,
                    util::AlignedVector<std::uint32_t>& row_offsets,
                    util::AlignedVector<NodeId>& adj, std::string* error);

}  // namespace rejecto::graph
