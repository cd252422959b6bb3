// Streaming synthetic graph → RJSNAP02 writer (no in-RAM graph).
//
// The 100M-edge out-of-core benchmarks need a snapshot far larger than the
// harness is allowed to materialize, so this generator streams rows
// straight into graph::CompressedSnapshotWriter: friendships and rejections
// are forward "stubs" u → u + δ with δ ∈ [1, locality_window] drawn from a
// splitmix-style hash of (seed, u, stub) — fully deterministic, and the
// bounded forward distance both caps the generator's memory (a δ-sized
// ring of pending back-edges) and keeps neighbor ids near-sequential,
// which is the regime the delta+varint blocks compress best in. Peak
// generator memory is O(locality_window × stubs), independent of node
// count.
#pragma once

#include <cstdint>
#include <string>

#include "graph/types.h"

namespace rejecto::gen {

struct StreamSnapshotConfig {
  graph::NodeId num_nodes = 0;

  // Forward friendship stubs per node; each surviving stub is one
  // undirected edge, so the average friendship degree is ~2× this (tail
  // nodes and duplicate draws lose a few stubs).
  int friendship_stubs = 8;

  // Forward rejection stubs per node (directed u → u + δ arcs).
  int rejection_stubs = 2;

  // Maximum forward distance of a stub (δ ∈ [1, locality_window]).
  graph::NodeId locality_window = 64;

  std::uint64_t seed = 1;
  std::uint32_t block_rows = 128;  // RJSNAP02 block span, clamped [64, 256]
};

struct StreamSnapshotStats {
  std::uint64_t num_edges = 0;  // friendship edges written
  std::uint64_t num_arcs = 0;   // rejection arcs written
  std::uint64_t file_bytes = 0;
};

// Writes the deterministic synthetic graph for `config` to `path` as an
// RJSNAP02 snapshot, never holding more than the back-edge ring in memory.
// The same config always produces byte-identical files.
StreamSnapshotStats WriteSyntheticCompressedSnapshot(
    const std::string& path, const StreamSnapshotConfig& config);

}  // namespace rejecto::gen
