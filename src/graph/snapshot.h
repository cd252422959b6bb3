// Binary snapshots of an AugmentedGraph.
//
// Text edge lists are the interchange format; they are also two orders of
// magnitude slower to load than the graph is to *use* (parse, intern,
// dedup, sort, mirror). Snapshots are the other end of the trade. The tree
// writes and reads one format, RJSNAP02: delta+varint compressed adjacency
// in fixed-span blocks (64–256 rows) behind a per-CSR block index, each
// block carrying its own CRC32C. About 45–60% of the raw u32 adjacency
// bytes on the attack scenarios (generator ids or shuffled ids).
// graph/compressed_view.h opens it in place and decodes it block by block;
// LoadSnapshot is CompressedGraphView::Open + Materialize, in parallel when
// the caller passes a pool and on the calling thread otherwise. A file of
// the retired raw-CSR format fails on its magic; re-save it from the text
// edge list (examples/make_snapshot).
//
// Container layout (graph/snapshot_format.h): magic, section count, table
// CRC32C, a 24-byte-per-entry section table, then 64-byte-aligned sections
// each carrying a CRC32C — except the compressed blob sections, whose
// integrity lives per block in the index so opening never pages the
// adjacency in. The zero padding between sections is checked too, and no
// byte may follow the last section, so every byte of a file is covered by
// a check. The loader distinguishes a *truncated* file (section runs past
// EOF) from *corrupt bytes* (CRC mismatch) and names the offending section
// in either case. It also refuses what it does not read: a non-zero meta
// flags word or a section kind it does not know (the retired permutation
// section among them), so no file loads with part of it ignored.
//
// Durability: the writer produces `path + ".tmp"`, fsyncs, then renames —
// a crash leaves either the old snapshot or the new one, never a torn
// file. Failpoint sites: "snapshot/write" and "snapshot/rename" on save;
// "snapshot/open" (open fails) and "snapshot/map" (mmap fails, exercising
// the std::ifstream fallback) on load.
//
// Optional state section: a caller may pass opaque bytes to SaveSnapshot,
// stored under their own CRC and handed back in Snapshot::state. The
// epoch detector's checkpoints are snapshots with a state section
// (engine/epoch_detector.h); plain snapshots carry none.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/augmented_graph.h"
#include "graph/types.h"

namespace rejecto::util {
class ThreadPool;
}  // namespace rejecto::util

namespace rejecto::graph {

// Empty tag the end-to-end benchmark passes; its next change deletes it.
struct Layout {};

// A loaded snapshot: the graph plus the state section's bytes (empty when
// the file has none).
struct Snapshot {
  AugmentedGraph graph;
  // `= {}` keeps one-field aggregate init ({graph}) warning-free.
  std::vector<unsigned char> state = {};

  friend bool operator==(const Snapshot&, const Snapshot&) = default;
};

// One value: RJSNAP02 is the only written format. The enum and
// SnapshotOptions::format remain only because the end-to-end benchmark
// sources set them; both go with the next change to that benchmark.
enum class SnapshotFormat {
  kRjsnap02,  // block-compressed adjacency, per-block CRCs
};

struct SnapshotOptions {
  SnapshotFormat format = SnapshotFormat::kRjsnap02;
  // Rows per compressed block, clamped to [64, 256].
  std::uint32_t block_rows = 128;
};

// Writes g to `path` as RJSNAP02, atomically via tmp + rename. A non-empty
// `state` is stored in a state section; an empty one writes none. Throws
// std::runtime_error on any IO failure, leaving no partial file behind.
void SaveSnapshot(const std::string& path, const AugmentedGraph& g,
                  const Layout& layout = Layout{},
                  const SnapshotOptions& options = SnapshotOptions{},
                  std::span<const unsigned char> state = {});

// Reads a snapshot back into RAM: CompressedGraphView::Open(path)
// .Materialize(pool), decoding every block (on `pool` when one is given;
// use CompressedGraphView directly to stay out of core). The result does
// not depend on the pool. Every validation error — bad magic, truncation,
// CRC mismatch, inconsistent section lengths, a non-zero meta flags word,
// an unknown section kind — throws std::runtime_error naming the file, the
// section and the byte offset of the problem.
Snapshot LoadSnapshot(const std::string& path,
                      util::ThreadPool* pool = nullptr);

}  // namespace rejecto::graph
