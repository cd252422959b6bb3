// Versioned binary snapshots of an AugmentedGraph.
//
// Text edge lists are the interchange format; they are also two orders of
// magnitude slower to load than the graph is to *use* (parse, intern,
// dedup, sort, mirror). Snapshots are the other end of the trade. The tree
// writes one format and reads two:
//
//   RJSNAP02 (written) — delta+varint compressed adjacency in fixed-span
//   blocks (64–256 rows) behind a per-CSR block index, each block carrying
//   its own CRC32C. About 45–60% of the raw u32 adjacency bytes on the
//   attack scenarios (generator ids or shuffled ids).
//   graph/compressed_view.h opens it in place and decodes it block by
//   block (CompressedGraphView::Materialize); LoadSnapshot on a v2 file is
//   that decode, in parallel when the caller passes a pool and on the
//   calling thread otherwise.
//
//   RJSNAP01 (read only) — the three CSRs exactly as they sat in memory:
//   little-endian u64 offset arrays and u32 adjacency arrays. Files written
//   by earlier builds still load; nothing writes them any more.
//
// Shared container layout (graph/snapshot_format.h): magic, section count,
// table CRC32C, a 24-byte-per-entry section table, then 64-byte-aligned
// sections each carrying a CRC32C — except the v2 compressed blob sections,
// whose integrity lives per block in the index so opening never pages the
// adjacency in. The zero padding between sections is checked too, and no
// byte may follow the last section, so every byte of a file is covered by
// a check. The loader distinguishes a *truncated* file (section runs past
// EOF) from *corrupt bytes* (CRC mismatch) and names the offending section
// in either case.
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
//
// Optional permutation section: a caller that stored the CSRs under
// relabelled ids may pass the permutation to SaveSnapshot, and the loaders
// hand it back (Snapshot::layout, CompressedGraphView::StoredLayout) after
// checking it is a bijection. Nothing in the tree relabels ids; the section
// stays readable so files written with one still open.
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

// The permutation section's record: a bijection between original ids and
// stored ids. Either both arrays are empty (identity) or both have size n
// and are mutual inverses.
struct Layout {
  std::vector<NodeId> new_of_old;  // original id -> stored id
  std::vector<NodeId> old_of_new;  // stored id -> original id

  bool IsIdentity() const noexcept { return new_of_old.empty(); }

  friend bool operator==(const Layout&, const Layout&) = default;
};

// Builds a Layout from an explicit old->new permutation; validates that it
// is a bijection on [0, n) and derives the inverse.
Layout LayoutFromPermutation(std::vector<NodeId> new_of_old);

// A loaded snapshot: the graph in its stored id space plus the layout
// mapping those ids back to original ids. A snapshot without a permutation
// section loads with the empty (identity) Layout; one without a state
// section (every RJSNAP01 file) loads with an empty state.
struct Snapshot {
  AugmentedGraph graph;
  Layout layout;
  // `= {}` keeps two-field aggregate init ({graph, layout}) warning-free.
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

// Writes g (already in `layout`'s stored id space — pass the
// default-constructed identity Layout to write no permutation) to `path`
// as RJSNAP02, atomically via tmp + rename. A non-empty `state` is stored
// in a state section; an empty one writes none. Throws std::runtime_error
// on any IO failure, leaving no partial file behind.
// Precondition: layout is empty or sized to g.NumNodes().
void SaveSnapshot(const std::string& path, const AugmentedGraph& g,
                  const Layout& layout = Layout{},
                  const SnapshotOptions& options = SnapshotOptions{},
                  std::span<const unsigned char> state = {});

// Reads a snapshot of either version back into RAM, dispatching on the
// magic (RJSNAP02 files decode every block via graph/compressed_view.h,
// on `pool` when one is given; use CompressedGraphView directly to stay out
// of core). The result does not depend on the pool. Every validation
// error — bad magic, truncation, CRC mismatch, inconsistent section
// lengths, non-bijective permutation — throws std::runtime_error naming
// the file, the section and the byte offset of the problem.
Snapshot LoadSnapshot(const std::string& path,
                      util::ThreadPool* pool = nullptr);

}  // namespace rejecto::graph
