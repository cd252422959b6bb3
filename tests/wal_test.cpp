// Crash-safety tests for the binary WAL and checkpoints (stream/wal.h):
// round trips, segment rotation, injected torn writes, the
// truncate-at-every-byte-offset recovery property, checkpoint atomicity
// under injected failures, and the EpochDetector checkpoint + WAL-tail
// recovery differential (a crashed-and-recovered detector is bit-identical
// to one that never crashed).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "engine/epoch_detector.h"
#include "gen/erdos_renyi.h"
#include "sim/scenario.h"
#include "sim/stream_feed.h"
#include "stream/delta_graph.h"
#include "stream/mutation_log.h"
#include "stream/wal.h"
#include "util/failpoint.h"
#include "util/rng.h"

namespace rejecto::stream {
namespace {

std::string TempBase(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// Removes every segment of a WAL base so tests never see a predecessor's
// files (TempDir is shared across the binary's tests).
void RemoveWal(const std::string& base) {
  for (std::uint32_t seg = 1; seg < 100; ++seg) {
    char suffix[16];
    std::snprintf(suffix, sizeof(suffix), ".%06u.wal", seg);
    std::remove((base + suffix).c_str());
  }
}

std::vector<unsigned char> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void WriteFileBytes(const std::string& path,
                    const std::vector<unsigned char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

std::vector<Event> SmallEventSequence() {
  return {
      {EventType::kAddFriend, 0, 1}, {EventType::kAccept, 2, 3},
      {EventType::kReject, 4, 5},    {EventType::kRemoveNode, 1, 0},
      {EventType::kAddFriend, 1, 6}, {EventType::kAccept, 0, 2},
      {EventType::kReject, 3, 6},    {EventType::kAddFriend, 5, 2},
  };
}

// ---------- WalWriter / RecoverWal ----------

TEST(WalTest, RoundTripsEventsAndGrowMarker) {
  const std::string base = TempBase("wal_roundtrip");
  RemoveWal(base);
  const auto events = SmallEventSequence();
  {
    WalWriter wal(base);
    for (const Event& e : events) wal.Append(e);
    wal.AppendGrowTo(32);
    wal.Close();
    EXPECT_EQ(wal.NumAppended(), events.size() + 1);
  }
  const WalRecoverResult rec = RecoverWal(base);
  EXPECT_TRUE(rec.clean);
  EXPECT_EQ(rec.segments_scanned, 1u);
  EXPECT_EQ(rec.valid_records, events.size() + 1);
  EXPECT_EQ(rec.truncated_bytes, 0u);
  ASSERT_EQ(rec.events.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(rec.events[i], events[i]) << "event " << i;
  }
  const MutationLog log = rec.BuildLog();
  EXPECT_EQ(log.NumNodes(), 32u);
  RemoveWal(base);
}

TEST(WalTest, MissingWalRecoversEmptyAndClean) {
  const std::string base = TempBase("wal_missing");
  RemoveWal(base);
  const WalRecoverResult rec = RecoverWal(base);
  EXPECT_TRUE(rec.clean);
  EXPECT_EQ(rec.segments_scanned, 0u);
  EXPECT_TRUE(rec.events.empty());
}

TEST(WalTest, RejectsInvalidEvents) {
  const std::string base = TempBase("wal_invalid");
  RemoveWal(base);
  WalWriter wal(base);
  EXPECT_THROW(wal.Append({EventType::kAccept, 1, 1}), std::invalid_argument);
  EXPECT_THROW(wal.Append({EventType::kAccept, graph::kInvalidNode, 0}),
               std::invalid_argument);
  EXPECT_EQ(wal.NumAppended(), 0u);
  wal.Close();
  RemoveWal(base);
}

TEST(WalTest, RotatesSegmentsAndRestartsPastThem) {
  const std::string base = TempBase("wal_rotate");
  RemoveWal(base);
  const auto events = SmallEventSequence();
  // Tiny cap: 8-byte magic + one 17-byte record exceeds it, so every
  // append rotates — one record per segment.
  {
    WalWriter wal(base, {.max_segment_bytes = 16});
    for (const Event& e : events) wal.Append(e);
    wal.Close();
    EXPECT_GT(wal.SegmentIndex(), 1u);
  }
  const WalRecoverResult rec = RecoverWal(base);
  EXPECT_TRUE(rec.clean);
  EXPECT_GT(rec.segments_scanned, 1u);
  ASSERT_EQ(rec.events.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(rec.events[i], events[i]) << "event " << i;
  }
  // A restarted writer opens a fresh segment after the highest existing
  // one and never touches the old tail.
  WalWriter restarted(base);
  EXPECT_GT(restarted.SegmentIndex(), rec.segments_scanned);
  restarted.Append(events[0]);
  restarted.Close();
  const WalRecoverResult rec2 = RecoverWal(base);
  EXPECT_EQ(rec2.events.size(), events.size() + 1);
  RemoveWal(base);
}

TEST(WalTest, TornWriteFailpointBreaksWriterAndRecoveryDropsTail) {
  const std::string base = TempBase("wal_torn");
  RemoveWal(base);
  const auto events = SmallEventSequence();
  {
    WalWriter wal(base);
    util::ScopedFailpoint torn("wal/append_write",
                               util::FailpointPolicy::OnNth(4));
    std::size_t acked = 0;
    try {
      for (const Event& e : events) {
        wal.Append(e);
        ++acked;
      }
      FAIL() << "injected torn write did not surface";
    } catch (const std::runtime_error&) {
    }
    EXPECT_EQ(acked, 3u);
    // The writer is broken: the file tail past the last ack is undefined.
    EXPECT_THROW(wal.Append(events[0]), std::runtime_error);
  }
  const WalRecoverResult rec = RecoverWal(base);
  EXPECT_FALSE(rec.clean);
  EXPECT_GT(rec.truncated_bytes, 0u);
  ASSERT_EQ(rec.events.size(), 3u) << "exactly the acked prefix";
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(rec.events[i], events[i]);
  RemoveWal(base);
}

TEST(WalTest, SyncFailpointBreaksWriter) {
  const std::string base = TempBase("wal_syncfail");
  RemoveWal(base);
  WalWriter wal(base);
  wal.Append(SmallEventSequence()[0]);
  util::ScopedFailpoint fail("wal/sync", util::FailpointPolicy::OnNth(1));
  EXPECT_THROW(wal.Sync(), std::runtime_error);
  EXPECT_THROW(wal.Append(SmallEventSequence()[1]), std::runtime_error);
  RemoveWal(base);
}

// ---------- Torn-write recovery property ----------

// Truncating the segment at EVERY byte offset must (a) never throw,
// (b) recover a strict prefix of the appended events, and (c) replaying
// that prefix through DeltaGraph + compaction must equal batch-building
// the same prefix — the WAL's core crash-safety contract.
TEST(WalPropertyTest, TruncationAtEveryByteOffsetRecoversAValidPrefix) {
  const std::string base = TempBase("wal_truncate_prop");
  RemoveWal(base);
  util::Rng rng(97);
  std::vector<Event> events;
  for (int i = 0; i < 30; ++i) {
    const auto u = static_cast<graph::NodeId>(rng.NextUInt(24));
    const auto v = static_cast<graph::NodeId>(rng.NextUInt(24));
    switch (rng.NextUInt(8)) {
      case 0:
        events.push_back({EventType::kRemoveNode, u, 0});
        break;
      case 1:
      case 2:
        if (u == v) continue;
        events.push_back({EventType::kReject, u, v});
        break;
      default:
        if (u == v) continue;
        events.push_back({EventType::kAddFriend, u, v});
        break;
    }
  }
  {
    WalWriter wal(base);
    for (const Event& e : events) wal.Append(e);
    wal.Close();
  }
  const std::string segment = base + ".000001.wal";
  const std::vector<unsigned char> bytes = ReadFileBytes(segment);
  ASSERT_EQ(bytes.size(), 8 + 17 * events.size());

  const std::string truncated = TempBase("wal_truncate_prop_cut.000001.wal");
  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    WriteFileBytes(truncated,
                   {bytes.begin(), bytes.begin() + static_cast<long>(cut)});
    WalRecoverResult rec;
    ASSERT_NO_THROW(rec = RecoverWalSegment(truncated)) << "cut=" << cut;
    // Exactly the records fully present and intact survive.
    const std::size_t expect_events = cut < 8 ? 0 : (cut - 8) / 17;
    ASSERT_EQ(rec.events.size(), expect_events) << "cut=" << cut;
    // A cut on a record boundary is indistinguishable from a short-but-
    // complete log; anything else must be flagged as truncated.
    EXPECT_EQ(rec.clean, cut >= 8 && (cut - 8) % 17 == 0) << "cut=" << cut;
    for (std::size_t i = 0; i < expect_events; ++i) {
      ASSERT_EQ(rec.events[i], events[i]) << "cut=" << cut << " event " << i;
    }
    // Replay + compact == batch build of the recovered prefix.
    MutationLog prefix_log;
    for (std::size_t i = 0; i < expect_events; ++i) {
      prefix_log.Append(events[i]);
    }
    const MutationLog replayed = rec.BuildLog();
    ASSERT_EQ(replayed.NumEvents(), prefix_log.NumEvents());
    DeltaGraph d(replayed.NumNodes());
    d.ApplyAll(replayed.Events());
    d.Compact();
    EXPECT_EQ(d.Graph(), prefix_log.BuildAugmentedGraph()) << "cut=" << cut;
  }
  std::remove(truncated.c_str());
  RemoveWal(base);
}

TEST(WalPropertyTest, CorruptedByteTruncatesFromThatRecord) {
  const std::string base = TempBase("wal_corrupt");
  RemoveWal(base);
  const auto events = SmallEventSequence();
  {
    WalWriter wal(base);
    for (const Event& e : events) wal.Append(e);
    wal.Close();
  }
  const std::string segment = base + ".000001.wal";
  const std::vector<unsigned char> bytes = ReadFileBytes(segment);
  // Flip one payload byte in record k: CRC catches it; records 0..k-1
  // survive, everything from k on is discarded.
  for (std::size_t k = 0; k < events.size(); ++k) {
    auto corrupted = bytes;
    corrupted[8 + 17 * k + 8] ^= 0x40;  // first payload byte of record k
    WriteFileBytes(segment, corrupted);
    const WalRecoverResult rec = RecoverWal(base);
    EXPECT_FALSE(rec.clean) << "k=" << k;
    ASSERT_EQ(rec.events.size(), k) << "k=" << k;
    for (std::size_t i = 0; i < k; ++i) EXPECT_EQ(rec.events[i], events[i]);
    EXPECT_GT(rec.truncated_bytes, 0u);
  }
  RemoveWal(base);
}

TEST(WalPropertyTest, CorruptionAbandonsLaterSegments) {
  const std::string base = TempBase("wal_multi_corrupt");
  RemoveWal(base);
  const auto events = SmallEventSequence();
  {
    WalWriter wal(base, {.max_segment_bytes = 16});  // one record/segment
    for (const Event& e : events) wal.Append(e);
    wal.Close();
  }
  // Corrupt segment 3's record: recovery keeps segments 1-2, discards 3
  // and every later segment (their events were acked after the hole).
  const std::string seg3 = base + ".000003.wal";
  auto bytes = ReadFileBytes(seg3);
  bytes[8 + 8] ^= 0x01;
  WriteFileBytes(seg3, bytes);
  const WalRecoverResult rec = RecoverWal(base);
  EXPECT_FALSE(rec.clean);
  ASSERT_EQ(rec.events.size(), 2u);
  EXPECT_EQ(rec.events[0], events[0]);
  EXPECT_EQ(rec.events[1], events[1]);
  EXPECT_GT(rec.truncated_bytes,
            17u * (events.size() - 3));  // later segments charged too
  RemoveWal(base);
}

// ---------- Checkpoints ----------

TEST(CheckpointTest, DeltaGraphRoundTrips) {
  const std::string path = TempBase("ckpt_roundtrip.bin");
  MutationLog log(16);
  for (const Event& e : SmallEventSequence()) log.Append(e);
  DeltaGraph d(log.NumNodes());
  d.ApplyAll(log.Events());
  CheckpointDeltaGraph(d, path);
  const DeltaGraph restored = RestoreDeltaGraph(path);
  EXPECT_EQ(restored.Graph(), log.BuildAugmentedGraph());
  EXPECT_EQ(restored.NumNodes(), d.NumNodes());
  std::remove(path.c_str());
}

TEST(CheckpointTest, MissingTruncatedOrCorruptCheckpointThrows) {
  const std::string path = TempBase("ckpt_corrupt.bin");
  std::remove(path.c_str());
  EXPECT_THROW(RestoreDeltaGraph(path), std::runtime_error);

  MutationLog log(8);
  log.Append({EventType::kAddFriend, 0, 1});
  log.Append({EventType::kReject, 2, 3});
  DeltaGraph d(log.NumNodes());
  d.ApplyAll(log.Events());
  CheckpointDeltaGraph(d, path);

  const std::vector<unsigned char> good = ReadFileBytes(path);
  for (std::size_t cut : {std::size_t{0}, std::size_t{7}, good.size() / 2,
                          good.size() - 1}) {
    WriteFileBytes(path, {good.begin(), good.begin() + static_cast<long>(cut)});
    EXPECT_THROW(RestoreDeltaGraph(path), std::runtime_error) << "cut=" << cut;
  }
  auto corrupt = good;
  corrupt[corrupt.size() / 2] ^= 0x10;
  WriteFileBytes(path, corrupt);
  EXPECT_THROW(RestoreDeltaGraph(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(CheckpointTest, FailedSaveLeavesPreviousCheckpointIntact) {
  const std::string path = TempBase("ckpt_atomic.bin");
  MutationLog log(8);
  log.Append({EventType::kAddFriend, 0, 1});
  DeltaGraph d(log.NumNodes());
  d.ApplyAll(log.Events());
  CheckpointDeltaGraph(d, path);

  d.Apply({EventType::kAddFriend, 2, 3});
  {
    util::ScopedFailpoint fail("snapshot/write",
                               util::FailpointPolicy::OnNth(1));
    EXPECT_THROW(CheckpointDeltaGraph(d, path), std::runtime_error);
  }
  {
    util::ScopedFailpoint fail("snapshot/rename",
                               util::FailpointPolicy::OnNth(1));
    EXPECT_THROW(CheckpointDeltaGraph(d, path), std::runtime_error);
  }
  // Both failures happen before the atomic publish: the old checkpoint
  // still loads, and no .tmp litter remains.
  const DeltaGraph restored = RestoreDeltaGraph(path);
  EXPECT_EQ(restored.Graph(), log.BuildAugmentedGraph());
  std::FILE* tmp = std::fopen((path + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr);
  if (tmp != nullptr) std::fclose(tmp);
  std::remove(path.c_str());
}

// ---------- EpochDetector checkpoint + WAL-tail recovery ----------

// A detector that crashes after a checkpoint and recovers by restoring it
// and replaying the WAL tail past EventsIngested() must be bit-identical —
// graph, warm-start state, detections, epoch numbering — to a detector
// that never crashed. Warm starts are ON so the checkpointed round-0 mask
// and k actually influence the post-recovery epoch.
TEST(CheckpointTest, EpochDetectorRecoversBitIdenticalFromWalTail) {
  const std::string wal_base = TempBase("epoch_wal");
  const std::string ckpt = TempBase("epoch_ckpt.bin");
  RemoveWal(wal_base);

  util::Rng rng(411);
  const auto legit = gen::ErdosRenyi({.num_nodes = 300, .num_edges = 1200}, rng);
  sim::ScenarioConfig scfg;
  scfg.seed = 11;
  scfg.num_fakes = 60;
  const auto scenario = sim::BuildScenario(legit, scfg);
  util::Rng seed_rng(12);
  const auto seeds = scenario.SampleSeeds(12, 4, seed_rng);
  sim::ChurnConfig churn;
  churn.seed = 13;
  const MutationLog log = sim::GenerateChurnLog(scenario.log, churn);

  // Durable ingestion: every event is WAL-logged (and acked) before the
  // detector absorbs it.
  {
    WalWriter wal(wal_base, {.sync_every_n = 64});
    for (const Event& e : log.Events()) wal.Append(e);
    wal.AppendGrowTo(log.NumNodes());
    wal.Close();
  }

  engine::EpochConfig ecfg;
  ecfg.detect.target_detections = scfg.num_fakes;
  ecfg.detect.maar.seed = 23;
  ecfg.warm_start = true;
  ecfg.events_per_epoch = 0;  // epochs run explicitly below

  const std::size_t split = log.NumEvents() * 3 / 5;

  // Reference run: no crash.
  engine::EpochDetector ref(log.NumNodes(), seeds, ecfg);
  ref.IngestAll(log.Events().subspan(0, split));
  ref.RunEpoch();
  ref.IngestAll(log.Events().subspan(split));
  ref.RunEpoch();

  // Crashing run: ingest the head, run an epoch, checkpoint... crash.
  {
    engine::EpochDetector victim(log.NumNodes(), seeds, ecfg);
    victim.IngestAll(log.Events().subspan(0, split));
    victim.RunEpoch();
    victim.SaveCheckpoint(ckpt);
    EXPECT_EQ(victim.EventsIngested(), split);
  }  // the "crash": victim is gone, only ckpt + WAL survive

  // Recovery: restore the checkpoint, replay the WAL tail past the cursor.
  auto recovered = engine::EpochDetector::RestoreCheckpoint(ckpt, seeds, ecfg);
  EXPECT_EQ(recovered->EventsIngested(), split);
  const WalRecoverResult rec = RecoverWal(wal_base);
  ASSERT_TRUE(rec.clean);
  ASSERT_EQ(rec.events.size(), log.NumEvents());
  recovered->IngestAll(
      std::span<const Event>(rec.events).subspan(recovered->EventsIngested()));
  recovered->RunEpoch();

  EXPECT_EQ(recovered->Graph().Graph(), ref.Graph().Graph());
  EXPECT_EQ(recovered->LastResult().detected, ref.LastResult().detected);
  ASSERT_EQ(recovered->LastResult().rounds.size(),
            ref.LastResult().rounds.size());
  for (std::size_t r = 0; r < ref.LastResult().rounds.size(); ++r) {
    EXPECT_EQ(recovered->LastResult().rounds[r].detected,
              ref.LastResult().rounds[r].detected);
    EXPECT_EQ(recovered->LastResult().rounds[r].ratio,
              ref.LastResult().rounds[r].ratio);
    EXPECT_EQ(recovered->LastResult().rounds[r].k,
              ref.LastResult().rounds[r].k);
  }
  // History only holds post-restore epochs, but numbering continues.
  ASSERT_EQ(recovered->History().size(), 1u);
  EXPECT_EQ(recovered->History().back().epoch, ref.History().back().epoch);
  EXPECT_EQ(recovered->History().back().warm_started,
            ref.History().back().warm_started);
  EXPECT_TRUE(recovered->History().back().warm_started);
  EXPECT_EQ(recovered->EventsIngested(), ref.EventsIngested());

  std::remove(ckpt.c_str());
  RemoveWal(wal_base);
}

// A zero segment size is refused before the writer probes or creates a
// segment; the smallest accepted size still rotates after every record
// (RotatesSegmentsAndRestartsPastThem).
TEST(WalTest, RefusesAZeroSegmentSizeBeforeCreatingAFile) {
  const std::string base = TempBase("wal_zero_segment");
  RemoveWal(base);
  EXPECT_THROW(WalWriter(base, {.max_segment_bytes = 0}),
               std::invalid_argument);
  EXPECT_EQ(std::fopen((base + ".000001.wal").c_str(), "rb"), nullptr);
  WalWriter one_byte(base, {.max_segment_bytes = 1});
  one_byte.Append(SmallEventSequence().front());
  one_byte.Close();
  EXPECT_EQ(RecoverWal(base).events.size(), 1u);
  RemoveWal(base);
}

}  // namespace
}  // namespace rejecto::stream
