#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "detect/bucket_list.h"
#include "util/rng.h"

namespace rejecto::detect {
namespace {

TEST(BucketListTest, EmptyInitially) {
  BucketList bl(10, 5.0, 4.0);
  EXPECT_TRUE(bl.Empty());
  EXPECT_EQ(bl.Size(), 0u);
  EXPECT_EQ(bl.MaxGainNode(), graph::kInvalidNode);
  EXPECT_EQ(bl.PopMax(), graph::kInvalidNode);
}

TEST(BucketListTest, InsertContainsPop) {
  BucketList bl(10, 5.0, 4.0);
  bl.Insert(3, 1.0);
  EXPECT_TRUE(bl.Contains(3));
  EXPECT_FALSE(bl.Contains(4));
  EXPECT_EQ(bl.Size(), 1u);
  EXPECT_EQ(bl.PopMax(), 3u);
  EXPECT_TRUE(bl.Empty());
  EXPECT_FALSE(bl.Contains(3));
}

TEST(BucketListTest, PopMaxReturnsHighestGain) {
  BucketList bl(10, 10.0, 4.0);
  bl.Insert(0, -2.0);
  bl.Insert(1, 3.5);
  bl.Insert(2, 1.0);
  EXPECT_EQ(bl.PopMax(), 1u);
  EXPECT_EQ(bl.PopMax(), 2u);
  EXPECT_EQ(bl.PopMax(), 0u);
}

TEST(BucketListTest, NegativeGainsOrdered) {
  BucketList bl(10, 10.0, 4.0);
  bl.Insert(0, -5.0);
  bl.Insert(1, -1.0);
  EXPECT_EQ(bl.PopMax(), 1u);
  EXPECT_EQ(bl.PopMax(), 0u);
}

TEST(BucketListTest, LifoWithinBucket) {
  BucketList bl(10, 5.0, 4.0);
  bl.Insert(1, 2.0);
  bl.Insert(2, 2.0);
  bl.Insert(3, 2.0);
  EXPECT_EQ(bl.PopMax(), 3u);  // last inserted, first out
  EXPECT_EQ(bl.PopMax(), 2u);
  EXPECT_EQ(bl.PopMax(), 1u);
}

TEST(BucketListTest, RemoveMiddleOfBucket) {
  BucketList bl(10, 5.0, 4.0);
  bl.Insert(1, 2.0);
  bl.Insert(2, 2.0);
  bl.Insert(3, 2.0);
  bl.Remove(2);
  EXPECT_EQ(bl.Size(), 2u);
  EXPECT_EQ(bl.PopMax(), 3u);
  EXPECT_EQ(bl.PopMax(), 1u);
}

TEST(BucketListTest, UpdateMovesBuckets) {
  BucketList bl(10, 10.0, 4.0);
  bl.Insert(0, 1.0);
  bl.Insert(1, 2.0);
  bl.Update(0, 5.0);
  EXPECT_EQ(bl.PopMax(), 0u);
  bl.Update(1, -3.0);
  bl.Insert(2, 0.0);
  EXPECT_EQ(bl.PopMax(), 2u);
  EXPECT_EQ(bl.PopMax(), 1u);
}

TEST(BucketListTest, UpdateSameBucketKeepsNode) {
  BucketList bl(10, 10.0, 1.0);  // coarse: resolution 1 bucket per unit
  bl.Insert(0, 2.2);
  bl.Update(0, 2.4);  // same quantized bucket
  EXPECT_TRUE(bl.Contains(0));
  EXPECT_EQ(bl.PopMax(), 0u);
}

TEST(BucketListTest, GainsBeyondBoundClampToEndBuckets) {
  BucketList bl(10, 2.0, 4.0);
  bl.Insert(0, 100.0);   // clamps to +max bucket
  bl.Insert(1, -100.0);  // clamps to -max bucket
  bl.Insert(2, 0.0);
  EXPECT_EQ(bl.PopMax(), 0u);
  EXPECT_EQ(bl.PopMax(), 2u);
  EXPECT_EQ(bl.PopMax(), 1u);
}

TEST(BucketListTest, DoubleInsertThrows) {
  BucketList bl(10, 5.0, 4.0);
  bl.Insert(0, 1.0);
  EXPECT_THROW(bl.Insert(0, 2.0), std::invalid_argument);
}

TEST(BucketListTest, RemoveAbsentThrows) {
  BucketList bl(10, 5.0, 4.0);
  EXPECT_THROW(bl.Remove(0), std::invalid_argument);
  EXPECT_THROW(bl.Update(0, 1.0), std::invalid_argument);
}

TEST(BucketListTest, InvalidConstructionThrows) {
  EXPECT_THROW(BucketList(10, 5.0, 0.0), std::invalid_argument);
  EXPECT_THROW(BucketList(10, -1.0, 4.0), std::invalid_argument);
}

// Bucket indices are int32 addressed as b + max_bucket, so a gain bound
// whose bucket span does not fit one must be refused up front, not overflow
// (3.4·10⁷ at 64 buckets per unit) or try to allocate the span (10⁹).
TEST(BucketListTest, GainBoundPastTheInt32BucketRangeThrows) {
  for (const double bound : {3.4e7, 1e9, 1e300}) {
    try {
      BucketList bl(10, bound, 64.0);
      ADD_FAILURE() << "bound " << bound << " accepted";
    } catch (const std::invalid_argument& e) {
      std::ostringstream want;
      want << "gain bound " << bound;
      EXPECT_NE(std::string(e.what()).find(want.str()), std::string::npos)
          << e.what();
    }
  }
  // A refused Reset leaves a live list untouched.
  BucketList bl(10, 5.0, 64.0);
  bl.Insert(3, 1.0);
  EXPECT_THROW(bl.Reset(10, 3.4e7, 64.0), std::invalid_argument);
  EXPECT_THROW(bl.Reset(10, 5.0, std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_EQ(bl.Size(), 1u);
  EXPECT_EQ(bl.PopMax(), 3u);
}

// The quantizer is inline arithmetic; std::llround (round half away from
// zero) clamped to the bucket range is its specification. Checked on every
// half-way point of the range, their neighbouring doubles, signed zeros,
// the clamp edges and well past them, and over a million seeded gains.
TEST(BucketListTest, QuantizeMatchesClampedLlround) {
  util::Rng rng(1913);
  std::size_t mismatches = 0;
  for (const double resolution : {64.0, 1.0, 10.0, 3.0, 0.5}) {
    const BucketList bl(4, 40.0, resolution);
    const auto max_bucket =
        static_cast<long long>((bl.BucketCapacity() - 1) / 2);
    auto expect_match = [&](double gain) {
      // Pre-clamped one bucket past the range, where llround is defined.
      const double past = static_cast<double>(max_bucket + 1);
      const long long want =
          std::clamp(std::llround(std::clamp(gain * resolution, -past, past)),
                     -max_bucket, max_bucket);
      const std::int32_t got = bl.Quantize(gain);
      if (got != want && ++mismatches <= 5) {  // report the first few only
        ADD_FAILURE() << "gain " << std::setprecision(17) << gain
                      << " at resolution " << resolution << ": bucket "
                      << got << ", llround gives " << want;
      }
    };
    auto expect_around = [&](double gain) {
      expect_match(gain);
      expect_match(std::nextafter(gain, HUGE_VAL));
      expect_match(std::nextafter(gain, -HUGE_VAL));
    };
    expect_around(0.0);
    expect_around(-0.0);
    for (long long j = 0; j <= max_bucket + 2; ++j) {
      const double half = (static_cast<double>(j) + 0.5) / resolution;
      expect_around(half);
      expect_around(-half);
    }
    const double edge = static_cast<double>(max_bucket) / resolution;
    for (const double g : {edge, 2 * edge, 1e300, HUGE_VAL}) {
      expect_around(g);
      expect_around(-g);
    }
    // 250,000 seeded gains per resolution, 1.25M in all: uniform over the
    // range and a little past it, then the gains KL forms, ΔF − k·ΔR for
    // integer ΔF, ΔR and a sweep-like k.
    const double span = 1.1 * edge;
    for (int i = 0; i < 150'000; ++i) {
      expect_match(rng.NextDouble(-span, span));
    }
    for (int i = 0; i < 100'000; ++i) {
      const double k = std::ldexp(1.0 + rng.NextDouble(),
                                  static_cast<int>(rng.NextInt(-4, 3)));
      expect_match(static_cast<double>(rng.NextInt(-20, 20)) -
                   k * static_cast<double>(rng.NextInt(-12, 12)));
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(BucketListTest, CollectTopOrdersDescending) {
  BucketList bl(10, 10.0, 4.0);
  bl.Insert(0, 1.0);
  bl.Insert(1, 5.0);
  bl.Insert(2, 3.0);
  bl.Insert(3, -2.0);
  std::vector<graph::NodeId> top;
  bl.CollectTop(3, top);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0], 1u);
  EXPECT_EQ(top[1], 2u);
  EXPECT_EQ(top[2], 0u);
}

TEST(BucketListTest, CollectTopMoreThanPresent) {
  BucketList bl(10, 10.0, 4.0);
  bl.Insert(0, 1.0);
  std::vector<graph::NodeId> top;
  bl.CollectTop(5, top);
  EXPECT_EQ(top.size(), 1u);
}

TEST(BucketListTest, CollectTopAppends) {
  BucketList bl(10, 10.0, 4.0);
  bl.Insert(0, 1.0);
  std::vector<graph::NodeId> top{9};
  bl.CollectTop(1, top);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0], 9u);
  EXPECT_EQ(top[1], 0u);
}

TEST(BucketListTest, MaxGainNodeDoesNotRemove) {
  BucketList bl(10, 10.0, 4.0);
  bl.Insert(0, 1.0);
  bl.Insert(1, 9.0);
  EXPECT_EQ(bl.MaxGainNode(), 1u);
  EXPECT_EQ(bl.Size(), 2u);
  EXPECT_EQ(bl.MaxGainNode(), 1u);
}

TEST(BucketListTest, InterleavedStressAgainstReferenceOrdering) {
  // Insert 100 nodes with arbitrary gains, update half, remove a quarter,
  // then verify PopMax drains in non-increasing quantized-gain order.
  BucketList bl(200, 50.0, 8.0);
  std::vector<double> gain(100);
  for (graph::NodeId v = 0; v < 100; ++v) {
    gain[v] = static_cast<double>((v * 37) % 41) - 20.0;
    bl.Insert(v, gain[v]);
  }
  for (graph::NodeId v = 0; v < 100; v += 2) {
    gain[v] = static_cast<double>((v * 13) % 29) - 14.0;
    bl.Update(v, gain[v]);
  }
  for (graph::NodeId v = 0; v < 100; v += 4) {
    bl.Remove(v);
    gain[v] = -1e9;  // sentinel: not present
  }
  double last = 1e18;
  while (!bl.Empty()) {
    const graph::NodeId v = bl.PopMax();
    ASSERT_NE(gain[v], -1e9) << "popped removed node";
    const double q = std::round(gain[v] * 8.0);
    ASSERT_LE(q, last);
    last = q;
    gain[v] = -1e9;
  }
  for (double g : gain) EXPECT_EQ(g, -1e9);  // everything drained exactly once
}

}  // namespace
}  // namespace rejecto::detect
