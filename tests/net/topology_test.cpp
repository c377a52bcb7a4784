#include "net/topology.hpp"

#include <gtest/gtest.h>

namespace moonshot::net {
namespace {

TEST(LatencyMatrix, Aws5MatchesTableII) {
  const auto& m = LatencyMatrix::aws5();
  EXPECT_EQ(m.regions(), 5u);
  EXPECT_EQ(m.name(0), "us-east-1");
  EXPECT_EQ(m.name(4), "ap-southeast-2");
  // Spot-check against the paper's Table II (round trips, ms).
  EXPECT_DOUBLE_EQ(m.rtt_ms(0, 1), 61.87);
  EXPECT_DOUBLE_EQ(m.rtt_ms(1, 0), 62.88);
  EXPECT_DOUBLE_EQ(m.rtt_ms(2, 4), 271.68);
  EXPECT_DOUBLE_EQ(m.rtt_ms(4, 2), 272.31);
  // The misprinted 523 self-latency is encoded as 5.23.
  EXPECT_DOUBLE_EQ(m.rtt_ms(0, 0), 5.23);
}

TEST(LatencyMatrix, OneWayIsHalfRtt) {
  const auto& m = LatencyMatrix::aws5();
  EXPECT_EQ(m.one_way(0, 1).count(), static_cast<std::int64_t>(61.87 / 2 * 1e6));
}

TEST(LatencyMatrix, UniformMatrix) {
  const auto m = LatencyMatrix::uniform(milliseconds(10), 3);
  EXPECT_EQ(m.regions(), 3u);
  for (RegionId a = 0; a < 3; ++a)
    for (RegionId b = 0; b < 3; ++b) EXPECT_EQ(m.one_way(a, b), milliseconds(10));
}

TEST(RegionAssignment, BlockedContiguousRanges) {
  RegionAssignment a(10, 5);  // 2 per region
  EXPECT_EQ(a.region_of(0), 0u);
  EXPECT_EQ(a.region_of(1), 0u);
  EXPECT_EQ(a.region_of(2), 1u);
  EXPECT_EQ(a.region_of(9), 4u);
}

TEST(RegionAssignment, EvenDistribution) {
  RegionAssignment a(200, 5);
  std::vector<int> counts(5, 0);
  for (NodeId i = 0; i < 200; ++i) counts[a.region_of(i)]++;
  for (int c : counts) EXPECT_EQ(c, 40);
}

TEST(RegionAssignment, BlockedHandlesUnevenCounts) {
  RegionAssignment a(7, 5);  // per = 2: regions 0,0,1,1,2,2,3
  std::vector<int> counts(5, 0);
  for (NodeId i = 0; i < 7; ++i) counts[a.region_of(i)]++;
  int total = 0;
  for (int c : counts) total += c;
  EXPECT_EQ(total, 7);
  EXPECT_EQ(a.region_of(6), 3u);
}

}  // namespace
}  // namespace moonshot::net
