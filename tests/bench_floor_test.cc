// Unit tests for the benches' shared floor check (bench/bench_common.h):
// the --check gates of bench_hotpath (>= 70% of the floor) and bench_sync
// (>= the floor) and their exit codes.

#include <gtest/gtest.h>

#include <string>

#include "bench/bench_common.h"

namespace corm::bench {
namespace {

// Shaped like the checked-in floor files: a comment plus flat numbers.
const char kFloorText[] = R"({
  "comment": "fixture floor",
  "read_1t": 700000,
  "batch_speedup": 1.7
})";

TEST(BenchFloorTest, ValuesOnOrAboveTheLinePass) {
  EXPECT_EQ(CheckFloorText(kFloorText, {{"read_1t", 500000}}, 0.7), 0);
  EXPECT_EQ(CheckFloorText(kFloorText, {{"batch_speedup", 1.7}}, 1.0), 0);
}

TEST(BenchFloorTest, AValueBelowTheLineFails) {
  EXPECT_EQ(CheckFloorText(kFloorText, {{"read_1t", 480000}}, 0.7), 1);
  EXPECT_EQ(CheckFloorText(kFloorText,
                           {{"read_1t", 500000}, {"batch_speedup", 1.69}},
                           1.0),
            1);
}

TEST(BenchFloorTest, AMissingKeyGivesTwo) {
  EXPECT_EQ(CheckFloorText(kFloorText, {{"read_nt", 1e9}}, 0.7), 2);
  // A missing key wins over a value below its line.
  EXPECT_EQ(CheckFloorText(kFloorText,
                           {{"mixed_nt", 1e9}, {"read_1t", 0}}, 0.7),
            2);
}

TEST(BenchFloorTest, AnUnreadableFloorFileGivesTwo) {
  const std::string path = ::testing::TempDir() + "no_such_dir/floor.json";
  EXPECT_EQ(CheckFloor(path, {{"read_1t", 1e9}}, 0.7), 2);
}

// Both gates' keys are present in the checked-in floor files (a measured
// value of 1e12 clears any floor, so only a missing key could fail).
TEST(BenchFloorTest, TheCheckedInFloorsHoldEveryGatedKey) {
  const std::string bench_dir = std::string(CORM_REPO_ROOT) + "/bench/";
  EXPECT_EQ(CheckFloor(bench_dir + "hotpath_floor.json",
                       {{"read_1t", 1e12}, {"read_nt", 1e12},
                        {"mixed_nt", 1e12}},
                       0.7),
            0);
  EXPECT_EQ(CheckFloor(bench_dir + "sync_floor.json",
                       {{"batch_speedup", 1e12}}, 1.0),
            0);
}

}  // namespace
}  // namespace corm::bench
