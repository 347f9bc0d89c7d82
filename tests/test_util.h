#ifndef IFLS_TESTS_TEST_UTIL_H_
#define IFLS_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/datasets/client_generator.h"
#include "src/datasets/facility_selector.h"
#include "src/datasets/venue_generator.h"
#include "src/indoor/venue.h"
#include "src/indoor/venue_builder.h"
#include "src/index/vip_tree.h"

namespace ifls {
namespace testing_util {

/// Unwraps a Result in tests, aborting with the status message on error.
template <typename T>
T Unwrap(Result<T> result) {
  IFLS_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

/// Hand-built 6-partition venue used by the fine-grained unit tests:
///
///   level 0:   [room A][corridor H][room B]
///                         |
///   (door to)          [room C]
///   level 1:   [room D] -- stairwell over H
///
/// Exact layout: corridor H (10..20, 0..4); A (0..10, 0..4); B (20..30,
/// 0..4); C (10..20, -6..0); stairwell S0 (14..18, 4..8) attached to H;
/// stairwell S1 stacked on level 1 with room D (0..14, 4..8) beside it.
struct TinyVenue {
  Venue venue;
  PartitionId room_a, room_b, room_c, room_d, corridor, stair0, stair1;
  DoorId door_a, door_b, door_c, door_s0, door_stair, door_d;
};

inline TinyVenue BuildTinyVenue() {
  TinyVenue t;
  VenueBuilder b("tiny");
  t.room_a = b.AddPartition(Rect(0, 0, 10, 4, 0), PartitionKind::kRoom);
  t.corridor =
      b.AddPartition(Rect(10, 0, 20, 4, 0), PartitionKind::kCorridor);
  t.room_b = b.AddPartition(Rect(20, 0, 30, 4, 0), PartitionKind::kRoom);
  t.room_c = b.AddPartition(Rect(10, -6, 20, 0, 0), PartitionKind::kRoom);
  t.stair0 =
      b.AddPartition(Rect(14, 4, 18, 8, 0), PartitionKind::kStairwell);
  t.stair1 =
      b.AddPartition(Rect(14, 4, 18, 8, 1), PartitionKind::kStairwell);
  t.room_d = b.AddPartition(Rect(0, 4, 14, 8, 1), PartitionKind::kRoom);
  t.door_a = b.AddDoor(t.room_a, t.corridor, Point(10, 2, 0));
  t.door_b = b.AddDoor(t.room_b, t.corridor, Point(20, 2, 0));
  t.door_c = b.AddDoor(t.room_c, t.corridor, Point(15, 0, 0));
  t.door_s0 = b.AddDoor(t.stair0, t.corridor, Point(16, 4, 0));
  t.door_stair = b.AddStairDoor(t.stair0, t.stair1, Point(16, 6, 0), 8.0);
  t.door_d = b.AddDoor(t.room_d, t.stair1, Point(14, 6, 1));
  t.venue = Unwrap(b.Build());
  return t;
}

/// Small two-level generated venue for property sweeps: fast to index,
/// non-trivial topology (2 levels, 2 corridors/level, stairs).
inline VenueGeneratorSpec SmallVenueSpec() {
  VenueGeneratorSpec spec;
  spec.name = "small";
  spec.levels = 2;
  spec.rooms_per_level = 24;
  spec.rooms_per_corridor_side = 6;
  spec.room_width = 5.0;
  spec.room_depth = 7.0;
  spec.corridor_width = 3.0;
  spec.stairwells = 1;
  spec.stair_length = 9.0;
  return spec;
}

/// Uniform random point inside a random non-stairwell partition.
inline Client RandomClient(const Venue& venue, Rng* rng, ClientId id) {
  for (;;) {
    const auto pid = static_cast<PartitionId>(
        rng->NextBounded(venue.num_partitions()));
    const Partition& p = venue.partition(pid);
    if (p.kind == PartitionKind::kStairwell) continue;
    Client c;
    c.id = id;
    c.partition = pid;
    c.position = Point(rng->NextUniform(p.rect.min_x, p.rect.max_x),
                       rng->NextUniform(p.rect.min_y, p.rect.max_y),
                       p.level());
    return c;
  }
}

/// A scratch path unique to the running test: the test binary's pid names a
/// directory under ::testing::TempDir() and the suite and test name prefix
/// the file, so `ctest -j` never has two processes racing on one file. The
/// directory and everything in it is removed when the test binary exits.
inline std::string UniqueTempPath(const std::string& stem) {
  struct ProcessDir {
    const pid_t owner = ::getpid();
    const std::string path = ::testing::TempDir() + "/ifls_test." +
                             std::to_string(owner);
    ProcessDir() { std::filesystem::create_directories(path); }
    ~ProcessDir() {
      // A forked death-test child exiting must not delete its parent's files.
      if (::getpid() != owner) return;
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  };
  static const ProcessDir dir;
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return dir.path + "/" + info->test_suite_name() + "." + info->name() + "." +
         stem;
}

}  // namespace testing_util
}  // namespace ifls

#endif  // IFLS_TESTS_TEST_UTIL_H_
