// Round-trip tests of the IFLS_VIPTREE serialization: a loaded index must
// be byte-for-byte equivalent in behaviour to the one that was built. Covers
// the current flat-payload format (v2), the legacy per-node-matrix format
// (v1) migration path, and corrupted-input regressions.

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "src/core/efficient.h"
#include "src/datasets/facility_selector.h"
#include "src/index/graph_oracle.h"
#include "src/index/vip_tree.h"
#include "tests/test_util.h"

namespace ifls {
namespace {

using testing_util::RandomClient;
using testing_util::SmallVenueSpec;
using testing_util::Unwrap;

template <typename T>
std::vector<T> ToVector(std::span<const T> s) {
  return std::vector<T>(s.begin(), s.end());
}

/// Element-wise structural equality of two trees (spans compared by value).
void ExpectSameStructure(const VipTree& built, const VipTree& loaded) {
  ASSERT_EQ(loaded.num_nodes(), built.num_nodes());
  EXPECT_EQ(loaded.num_leaves(), built.num_leaves());
  EXPECT_EQ(loaded.height(), built.height());
  EXPECT_EQ(loaded.root(), built.root());
  for (std::size_t i = 0; i < built.num_nodes(); ++i) {
    const VipNode& a = built.node(static_cast<NodeId>(i));
    const VipNode& b = loaded.node(static_cast<NodeId>(i));
    EXPECT_EQ(a.parent, b.parent);
    EXPECT_EQ(a.depth, b.depth);
    EXPECT_EQ(ToVector(a.children), ToVector(b.children));
    EXPECT_EQ(ToVector(a.partitions), ToVector(b.partitions));
    EXPECT_EQ(ToVector(a.doors), ToVector(b.doors));
    EXPECT_EQ(ToVector(a.access_doors), ToVector(b.access_doors));
    EXPECT_EQ(a.subtree_partitions, b.subtree_partitions);
    ASSERT_EQ(a.ancestor_matrices.size(), b.ancestor_matrices.size());
  }
}

/// Bit-identical distance payloads: every matrix cell of every node (main
/// and ancestor matrices) compares exactly equal.
void ExpectSamePayload(const VipTree& built, const VipTree& loaded) {
  for (std::size_t i = 0; i < built.num_nodes(); ++i) {
    const VipNode& a = built.node(static_cast<NodeId>(i));
    const VipNode& b = loaded.node(static_cast<NodeId>(i));
    auto expect_same_matrix = [](const DoorMatrixView& ma,
                                 const DoorMatrixView& mb) {
      ASSERT_EQ(ma.num_rows(), mb.num_rows());
      ASSERT_EQ(ma.num_cols(), mb.num_cols());
      for (std::size_t r = 0; r < ma.num_rows(); ++r) {
        for (std::size_t c = 0; c < ma.num_cols(); ++c) {
          const int ri = static_cast<int>(r);
          const int ci = static_cast<int>(c);
          ASSERT_EQ(ma.At(ri, ci), mb.At(ri, ci));
          ASSERT_EQ(ma.FirstHopAt(ri, ci), mb.FirstHopAt(ri, ci));
        }
      }
    };
    expect_same_matrix(a.matrix, b.matrix);
    for (std::size_t k = 0; k < a.ancestor_matrices.size(); ++k) {
      expect_same_matrix(a.ancestor_matrices[k], b.ancestor_matrices[k]);
    }
  }
}

TEST(VipTreeIoTest, RoundTripPreservesStructure) {
  Venue venue = Unwrap(GenerateVenue(SmallVenueSpec()));
  VipTree built = Unwrap(VipTree::Build(&venue));
  std::stringstream stream;
  ASSERT_TRUE(built.Save(&stream).ok());
  VipTree loaded = Unwrap(VipTree::Load(&venue, &stream));
  ExpectSameStructure(built, loaded);
  ExpectSamePayload(built, loaded);
}

TEST(VipTreeIoTest, RoundTripPreservesDistances) {
  Venue venue = Unwrap(GenerateVenue(SmallVenueSpec()));
  VipTree built = Unwrap(VipTree::Build(&venue));
  std::stringstream stream;
  ASSERT_TRUE(built.Save(&stream).ok());
  VipTree loaded = Unwrap(VipTree::Load(&venue, &stream));

  Rng rng(91);
  for (int i = 0; i < 200; ++i) {
    const Client a = RandomClient(venue, &rng, 0);
    const Client b = RandomClient(venue, &rng, 1);
    ASSERT_DOUBLE_EQ(
        loaded.PointToPoint(a.position, a.partition, b.position, b.partition),
        built.PointToPoint(a.position, a.partition, b.position, b.partition));
  }
  // First hops survive too.
  for (DoorId d = 0; d < static_cast<DoorId>(venue.num_doors()); ++d) {
    EXPECT_EQ(loaded.FirstHop(0, d), built.FirstHop(0, d));
  }
}

TEST(VipTreeIoTest, FileRoundTrip) {
  Venue venue = Unwrap(GenerateVenue(SmallVenueSpec()));
  VipTree built = Unwrap(VipTree::Build(&venue));
  const std::string path = testing_util::UniqueTempPath("tree.txt");
  ASSERT_TRUE(built.SaveToFile(path).ok());
  VipTree loaded = Unwrap(VipTree::LoadFromFile(&venue, path));
  GraphDistanceOracle oracle(&venue);
  Rng rng(92);
  for (int i = 0; i < 50; ++i) {
    const Client a = RandomClient(venue, &rng, 0);
    const auto target = static_cast<PartitionId>(
        rng.NextBounded(venue.num_partitions()));
    ASSERT_NEAR(loaded.PointToPartition(a.position, a.partition, target),
                oracle.PointToPartition(a.position, a.partition, target),
                1e-9);
  }
}

TEST(VipTreeIoTest, IpTreeRoundTrips) {
  Venue venue = Unwrap(GenerateVenue(SmallVenueSpec()));
  VipTreeOptions options;
  options.build_leaf_to_ancestor = false;
  VipTree built = Unwrap(VipTree::Build(&venue, options));
  std::stringstream stream;
  ASSERT_TRUE(built.Save(&stream).ok());
  VipTree loaded = Unwrap(VipTree::Load(&venue, &stream));
  EXPECT_FALSE(loaded.options().build_leaf_to_ancestor);
  Rng rng(93);
  const Client a = RandomClient(venue, &rng, 0);
  const Client b = RandomClient(venue, &rng, 1);
  EXPECT_DOUBLE_EQ(
      loaded.PointToPoint(a.position, a.partition, b.position, b.partition),
      built.PointToPoint(a.position, a.partition, b.position, b.partition));
}

// ---------------------------------------------------------------------------
// v1 (legacy per-node-matrix format) migration
// ---------------------------------------------------------------------------

/// One of ten randomized venues per test: size, stair count and door jitter
/// all vary with the seed.
VenueGeneratorSpec RandomizedSpec(std::uint64_t seed) {
  Rng rng(seed);
  VenueGeneratorSpec spec = SmallVenueSpec();
  spec.name = "rand" + std::to_string(seed);
  spec.levels = 1 + static_cast<int>(rng.NextBounded(3));
  spec.rooms_per_level = 10 + static_cast<int>(rng.NextBounded(25));
  spec.rooms_per_corridor_side = 4 + static_cast<int>(rng.NextBounded(5));
  spec.stairwells = 1 + static_cast<int>(rng.NextBounded(2));
  spec.door_jitter_seed = seed * 977 + 1;
  return spec;
}

class V1MigrationTest : public ::testing::TestWithParam<std::uint64_t> {};

/// A tree loaded from its own legacy-v1 serialization must be bit-identical
/// to the built tree: same structure, same payload cells, same query
/// answers, objectives and work counters.
TEST_P(V1MigrationTest, LegacyV1LoadsBitIdentical) {
  const std::uint64_t seed = GetParam();
  Venue venue = Unwrap(GenerateVenue(RandomizedSpec(seed)));
  VipTree built = Unwrap(VipTree::Build(&venue));

  std::stringstream v1;
  ASSERT_TRUE(built.SaveLegacyV1(&v1).ok());
  ASSERT_NE(v1.str().find("IFLS_VIPTREE 1"), std::string::npos);
  VipTree migrated = Unwrap(VipTree::Load(&venue, &v1));

  ExpectSameStructure(built, migrated);
  ExpectSamePayload(built, migrated);

  // Full-solver differential: answers, objectives and per-query work
  // counters must match exactly between the built and migrated index.
  Rng rng(seed * 31 + 7);
  FacilitySets sets = Unwrap(SelectUniformFacilities(venue, 3, 5, &rng));
  IflsContext ctx;
  ctx.existing = sets.existing;
  ctx.candidates = sets.candidates;
  for (int i = 0; i < 12; ++i) {
    ctx.clients.push_back(RandomClient(venue, &rng, i));
  }

  ctx.oracle = &built;
  const IflsResult from_built = Unwrap(SolveEfficient(ctx));
  ctx.oracle = &migrated;
  const IflsResult from_migrated = Unwrap(SolveEfficient(ctx));

  EXPECT_EQ(from_built.found, from_migrated.found);
  EXPECT_EQ(from_built.answer, from_migrated.answer);
  EXPECT_EQ(from_built.objective, from_migrated.objective);  // bit-identical
  EXPECT_EQ(from_built.stats.distance_computations,
            from_migrated.stats.distance_computations);
  EXPECT_EQ(from_built.stats.lower_bound_computations,
            from_migrated.stats.lower_bound_computations);
  EXPECT_EQ(from_built.stats.queue_pushes, from_migrated.stats.queue_pushes);
  EXPECT_EQ(from_built.stats.queue_pops, from_migrated.stats.queue_pops);
  EXPECT_EQ(from_built.stats.door_distance_evals,
            from_migrated.stats.door_distance_evals);
  EXPECT_EQ(from_built.stats.matrix_lookups,
            from_migrated.stats.matrix_lookups);
}

/// v1 round-trips *through* the v2 saver: load v1, save as v2, load again.
TEST_P(V1MigrationTest, V1ThroughV2RoundTrip) {
  const std::uint64_t seed = GetParam();
  Venue venue = Unwrap(GenerateVenue(RandomizedSpec(seed)));
  VipTree built = Unwrap(VipTree::Build(&venue));

  std::stringstream v1;
  ASSERT_TRUE(built.SaveLegacyV1(&v1).ok());
  VipTree migrated = Unwrap(VipTree::Load(&venue, &v1));

  std::stringstream v2;
  ASSERT_TRUE(migrated.Save(&v2).ok());
  ASSERT_NE(v2.str().find("IFLS_VIPTREE 2"), std::string::npos);
  VipTree reloaded = Unwrap(VipTree::Load(&venue, &v2));
  ExpectSameStructure(built, reloaded);
  ExpectSamePayload(built, reloaded);
}

INSTANTIATE_TEST_SUITE_P(RandomVenues, V1MigrationTest,
                         ::testing::Range<std::uint64_t>(1, 11));

// ---------------------------------------------------------------------------
// v2 byte stability
// ---------------------------------------------------------------------------

/// save(load(save(tree))) must equal save(tree) byte for byte: the flat
/// layout (and thus the serialization order) is fully determined by the
/// structure section.
TEST(VipTreeIoTest, V2SaveIsByteStable) {
  Venue venue = Unwrap(GenerateVenue(SmallVenueSpec()));
  VipTree built = Unwrap(VipTree::Build(&venue));
  std::stringstream first;
  ASSERT_TRUE(built.Save(&first).ok());
  VipTree loaded = Unwrap(VipTree::Load(&venue, &first));
  std::stringstream second;
  ASSERT_TRUE(loaded.Save(&second).ok());
  EXPECT_EQ(first.str(), second.str());
}

// ---------------------------------------------------------------------------
// Corrupted inputs
// ---------------------------------------------------------------------------

TEST(VipTreeIoTest, RejectsWrongVenue) {
  Venue venue = Unwrap(GenerateVenue(SmallVenueSpec()));
  VipTree built = Unwrap(VipTree::Build(&venue));
  std::stringstream stream;
  ASSERT_TRUE(built.Save(&stream).ok());

  VenueGeneratorSpec other_spec = SmallVenueSpec();
  other_spec.rooms_per_level = 30;  // different venue
  Venue other = Unwrap(GenerateVenue(other_spec));
  Result<VipTree> loaded = VipTree::Load(&other, &stream);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsInvalidArgument());
}

TEST(VipTreeIoTest, RejectsGarbage) {
  Venue venue = Unwrap(GenerateVenue(SmallVenueSpec()));
  std::stringstream bogus("NOT_A_TREE 1");
  EXPECT_TRUE(VipTree::Load(&venue, &bogus).status().IsInvalidArgument());
  std::stringstream truncated("IFLS_VIPTREE 1\noptions 8 8 1 1 1 0\n");
  EXPECT_FALSE(VipTree::Load(&venue, &truncated).ok());
  EXPECT_TRUE(VipTree::LoadFromFile(&venue, "/no/such/file")
                  .status()
                  .IsIOError());
}

TEST(VipTreeIoTest, RejectsUnsupportedVersion) {
  Venue venue = Unwrap(GenerateVenue(SmallVenueSpec()));
  std::stringstream future("IFLS_VIPTREE 99\noptions 8 8 1 1 1 0\n");
  Result<VipTree> loaded = VipTree::Load(&venue, &future);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsInvalidArgument());
  EXPECT_NE(loaded.status().message().find("version"), std::string::npos);
}

/// Truncating a valid v2 file anywhere inside the payload section must fail
/// with a proper Status (never a crash or a silently short index).
TEST(VipTreeIoTest, RejectsTruncatedPayload) {
  Venue venue = Unwrap(GenerateVenue(SmallVenueSpec()));
  VipTree built = Unwrap(VipTree::Build(&venue));
  std::stringstream stream;
  ASSERT_TRUE(built.Save(&stream).ok());
  const std::string full = stream.str();

  const std::size_t payload_pos = full.find("payload");
  ASSERT_NE(payload_pos, std::string::npos);
  // Cut in the middle of the payload numbers.
  const std::size_t cut = payload_pos + (full.size() - payload_pos) / 2;
  std::stringstream truncated(full.substr(0, cut));
  Result<VipTree> loaded = VipTree::Load(&venue, &truncated);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsInvalidArgument());
}

/// Dropping the trailing "end" marker is detected even though every payload
/// value is present.
TEST(VipTreeIoTest, RejectsMissingEndMarker) {
  Venue venue = Unwrap(GenerateVenue(SmallVenueSpec()));
  VipTree built = Unwrap(VipTree::Build(&venue));
  std::stringstream stream;
  ASSERT_TRUE(built.Save(&stream).ok());
  std::string full = stream.str();
  const std::size_t end_pos = full.rfind("end");
  ASSERT_NE(end_pos, std::string::npos);
  std::stringstream missing_end(full.substr(0, end_pos));
  Result<VipTree> loaded = VipTree::Load(&venue, &missing_end);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsInvalidArgument());
}

/// A v1 body whose matrices disagree with the derived structure is rejected.
TEST(VipTreeIoTest, RejectsV1MatrixMismatch) {
  Venue venue = Unwrap(GenerateVenue(SmallVenueSpec()));
  VipTree built = Unwrap(VipTree::Build(&venue));
  std::stringstream stream;
  ASSERT_TRUE(built.SaveLegacyV1(&stream).ok());
  std::string full = stream.str();
  // Corrupt the first matrix door-id list: "matrix R C" is followed by a
  // "rows ..." id list; bump one digit of the first row id.
  const std::size_t matrix_pos = full.find("matrix ");
  ASSERT_NE(matrix_pos, std::string::npos);
  const std::size_t rows_pos = full.find("rows ", matrix_pos);
  ASSERT_NE(rows_pos, std::string::npos);
  // Find the first door id after "rows <count> " and replace it with 9999.
  std::size_t id_pos = full.find(' ', rows_pos + 5);  // skip the count
  ASSERT_NE(id_pos, std::string::npos);
  ++id_pos;
  std::size_t id_end = full.find_first_of(" \n", id_pos);
  ASSERT_NE(id_end, std::string::npos);
  full.replace(id_pos, id_end - id_pos, "9999");
  std::stringstream corrupted(full);
  Result<VipTree> loaded = VipTree::Load(&venue, &corrupted);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsInvalidArgument());
}

}  // namespace
}  // namespace ifls
