// Format-v3 (zero-copy mmap) snapshot tests: a mapped tree must be
// indistinguishable from the built tree — same structure, bit-identical
// payload cells, bit-identical solver answers on every objective — and the
// v1/v2 legacy formats must migrate into v3 losslessly. Also pins down the
// byte stability of the v3 image and the resident-vs-mapped memory
// accounting the fleet router's eviction budget relies on.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/solve_dispatch.h"
#include "src/datasets/facility_selector.h"
#include "src/index/vip_tree.h"
#include "src/index/vip_tree_io_v3.h"
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

std::string SaveV3ToTempFile(const VipTree& tree, const std::string& stem) {
  const std::string path = testing_util::UniqueTempPath(stem + ".v3.ifls");
  IFLS_CHECK(tree.SaveV3ToFile(path).ok());
  return path;
}

TEST(VipTreeIoV3Test, RoundTripPreservesStructureAndPayload) {
  Venue venue = Unwrap(GenerateVenue(SmallVenueSpec()));
  VipTree built = Unwrap(VipTree::Build(&venue));
  const std::string path = SaveV3ToTempFile(built, "roundtrip");
  VipTree mapped = Unwrap(VipTree::LoadV3FromFile(&venue, path));
  EXPECT_TRUE(mapped.is_mapped());
  EXPECT_FALSE(built.is_mapped());
  ExpectSameStructure(built, mapped);
  ExpectSamePayload(built, mapped);
}

TEST(VipTreeIoV3Test, LoadFromFileSniffsV3Magic) {
  // The generic loader must route a v3 image to the mmap path and a v2
  // text file to the parser, without being told which is which.
  Venue venue = Unwrap(GenerateVenue(SmallVenueSpec()));
  VipTree built = Unwrap(VipTree::Build(&venue));
  const std::string v3 = SaveV3ToTempFile(built, "sniff");
  const std::string v2 = testing_util::UniqueTempPath("sniff.v2.txt");
  ASSERT_TRUE(built.SaveToFile(v2).ok());

  VipTree from_v3 = Unwrap(VipTree::LoadFromFile(&venue, v3));
  EXPECT_TRUE(from_v3.is_mapped());
  VipTree from_v2 = Unwrap(VipTree::LoadFromFile(&venue, v2));
  EXPECT_FALSE(from_v2.is_mapped());
  ExpectSamePayload(from_v2, from_v3);
}

/// The acceptance bar of the mmap refactor: on every objective, a query
/// against file-backed arenas returns the bit-identical answer, objective
/// and work counters as the heap-built tree.
TEST(VipTreeIoV3Test, MappedAnswersBitIdenticalAcrossObjectives) {
  Venue venue = Unwrap(GenerateVenue(SmallVenueSpec()));
  VipTree built = Unwrap(VipTree::Build(&venue));
  const std::string path = SaveV3ToTempFile(built, "answers");
  VipTree mapped = Unwrap(VipTree::LoadV3FromFile(&venue, path));

  Rng rng(411);
  FacilitySets sets = Unwrap(SelectUniformFacilities(venue, 4, 8, &rng));
  IflsContext ctx;
  ctx.existing = sets.existing;
  ctx.candidates = sets.candidates;
  for (int i = 0; i < 24; ++i) {
    ctx.clients.push_back(RandomClient(venue, &rng, i));
  }

  for (IflsObjective objective :
       {IflsObjective::kMinMax, IflsObjective::kMinDist,
        IflsObjective::kMaxSum}) {
    ctx.oracle = &built;
    const IflsResult heap = Unwrap(SolveWithObjective(objective, ctx));
    ctx.oracle = &mapped;
    const IflsResult mapped_result =
        Unwrap(SolveWithObjective(objective, ctx));
    EXPECT_EQ(heap.found, mapped_result.found);
    EXPECT_EQ(heap.answer, mapped_result.answer);
    EXPECT_EQ(heap.objective, mapped_result.objective);  // bit-identical
    EXPECT_EQ(heap.stats.distance_computations,
              mapped_result.stats.distance_computations);
    EXPECT_EQ(heap.stats.matrix_lookups, mapped_result.stats.matrix_lookups);
  }
}

TEST(VipTreeIoV3Test, V1MigratesToV3) {
  Venue venue = Unwrap(GenerateVenue(SmallVenueSpec()));
  VipTree built = Unwrap(VipTree::Build(&venue));
  std::stringstream v1;
  ASSERT_TRUE(built.SaveLegacyV1(&v1).ok());
  VipTree from_v1 = Unwrap(VipTree::Load(&venue, &v1));

  const std::string path = SaveV3ToTempFile(from_v1, "migrate_v1");
  VipTree mapped = Unwrap(VipTree::LoadV3FromFile(&venue, path));
  ExpectSameStructure(built, mapped);
  ExpectSamePayload(built, mapped);
}

TEST(VipTreeIoV3Test, V2MigratesToV3AndBack) {
  Venue venue = Unwrap(GenerateVenue(SmallVenueSpec()));
  VipTree built = Unwrap(VipTree::Build(&venue));
  std::stringstream v2;
  ASSERT_TRUE(built.Save(&v2).ok());
  VipTree from_v2 = Unwrap(VipTree::Load(&venue, &v2));

  const std::string path = SaveV3ToTempFile(from_v2, "migrate_v2");
  VipTree mapped = Unwrap(VipTree::LoadV3FromFile(&venue, path));
  ExpectSameStructure(built, mapped);
  ExpectSamePayload(built, mapped);

  // And back out: a mapped tree re-saved as v2 text equals the original v2
  // serialization byte for byte (the shared deterministic layout order).
  std::stringstream v2_again;
  ASSERT_TRUE(mapped.Save(&v2_again).ok());
  EXPECT_EQ(v2.str(), v2_again.str());
}

TEST(VipTreeIoV3Test, V3SaveIsByteStable) {
  Venue venue = Unwrap(GenerateVenue(SmallVenueSpec()));
  VipTree built = Unwrap(VipTree::Build(&venue));
  const std::string first = SaveV3ToTempFile(built, "stable_first");
  VipTree mapped = Unwrap(VipTree::LoadV3FromFile(&venue, first));
  const std::string second = SaveV3ToTempFile(mapped, "stable_second");

  std::ifstream a(first, std::ios::binary);
  std::ifstream b(second, std::ios::binary);
  const std::string bytes_a(std::istreambuf_iterator<char>(a), {});
  const std::string bytes_b(std::istreambuf_iterator<char>(b), {});
  EXPECT_EQ(bytes_a, bytes_b);
}

TEST(VipTreeIoV3Test, IpTreeVariantRoundTrips) {
  // build_leaf_to_ancestor=false (the IP-tree ablation) writes no ancestor
  // matrices; store_first_hop stays on. The header must carry the options.
  Venue venue = Unwrap(GenerateVenue(SmallVenueSpec()));
  VipTreeOptions options;
  options.build_leaf_to_ancestor = false;
  VipTree built = Unwrap(VipTree::Build(&venue, options));
  const std::string path = SaveV3ToTempFile(built, "iptree");
  VipTree mapped = Unwrap(VipTree::LoadV3FromFile(&venue, path));
  EXPECT_FALSE(mapped.options().build_leaf_to_ancestor);
  ExpectSameStructure(built, mapped);
  ExpectSamePayload(built, mapped);
}

TEST(VipTreeIoV3Test, MappedFootprintAccounting) {
  // Mapped arenas must vanish from the resident footprint (what eviction
  // budgets count) and appear in the mapped figure instead.
  Venue venue = Unwrap(GenerateVenue(SmallVenueSpec()));
  VipTree built = Unwrap(VipTree::Build(&venue));
  const std::string path = SaveV3ToTempFile(built, "footprint");
  VipTree mapped = Unwrap(VipTree::LoadV3FromFile(&venue, path));

  const VipTreeLayoutStats built_stats = built.LayoutStats();
  const VipTreeLayoutStats mapped_stats = mapped.LayoutStats();
  EXPECT_GT(built_stats.arena_capacity_bytes, 0u);
  EXPECT_EQ(built_stats.mapped_bytes, 0u);
  // For a mapped tree the arena "capacity" is the mapped section sizes (so
  // utilization stays meaningful), and all of it is mapped, none heap.
  EXPECT_EQ(mapped_stats.arena_capacity_bytes, mapped_stats.mapped_bytes);
  EXPECT_GT(mapped_stats.mapped_bytes, 0u);

  EXPECT_EQ(mapped.MappedFootprintBytes(),
            std::filesystem::file_size(path));
  EXPECT_LT(mapped.MemoryFootprintBytes(), built.MemoryFootprintBytes());
}

}  // namespace
}  // namespace ifls
