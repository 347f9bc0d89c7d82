#include "src/io/svg_export.h"

#include <gtest/gtest.h>

#include <fstream>
#include <memory>

#include "src/datasets/client_generator.h"
#include "src/datasets/facility_selector.h"
#include "tests/test_util.h"

namespace ifls {
namespace {

using testing_util::BuildTinyVenue;
using testing_util::SmallVenueSpec;
using testing_util::TinyVenue;
using testing_util::Unwrap;

int CountOccurrences(const std::string& haystack, const std::string& needle) {
  int count = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TEST(SvgExportTest, RendersAllLevelPartitions) {
  TinyVenue t = BuildTinyVenue();
  SvgOptions options;
  options.level = 0;
  const std::string svg = RenderLevelSvg(t.venue, options);
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  // 5 level-0 partitions + 1 background rect + door markers.
  EXPECT_GE(CountOccurrences(svg, "<rect"), 6);
}

TEST(SvgExportTest, RoleFillsAppear) {
  TinyVenue t = BuildTinyVenue();
  SvgOptions options;
  options.level = 0;
  options.existing_facilities = {t.room_a};
  options.candidate_locations = {t.room_b};
  options.answer = t.room_c;
  const std::string svg = RenderLevelSvg(t.venue, options);
  EXPECT_NE(svg.find("#1976d2"), std::string::npos);  // existing
  EXPECT_NE(svg.find("#a5d6a7"), std::string::npos);  // candidate
  EXPECT_NE(svg.find("#ef6c00"), std::string::npos);  // answer
}

TEST(SvgExportTest, ClientsAndLabels) {
  Venue venue = Unwrap(GenerateVenue(SmallVenueSpec()));
  Rng rng(5);
  ClientGeneratorOptions copts;
  SvgOptions options;
  options.level = 0;
  options.clients = GenerateClients(venue, 40, copts, &rng);
  options.label_partitions = true;
  const std::string svg = RenderLevelSvg(venue, options);
  int level0_clients = 0;
  for (const Client& c : options.clients) {
    if (c.position.level == 0) ++level0_clients;
  }
  EXPECT_EQ(CountOccurrences(svg, "<circle"), level0_clients);
  EXPECT_GT(CountOccurrences(svg, "<text"), 0);
}

TEST(SvgExportTest, PathsRenderAsPolylines) {
  Venue venue = Unwrap(GenerateVenue(SmallVenueSpec()));
  VipTree tree = Unwrap(VipTree::Build(&venue));
  PathReconstructor reconstructor(&tree);
  const Point a = venue.partition(0).rect.center();
  const Point b =
      venue.partition(static_cast<PartitionId>(venue.num_partitions() / 2))
          .rect.center();
  SvgOptions options;
  options.level = 0;
  options.paths.push_back(Unwrap(reconstructor.PointToPoint(
      a, 0, b, static_cast<PartitionId>(venue.num_partitions() / 2))));
  const std::string svg = RenderLevelSvg(venue, options);
  EXPECT_GE(CountOccurrences(svg, "<polyline"), 1);
}

TEST(SvgExportTest, StairDoorsAreHighlighted) {
  TinyVenue t = BuildTinyVenue();
  SvgOptions options;
  options.level = 0;
  const std::string svg = RenderLevelSvg(t.venue, options);
  EXPECT_NE(svg.find("#b71c1c"), std::string::npos);  // stair door marker
}

TEST(SvgExportTest, WritesFile) {
  TinyVenue t = BuildTinyVenue();
  SvgOptions options;
  const std::string path = testing_util::UniqueTempPath("render.svg");
  ASSERT_TRUE(RenderLevelSvgToFile(t.venue, options, path).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string first_line;
  std::getline(in, first_line);
  EXPECT_NE(first_line.find("<svg"), std::string::npos);
  EXPECT_TRUE(
      RenderLevelSvgToFile(t.venue, options, "/no/such/dir/x.svg").IsIOError());
}

TEST(SvgExportDeathTest, EmptyLevelFails) {
  TinyVenue t = BuildTinyVenue();
  SvgOptions options;
  options.level = 7;  // no such level
  EXPECT_DEATH((void)RenderLevelSvg(t.venue, options), "has no partitions");
}

}  // namespace
}  // namespace ifls
