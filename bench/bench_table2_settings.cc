// Experiment E6 — paper Table 2: prints the resolved parameter grid for the
// four venues (synthetic setting) and the five category splits (real
// setting), together with the rebuilt venues' statistics vs. the paper's
// published numbers. This is the "settings" table rather than a timing run.

#include <cstdio>
#include <iostream>

#include "src/benchlib/table.h"
#include "src/common/stopwatch.h"
#include "src/datasets/presets.h"
#include "src/datasets/venue_stats.h"
#include "src/datasets/workload.h"
#include "src/index/vip_tree.h"

int main() {
  using namespace ifls;

  std::printf("# E6 / Table 2: parameter settings and venue statistics\n\n");

  std::printf("-- venue statistics (rebuilt vs paper) --\n");
  {
    struct Published {
      VenuePreset preset;
      int rooms, doors, levels;
    } published[] = {
        {VenuePreset::kMelbourneCentral, 298, 299, 7},
        {VenuePreset::kChadstone, 679, 678, 4},
        {VenuePreset::kCopenhagenAirport, 76, 118, 1},
        {VenuePreset::kMenziesBuilding, 1344, 1375, 16},
    };
    TextTable table({"venue", "rooms", "paper rooms", "doors", "paper doors",
                     "levels", "index", "index MiB", "build"});
    for (const auto& p : published) {
      Result<Venue> venue = BuildPresetVenue(p.preset);
      if (!venue.ok()) {
        std::fprintf(stderr, "%s\n", venue.status().ToString().c_str());
        return 1;
      }
      Stopwatch sw;
      Result<VipTree> tree = VipTree::Build(&venue.value());
      const double build_s = sw.ElapsedSeconds();
      if (!tree.ok()) {
        std::fprintf(stderr, "%s\n", tree.status().ToString().c_str());
        return 1;
      }
      table.AddRow(
          {VenuePresetName(p.preset),
           TextTable::Int(static_cast<long long>(venue->num_rooms())),
           TextTable::Int(p.rooms),
           TextTable::Int(static_cast<long long>(venue->num_doors())),
           TextTable::Int(p.doors), TextTable::Int(venue->num_levels()),
           std::to_string(tree->num_nodes()) + " nodes/h" +
               std::to_string(tree->height()),
           TextTable::Num(static_cast<double>(tree->MemoryFootprintBytes()) /
                          (1 << 20)),
           TextTable::Num(build_s) + "s"});
    }
    table.Print(&std::cout);
  }

  std::printf("\n-- venue topology / metric statistics --\n");
  for (VenuePreset preset : AllVenuePresets()) {
    Result<Venue> venue = BuildPresetVenue(preset);
    if (!venue.ok()) return 1;
    Result<VipTree> tree = VipTree::Build(&venue.value());
    if (!tree.ok()) return 1;
    std::printf("%-4s %s\n", VenuePresetName(preset),
                ComputeVenueStats(*tree).ToString().c_str());
  }

  std::printf("\n-- synthetic setting parameter ranges (defaults = mean) --\n");
  {
    TextTable table({"venue", "|Fe| range", "|Fe| default", "|Fn| range",
                     "|Fn| default"});
    for (VenuePreset preset : AllVenuePresets()) {
      const ParameterGrid grid = PresetParameterGrid(preset);
      auto range = [](const std::vector<std::size_t>& v) {
        std::string out = "[";
        out += std::to_string(v.front());
        out += ", " + std::to_string(v.back());
        out += "] x" + std::to_string(v.size());
        return out;
      };
      table.AddRow({VenuePresetName(preset), range(grid.existing_sizes),
                    TextTable::Int(static_cast<long long>(
                        grid.default_existing)),
                    range(grid.candidate_sizes),
                    TextTable::Int(static_cast<long long>(
                        grid.default_candidates))});
    }
    table.Print(&std::cout);
  }

  std::printf("\n-- real setting category splits (MC) --\n");
  {
    Result<Venue> venue = BuildPresetVenue(VenuePreset::kMelbourneCentral);
    if (!venue.ok() ||
        !AssignMelbourneCentralCategories(&venue.value()).ok()) {
      std::fprintf(stderr, "failed to build MC categories\n");
      return 1;
    }
    TextTable table({"Fe category", "|Fe|", "|Fn|"});
    for (const McCategory& c : MelbourneCentralCategories()) {
      if (c.name == "general retail") continue;  // not a paper experiment
      Result<FacilitySets> sets = SelectCategoryFacilities(*venue, c.name);
      if (!sets.ok()) {
        std::fprintf(stderr, "%s\n", sets.status().ToString().c_str());
        return 1;
      }
      table.AddRow({c.name,
                    TextTable::Int(static_cast<long long>(
                        sets->existing.size())),
                    TextTable::Int(static_cast<long long>(
                        sets->candidates.size()))});
    }
    table.Print(&std::cout);
  }

  std::printf(
      "\nclient sizes: {1k, 5k, 10k, 15k, 20k} (default 10k); "
      "normal distribution mu=0, sigma in {0.125, 0.25, 0.5, 1, 2} "
      "(default 1)\n");
  return 0;
}
