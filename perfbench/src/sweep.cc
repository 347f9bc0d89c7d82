// The deterministic counter sweep: fixed inputs on all four presets and all
// three objectives, reporting the index work counters of one query each.
// These counts have no noise, so two sweeps of one build match exactly and
// any change to them is a change in the work the program does.

#include <string>

#include "perfbench/src/inputs.h"
#include "perfbench/src/workloads.h"

namespace perfbench {

using namespace ifls;

namespace {
constexpr std::uint64_t kSweepSeed = 20230328;
constexpr std::size_t kSweepClients = 200;
}  // namespace

void RunSweep(Report* report) {
  std::int64_t bad = 0;
  for (VenuePreset preset : AllVenuePresets()) {
    const Venue venue = BuildVenue(preset);
    Result<VipTree> tree = VipTree::Build(&venue);
    Require(tree.status(), "building the sweep index");
    Rng rng(kSweepSeed);
    const FacilitySets sets = DrawFacilities(venue, preset, &rng);
    IflsContext ctx;
    ctx.oracle = &*tree;
    ctx.existing = sets.existing;
    ctx.candidates = sets.candidates;
    ctx.clients = DrawClients(venue, kSweepClients, &rng);
    for (IflsObjective objective : kObjectives) {
      Result<IflsResult> r = SolveWithObjective(objective, ctx);
      if (!r.ok()) {
        ++bad;
        continue;
      }
      const std::string prefix = std::string("sweep.") + VenuePresetName(preset) +
                                 "." + IflsObjectiveName(objective) + ".";
      auto& m = report->metrics;
      m[prefix + "door_distance_evals"] =
          static_cast<double>(r->stats.door_distance_evals);
      m[prefix + "matrix_lookups"] = static_cast<double>(r->stats.matrix_lookups);
      m[prefix + "kernel_invocations"] =
          static_cast<double>(r->stats.kernel_invocations);
    }
  }
  report->Count(12, bad, "counter sweep");
}

}  // namespace perfbench
