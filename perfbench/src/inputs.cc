#include "perfbench/src/inputs.h"

#include <algorithm>
#include <cstdlib>
#include <iostream>

#include "src/common/hash.h"
#include "src/datasets/client_generator.h"
#include "src/datasets/workload.h"

namespace perfbench {

using namespace ifls;

void Require(const Status& status, const std::string& what) {
  if (status.ok()) return;
  std::cerr << "perfbench: " << what << ": " << status.ToString() << "\n";
  std::exit(2);
}

std::uint64_t StreamSeed(std::uint64_t seed, const std::string& stream) {
  return Fnv1a64(stream.data(), stream.size()) ^ (seed * 0x9E3779B97F4A7C15ull);
}

Venue BuildVenue(VenuePreset preset) {
  Result<Venue> venue = BuildPresetVenue(preset);
  Require(venue.status(), std::string("building venue ") +
                              VenuePresetName(preset));
  return std::move(*venue);
}

FacilitySets DrawFacilities(const Venue& venue, VenuePreset preset, Rng* rng) {
  const ParameterGrid grid = PresetParameterGrid(preset);
  Result<FacilitySets> sets = SelectUniformFacilities(
      venue, grid.default_existing, grid.default_candidates, rng);
  Require(sets.status(), "drawing facilities");
  return std::move(*sets);
}

std::vector<Client> DrawClients(const Venue& venue, std::size_t count,
                                Rng* rng) {
  return GenerateClients(venue, count, ClientGeneratorOptions{}, rng);
}

std::vector<PartitionId> FreeRooms(const Venue& venue,
                                   const FacilitySets& sets) {
  std::vector<bool> taken(venue.num_partitions(), false);
  for (PartitionId p : sets.existing) taken[static_cast<std::size_t>(p)] = true;
  for (PartitionId p : sets.candidates) taken[static_cast<std::size_t>(p)] = true;
  std::vector<PartitionId> free;
  for (const Partition& p : venue.partitions()) {
    if (p.kind == PartitionKind::kRoom && !taken[static_cast<std::size_t>(p.id)]) {
      free.push_back(p.id);
    }
  }
  return free;
}

}  // namespace perfbench
