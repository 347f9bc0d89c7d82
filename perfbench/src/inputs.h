// Inputs of every workload, generated from the run's seed. The program
// under test only ever sees what these functions return: a preset venue
// (or the v3 snapshot written from it), facility sets and client sets.
#ifndef PERFBENCH_SRC_INPUTS_H_
#define PERFBENCH_SRC_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/datasets/facility_selector.h"
#include "src/datasets/presets.h"
#include "src/indoor/venue.h"

namespace perfbench {

/// Prints `what` and the status to stderr and exits with code 2 when the
/// status is not ok. Set-up failures are not measurable runs.
void Require(const ifls::Status& status, const std::string& what);

/// Seed of one input stream of a workload: distinct streams of one run (or
/// the same stream under another workload name) never share draws.
std::uint64_t StreamSeed(std::uint64_t seed, const std::string& stream);

/// Seed of the facility layout the serving workloads deploy. A served venue
/// has one layout, fixed like the venue itself, so runs with different seeds
/// serve the same layout; the run's seed draws the traffic on top of it
/// (clients, the writer's rooms, standing queries).
inline constexpr std::uint64_t kServedFacilitySeed = 20230328;

ifls::Venue BuildVenue(ifls::VenuePreset preset);

/// The paper's Table 2 defaults for the preset: |Fe| and |Fn| are the middle
/// values of the preset's parameter grid (MC: 75 and 150).
ifls::FacilitySets DrawFacilities(const ifls::Venue& venue,
                                  ifls::VenuePreset preset, ifls::Rng* rng);

/// `count` clients uniform over the venue's walkable area.
std::vector<ifls::Client> DrawClients(const ifls::Venue& venue,
                                      std::size_t count, ifls::Rng* rng);

/// Rooms holding neither role: the pool the churn writer opens facilities
/// and candidates in.
std::vector<ifls::PartitionId> FreeRooms(const ifls::Venue& venue,
                                         const ifls::FacilitySets& sets);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_INPUTS_H_
