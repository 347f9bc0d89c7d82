// The three workloads, the layer probes they share, and the deterministic
// counter sweep. Each Run* function fills `report` with the end-to-end
// metrics (untraced run) or the per-layer metrics (traced run). A per-layer
// metric a workload does not produce must be declared bypassed for that
// workload in perfbench/run.py, which reports it as 0.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/src/util.h"
#include "src/core/query.h"
#include "src/core/solve_dispatch.h"
#include "src/index/vip_tree.h"
#include "src/net/wire.h"
#include "src/service/service.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for this run (snapshots, span dumps).
  std::string work_dir;
};

void RunPaperMc(const RunConfig& config, Report* report);
void RunServeMc(const RunConfig& config, Report* report);
void RunChurnMzb(const RunConfig& config, Report* report);

/// Objectives in the rotation every workload uses.
inline constexpr ifls::IflsObjective kObjectives[3] = {
    ifls::IflsObjective::kMinMax, ifls::IflsObjective::kMinDist,
    ifls::IflsObjective::kMaxSum};

/// True when two results are the same answer to the last bit.
bool SameAnswer(const ifls::IflsResult& a, const ifls::IflsResult& b);

/// True when `result` is an optimal answer of `objective` on `ctx`, judged
/// against `reference` (another exact solver's answer on the same context)
/// by re-evaluating both exactly. Different algorithms may sum in different
/// orders, so objective values are compared to a relative 1e-9.
bool Certify(ifls::IflsObjective objective, const ifls::IflsContext& ctx,
             const ifls::IflsResult& result, const ifls::IflsResult& reference);

/// paper_mc groups its tail samples into this many blocks of equal duration
/// and churn_mzb runs this many traffic windows (serve_mc uses its traffic
/// blocks); a tail metric (p90, p99) is the median of the blocks' tails
/// (MedianOfBlockQuantiles).
inline constexpr int kTimeBlocks = 9;

/// The block of `kTimeBlocks` that time `t` of a window [start, start +
/// seconds) falls in.
int TimeBlockOf(double t, double start, double seconds);

/// Solver inputs of `state` (its oracle and effective facility sets), with
/// no clients.
ifls::IflsContext ContextOf(const ifls::ServingState& state);

/// One query of a solver replay. When `truth` is set the replayed answer
/// must match it bit for bit.
struct ReplayQuery {
  ifls::IflsObjective objective = ifls::IflsObjective::kMinMax;
  const std::vector<ifls::Client>* clients = nullptr;
  const ifls::IflsResult* truth = nullptr;
};

/// The core layer alone: replays `queries` with SolveWithObjective on one
/// pinned AcquireState() of `service`, on this thread, each under an
/// e2e.core_replay / core.solve span pair, and reports core.solve_ms_p50,
/// core.solve_cpu_ms_p50 and the QueryStats metrics. Failed solves and
/// mismatches are counted under `what`.
void ReplayCore(const ifls::IflsService& service,
                const std::vector<ReplayQuery>& queries, const std::string& what,
                Report* report);

/// index.door_cache_hit_ratio (base: hits + misses) and
/// index.door_cache_evictions from the service's counters.
void AddDoorCacheMetrics(const ifls::ServiceMetrics& metrics, Report* report);

/// Per-query means of the solver and index counters of `stats` (core.* and
/// index.*), the mean peak memory, and the door-cache hit ratio over the
/// queries' hits + misses.
void AddQueryStatsMetrics(const std::vector<ifls::QueryStats>& stats,
                          Report* report);

/// kernels.*_ns: each public min-plus kernel, called on the real matrices
/// of `tree` (so the widths are the workload's own).
void ProbeKernels(const ifls::VipTree& tree, std::uint64_t seed,
                  Report* report);

/// index.door_to_door_ns and index.point_to_partition_ns: the public oracle
/// calls on door pairs and (client, facility) pairs drawn from the
/// workload's own inputs.
void ProbeOracle(const ifls::DistanceOracle& oracle,
                 const std::vector<ifls::Client>& clients,
                 const std::vector<ifls::PartitionId>& facilities,
                 Report* report);

/// net.encode_ns and net.decode_ns on the workload's query frames.
void ProbeWire(const std::vector<ifls::WireQueryRequest>& requests,
               Report* report);

/// sweep.<preset>.<objective>.{door_distance_evals,matrix_lookups,
/// kernel_invocations}: fixed inputs on all four presets, no timing.
void RunSweep(Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
