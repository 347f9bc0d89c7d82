// paper_mc: the paper's experiment path, in process, one thread, closed
// loop. Melbourne Central with the Table 2 defaults (|Fe| = 75, |Fn| = 150)
// redrawn every 24 queries, as the paper averages over workload draws, and
// 500 uniform clients drawn fresh for every query; the efficient
// approach runs MinMax / MinDist / MaxSum in rotation and every 18th query
// (a MinMax one) also runs the modified MinMax baseline. The index uses the
// default VipTreeOptions, so the door cache is off: the solver and the
// uncached oracle do nearly all the work, and no service or network layer
// is on the query path.

#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/inputs.h"
#include "perfbench/src/workloads.h"
#include "src/core/brute_force.h"
#include "src/core/minmax_baseline.h"
#include "src/index/facility_index.h"

namespace perfbench {

using namespace ifls;

namespace {

constexpr std::size_t kClientsPerQuery = 500;
constexpr int kBaselineEvery = 18;  // a multiple of 3, so always MinMax
// Fe and Fn are redrawn this often, so a run averages over many facility
// layouts and two seeds see the same mix.
constexpr int kQueriesPerDraw = 24;
// MinDist / MaxSum queries kept for the (slow) brute-force check.
constexpr int kBruteForceChecksPerObjective = 3;
constexpr int kBruteForceStride = 97;
// Set-up is timed this many times before the loop, then once every
// kSetupEvery queries, so its median samples the whole run.
constexpr int kSetupsBefore = 5;
constexpr int kSetupEvery = 40;

struct Kept {
  IflsObjective objective;
  FacilitySets sets;
  std::vector<Client> clients;
  IflsResult efficient;
  IflsResult baseline;
};

struct LoopResult {
  std::vector<double> ea_cpu_ms, ea_ms_traced, baseline_ms;
  std::vector<double> setup_s, build_s;
  // Untraced EA solve times by time block.
  std::vector<std::vector<double>> ea_ms =
      std::vector<std::vector<double>>(kTimeBlocks);
  std::vector<QueryStats> ea_stats, baseline_stats;
  std::vector<Kept> baseline_checks, brute_checks;
  std::int64_t ea_queries = 0, baseline_queries = 0, errors = 0;
  double ea_seconds = 0.0;
};

// Set-up as a user of the paper path pays it: build the venue, build the
// index. The result is dropped; the loop keeps its own copy.
void TimeSetup(LoopResult* out) {
  const double t0 = NowSeconds();
  const Venue venue = BuildVenue(VenuePreset::kMelbourneCentral);
  const double t1 = NowSeconds();
  Result<VipTree> tree = VipTree::Build(&venue);
  Require(tree.status(), "building the MC index");
  const double t2 = NowSeconds();
  out->setup_s.push_back(t2 - t0);
  out->build_s.push_back(t2 - t1);
}

// The closed loop. With `trace`, blocks of 12 queries alternate between
// untraced and traced, so trace.overhead_frac compares interleaved samples.
void RunLoop(const VipTree& tree, Rng* facility_rng, Rng* client_rng,
             double seconds, bool trace, LoopResult* out) {
  FacilitySets sets;
  std::unique_ptr<FacilityIndex> offline;  // the baseline's offline Fe index
  MinMaxBaselineOptions baseline_options;
  IflsContext ctx;
  ctx.oracle = &tree;
  int brute_kept[3] = {0, 0, 0};
  const double start = NowSeconds();
  const double deadline = start + seconds;
  for (int i = 0; NowSeconds() < deadline; ++i) {
    const int block = TimeBlockOf(NowSeconds(), start, seconds);
    if (i % kQueriesPerDraw == 0) {
      sets = DrawFacilities(tree.venue(), VenuePreset::kMelbourneCentral,
                            facility_rng);
      ctx.existing = sets.existing;
      ctx.candidates = sets.candidates;
      offline = std::make_unique<FacilityIndex>(&tree, sets.existing);
      baseline_options.offline_existing_index = offline.get();
    }
    const IflsObjective objective = kObjectives[i % 3];
    ctx.clients = DrawClients(tree.venue(), kClientsPerQuery, client_rng);
    const bool traced = trace && (i / 12) % 2 == 1;
    Result<IflsResult> ea = Status::OK();
    double wall = 0.0, cpu = 0.0;
    {
      ScopedSpan root(traced ? "e2e.query" : nullptr);
      ScopedSpan span(traced ? "core.solve" : nullptr);
      const double cpu0 = ThreadCpuSeconds();
      const double t0 = NowSeconds();
      ea = SolveWithObjective(objective, ctx);
      wall = NowSeconds() - t0;
      cpu = ThreadCpuSeconds() - cpu0;
    }
    ++out->ea_queries;
    if (i % kSetupEvery == kSetupEvery - 1) TimeSetup(out);
    if (!ea.ok()) {
      ++out->errors;
      continue;
    }
    (traced ? out->ea_ms_traced : out->ea_ms[block]).push_back(wall * 1e3);
    out->ea_cpu_ms.push_back(cpu * 1e3);
    out->ea_seconds += wall;
    out->ea_stats.push_back(ea->stats);
    if (i % kBaselineEvery == 0) {
      Result<IflsResult> baseline = Status::OK();
      {
        ScopedSpan root(traced ? "e2e.baseline" : nullptr);
        ScopedSpan span(traced ? "core.baseline" : nullptr);
        const double t0 = NowSeconds();
        baseline = SolveModifiedMinMax(ctx, baseline_options);
        out->baseline_ms.push_back((NowSeconds() - t0) * 1e3);
      }
      ++out->baseline_queries;
      if (!baseline.ok()) {
        ++out->errors;
      } else {
        out->baseline_stats.push_back(baseline->stats);
        out->baseline_checks.push_back({objective, sets, ctx.clients,
                                        std::move(*ea), std::move(*baseline)});
      }
    } else if (objective != IflsObjective::kMinMax && i % kBruteForceStride < 3 &&
               brute_kept[i % 3] < kBruteForceChecksPerObjective) {
      ++brute_kept[i % 3];
      out->brute_checks.push_back(
          {objective, sets, ctx.clients, std::move(*ea), {}});
    }
  }
}

// Untimed answer checks: EA MinMax certified against the baseline, and the
// kept MinDist / MaxSum answers against the brute-force solver.
void CheckAnswers(const VipTree& tree, const LoopResult& loop, Report* report) {
  IflsContext ctx;
  ctx.oracle = &tree;
  auto use = [&ctx](const Kept& k) {
    ctx.existing = k.sets.existing;
    ctx.candidates = k.sets.candidates;
    ctx.clients = k.clients;
  };
  std::int64_t bad = 0;
  for (const Kept& k : loop.baseline_checks) {
    use(k);
    if (!Certify(k.objective, ctx, k.efficient, k.baseline)) ++bad;
  }
  for (const Kept& k : loop.brute_checks) {
    use(k);
    Result<IflsResult> brute = k.objective == IflsObjective::kMinDist
                                   ? SolveBruteForceMinDist(ctx)
                                   : SolveBruteForceMaxSum(ctx);
    if (!brute.ok() || !Certify(k.objective, ctx, k.efficient, *brute)) ++bad;
  }
  report->Count(0, bad, "paper_mc answer certification");
  report->info["checks.certified"] = static_cast<double>(
      loop.baseline_checks.size() + loop.brute_checks.size());
}

}  // namespace

void RunPaperMc(const RunConfig& config, Report* report) {
  const PinnedCpu pinned;
  report->envelope["cpu"] = std::to_string(pinned.cpu());
  LoopResult loop;
  for (int i = 0; i < kSetupsBefore; ++i) TimeSetup(&loop);
  const Venue venue = BuildVenue(VenuePreset::kMelbourneCentral);
  Result<VipTree> tree = VipTree::Build(&venue);
  Require(tree.status(), "building the MC index");

  Rng client_rng(StreamSeed(config.seed, "paper_mc/clients"));
  Rng facility_rng(StreamSeed(config.seed, "paper_mc/facilities"));
  RunLoop(*tree, &facility_rng, &client_rng, config.seconds, config.trace,
          &loop);
  report->Count(loop.ea_queries + loop.baseline_queries, loop.errors,
                "paper_mc solver calls");
  CheckAnswers(*tree, loop, report);

  auto& m = report->metrics;
  const std::vector<double> ea_ms = Flatten(loop.ea_ms);
  if (!config.trace) {
    double peak_bytes = 0.0;
    for (const QueryStats& s : loop.ea_stats) {
      peak_bytes += static_cast<double>(s.peak_memory_bytes);
    }
    m["setup_s"] = Quantile(loop.setup_s, 0.5);
    m["query_ms_p50"] = Quantile(ea_ms, 0.5);
    m["query_ms_p90"] = MedianOfBlockQuantiles(loop.ea_ms, 0.90);
    report->info["query_ms_p99"] = MedianOfBlockQuantiles(loop.ea_ms, 0.99);
    m["query_qps"] = static_cast<double>(ea_ms.size()) / loop.ea_seconds;
    m["baseline_ms_p50"] = Quantile(loop.baseline_ms, 0.5);
    m["solver_peak_kib"] =
        peak_bytes / static_cast<double>(loop.ea_stats.size()) / 1024.0;
    report->info["samples.query"] = static_cast<double>(ea_ms.size());
    report->info["samples.baseline"] = static_cast<double>(loop.baseline_ms.size());
    report->info["samples.setup"] = static_cast<double>(loop.setup_s.size());
    return;
  }

  // Traced run: per-layer numbers.
  AddQueryStatsMetrics(loop.ea_stats, report);
  double nn_searches = 0.0;
  for (const QueryStats& s : loop.baseline_stats) {
    nn_searches += static_cast<double>(s.nn_searches);
  }
  m["core.baseline_nn_searches"] =
      loop.baseline_stats.empty()
          ? 0.0
          : nn_searches / static_cast<double>(loop.baseline_stats.size());
  m["core.solve_ms_p50"] = Quantile(ea_ms, 0.5);
  m["core.solve_cpu_ms_p50"] = Quantile(loop.ea_cpu_ms, 0.5);
  m["index.tree_build_s"] = Quantile(loop.build_s, 0.5);
  m["trace.overhead_frac"] =
      Quantile(loop.ea_ms_traced, 0.5) / Quantile(ea_ms, 0.5) - 1.0;

  Rng probe_rng(StreamSeed(config.seed, "paper_mc/probes"));
  const std::vector<Client> probe_clients =
      DrawClients(venue, kClientsPerQuery, &probe_rng);
  const FacilitySets sets =
      DrawFacilities(venue, VenuePreset::kMelbourneCentral, &probe_rng);
  std::vector<PartitionId> facilities = sets.existing;
  facilities.insert(facilities.end(), sets.candidates.begin(),
                    sets.candidates.end());
  ProbeKernels(*tree, config.seed, report);
  ProbeOracle(*tree, probe_clients, facilities, report);
  std::vector<WireQueryRequest> requests(3);
  for (WireQueryRequest& r : requests) {
    r.clients = DrawClients(venue, kClientsPerQuery, &probe_rng);
  }
  ProbeWire(requests, report);
}

}  // namespace perfbench
