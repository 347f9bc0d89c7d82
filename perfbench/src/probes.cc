// Layer probes shared by the workloads: solver/index counters from
// QueryStats, the min-plus kernels and oracle calls timed in isolation on
// the workload's own tree, and the wire codec on the workload's frames.

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/workloads.h"
#include "src/common/rng.h"
#include "src/index/minplus_kernels.h"

namespace perfbench {

using namespace ifls;

bool SameAnswer(const IflsResult& a, const IflsResult& b) {
  return a.found == b.found && a.answer == b.answer &&
         std::bit_cast<std::uint64_t>(a.objective) ==
             std::bit_cast<std::uint64_t>(b.objective);
}

namespace {

double Evaluate(IflsObjective objective, const IflsContext& ctx,
                PartitionId n) {
  switch (objective) {
    case IflsObjective::kMinMax: return EvaluateMinMax(ctx, n);
    case IflsObjective::kMinDist: return EvaluateMinDist(ctx, n);
    case IflsObjective::kMaxSum: return EvaluateMaxSum(ctx, n);
  }
  return 0.0;
}

double NoFacility(IflsObjective objective, const IflsContext& ctx) {
  switch (objective) {
    case IflsObjective::kMinMax: return NoFacilityMinMax(ctx);
    case IflsObjective::kMinDist: return NoFacilityMinDist(ctx);
    case IflsObjective::kMaxSum: return 0.0;
  }
  return 0.0;
}

bool Near(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

}  // namespace

bool Certify(IflsObjective objective, const IflsContext& ctx,
             const IflsResult& result, const IflsResult& reference) {
  // Two exact solvers that pick the same candidate agree; re-evaluation is
  // only needed to settle ties between different candidates.
  if (result.found == reference.found &&
      (!result.found || result.answer == reference.answer)) {
    return true;
  }
  if (!reference.found) {
    // Declining is right when no candidate improves the objective.
    return !result.found ||
           Near(Evaluate(objective, ctx, result.answer),
                NoFacility(objective, ctx));
  }
  if (!result.found) {
    return Near(Evaluate(objective, ctx, reference.answer),
                NoFacility(objective, ctx));
  }
  return Near(Evaluate(objective, ctx, result.answer),
              Evaluate(objective, ctx, reference.answer));
}

int TimeBlockOf(double t, double start, double seconds) {
  const auto block = static_cast<int>((t - start) / seconds * kTimeBlocks);
  return std::clamp(block, 0, kTimeBlocks - 1);
}

IflsContext ContextOf(const ServingState& state) {
  IflsContext ctx;
  ctx.oracle = &state.oracle();
  ctx.existing = state.overlay.effective_existing();
  ctx.candidates = state.overlay.effective_candidates();
  return ctx;
}

void ReplayCore(const IflsService& service,
                const std::vector<ReplayQuery>& queries, const std::string& what,
                Report* report) {
  const std::shared_ptr<const ServingState> state = service.AcquireState();
  IflsContext ctx = ContextOf(*state);
  std::vector<double> wall, cpu;
  std::vector<QueryStats> stats;
  std::int64_t bad = 0;
  for (const ReplayQuery& q : queries) {
    ctx.clients = *q.clients;
    Result<IflsResult> r = Status::OK();
    {
      ScopedSpan root("e2e.core_replay");
      ScopedSpan span("core.solve");
      const double c0 = ThreadCpuSeconds();
      const double t0 = NowSeconds();
      r = SolveWithObjective(q.objective, ctx, service.options().solvers);
      wall.push_back((NowSeconds() - t0) * 1e3);
      cpu.push_back((ThreadCpuSeconds() - c0) * 1e3);
    }
    if (!r.ok() || (q.truth != nullptr && !SameAnswer(*r, *q.truth))) {
      ++bad;
      continue;
    }
    stats.push_back(r->stats);
  }
  report->Count(static_cast<std::int64_t>(queries.size()), bad, what);
  AddQueryStatsMetrics(stats, report);
  report->metrics["core.solve_ms_p50"] = Quantile(wall, 0.5);
  report->metrics["core.solve_cpu_ms_p50"] = Quantile(cpu, 0.5);
}

void AddDoorCacheMetrics(const ServiceMetrics& metrics, Report* report) {
  const double lookups = static_cast<double>(metrics.oracle_cache_hits +
                                             metrics.oracle_cache_misses);
  report->metrics["index.door_cache_hit_ratio"] =
      lookups > 0 ? static_cast<double>(metrics.oracle_cache_hits) / lookups
                  : 0.0;
  report->metrics["index.door_cache_evictions"] =
      static_cast<double>(metrics.oracle_cache_evictions);
}

void AddQueryStatsMetrics(const std::vector<QueryStats>& stats,
                          Report* report) {
  if (stats.empty()) return;
  double distance = 0, lower_bound = 0, pops = 0, pruned = 0, check_list = 0,
         check_answer = 0, retrieved = 0, peak = 0, evals = 0, lookups = 0,
         kernels = 0, fallbacks = 0, hits = 0, misses = 0;
  for (const QueryStats& s : stats) {
    distance += static_cast<double>(s.distance_computations);
    lower_bound += static_cast<double>(s.lower_bound_computations);
    pops += static_cast<double>(s.queue_pops);
    pruned += static_cast<double>(s.clients_pruned);
    check_list += static_cast<double>(s.check_list_calls);
    check_answer += static_cast<double>(s.check_answer_calls);
    retrieved += static_cast<double>(s.facilities_retrieved);
    peak += static_cast<double>(s.peak_memory_bytes);
    evals += static_cast<double>(s.door_distance_evals);
    lookups += static_cast<double>(s.matrix_lookups);
    kernels += static_cast<double>(s.kernel_invocations);
    fallbacks += static_cast<double>(s.dijkstra_fallbacks);
    hits += static_cast<double>(s.cache_hits);
    misses += static_cast<double>(s.cache_misses);
  }
  const double n = static_cast<double>(stats.size());
  auto& m = report->metrics;
  m["core.distance_computations"] = distance / n;
  m["core.lower_bound_computations"] = lower_bound / n;
  m["core.queue_pops"] = pops / n;
  m["core.clients_pruned"] = pruned / n;
  m["core.check_list_calls"] = check_list / n;
  m["core.check_answer_calls"] = check_answer / n;
  m["core.facilities_retrieved"] = retrieved / n;
  m["core.peak_memory_kib"] = peak / n / 1024.0;
  m["index.door_distance_evals"] = evals / n;
  m["index.matrix_lookups"] = lookups / n;
  m["index.kernel_invocations"] = kernels / n;
  m["index.dijkstra_fallbacks"] = fallbacks / n;
  m["index.door_cache_hit_ratio"] =
      hits + misses > 0 ? hits / (hits + misses) : 0.0;
}

namespace {

/// Runs `call` over and over for at least `min_seconds` and returns the
/// mean nanoseconds per call. `call` returns how many kernel calls it made.
template <typename Fn>
double NanosPerCall(double min_seconds, Fn&& call) {
  std::uint64_t calls = 0;
  const double start = NowSeconds();
  double now = start;
  while (now - start < min_seconds) {
    for (int i = 0; i < 64; ++i) calls += call();
    now = NowSeconds();
  }
  return calls ? (now - start) * 1e9 / static_cast<double>(calls) : 0.0;
}

// Keeps the probed results observable so no call is optimized away.
volatile double g_sink = 0.0;

struct KernelCase {
  const double* matrix = nullptr;
  std::size_t stride = 0;
  std::vector<std::int32_t> rows;  // child 0's access doors in the node
  std::vector<std::int32_t> cols;  // child 1's access doors in the node
  std::vector<double> a, b, out, wide_a, wide_b;
};

}  // namespace

void ProbeKernels(const VipTree& tree, std::uint64_t seed, Report* report) {
  // One case per internal node with two non-empty child access lists: the
  // LCA composition shape DoorToDoor runs on that node's matrix.
  Rng rng(seed);
  std::vector<KernelCase> cases;
  for (NodeId id = 0; id < static_cast<NodeId>(tree.num_nodes()); ++id) {
    const VipNode& node = tree.node(id);
    if (node.is_leaf() || node.children.size() < 2) continue;
    const auto rows = node.child_access_idx(0);
    const auto cols = node.child_access_idx(1);
    if (rows.empty() || cols.empty() || node.matrix.empty()) continue;
    KernelCase c;
    c.matrix = node.matrix.dist_data();
    c.stride = node.matrix.num_cols();
    c.rows.assign(rows.begin(), rows.end());
    c.cols.assign(cols.begin(), cols.end());
    for (std::size_t i = 0; i < c.rows.size(); ++i) c.a.push_back(rng.NextUniform(0, 50));
    for (std::size_t j = 0; j < c.cols.size(); ++j) c.b.push_back(rng.NextUniform(0, 50));
    for (std::size_t k = 0; k < c.stride; ++k) {
      c.wide_a.push_back(rng.NextUniform(0, 50));
      c.wide_b.push_back(rng.NextUniform(0, 50));
    }
    c.out.resize(c.cols.size());
    cases.push_back(std::move(c));
  }
  if (cases.empty()) return;
  constexpr double kSeconds = 0.15;
  std::size_t next = 0;
  auto pick = [&]() -> KernelCase& { return cases[next++ % cases.size()]; };
  auto& m = report->metrics;
  m["kernels.compose_ns"] = NanosPerCall(kSeconds, [&] {
    KernelCase& c = pick();
    kernels::MinPlusCompose(c.a.data(), c.rows.data(), c.rows.size(),
                            c.cols.data(), c.cols.size(), c.matrix, c.stride,
                            c.out.data());
    g_sink = g_sink + c.out[0];
    return 1;
  });
  m["kernels.join_ns"] = NanosPerCall(kSeconds, [&] {
    KernelCase& c = pick();
    g_sink = g_sink + kernels::MinPlusJoin(c.a.data(), c.rows.data(),
                                           c.rows.size(), c.b.data(),
                                           c.cols.data(), c.cols.size(),
                                           c.matrix, c.stride);
    return 1;
  });
  m["kernels.gather_add_ns"] = NanosPerCall(kSeconds, [&] {
    KernelCase& c = pick();
    const double* row = c.matrix + static_cast<std::size_t>(c.rows[0]) * c.stride;
    g_sink = g_sink + kernels::MinPlusGatherAdd(c.a[0], row, c.cols.data(),
                                                c.b.data(), c.cols.size());
    return 1;
  });
  m["kernels.pairwise_ns"] = NanosPerCall(kSeconds, [&] {
    KernelCase& c = pick();
    g_sink = g_sink + kernels::MinPlusPairwise(c.wide_a.data(), c.wide_b.data(),
                                               c.stride);
    return 1;
  });
  m["kernels.argmin_ns"] = NanosPerCall(kSeconds, [&] {
    KernelCase& c = pick();
    const double* row = c.matrix + static_cast<std::size_t>(c.rows[0]) * c.stride;
    g_sink = g_sink + static_cast<double>(
                          kernels::MinPlusArgmin(c.a[0], row, c.stride));
    return 1;
  });
}

void ProbeOracle(const DistanceOracle& oracle, const std::vector<Client>& clients,
                 const std::vector<PartitionId>& facilities, Report* report) {
  if (clients.empty() || facilities.empty()) return;
  const Venue& venue = oracle.venue();
  std::vector<std::pair<DoorId, DoorId>> door_pairs;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    const auto& from = venue.DoorsOf(clients[i].partition);
    const auto& to = venue.DoorsOf(facilities[i % facilities.size()]);
    if (from.empty() || to.empty()) continue;
    door_pairs.emplace_back(from[i % from.size()], to[i % to.size()]);
  }
  constexpr double kSeconds = 0.25;
  std::size_t next = 0;
  auto& m = report->metrics;
  if (!door_pairs.empty()) {
    m["index.door_to_door_ns"] = NanosPerCall(kSeconds, [&] {
      const auto& [a, b] = door_pairs[next++ % door_pairs.size()];
      g_sink = g_sink + oracle.DoorToDoor(a, b);
      return 1;
    });
  }
  next = 0;
  m["index.point_to_partition_ns"] = NanosPerCall(kSeconds, [&] {
    const std::size_t i = next++;
    const Client& c = clients[i % clients.size()];
    g_sink = g_sink + oracle.PointToPartition(
                          c.position, c.partition,
                          facilities[(i / clients.size() + i) % facilities.size()]);
    return 1;
  });
}

void ProbeWire(const std::vector<WireQueryRequest>& requests, Report* report) {
  if (requests.empty()) return;
  constexpr double kSeconds = 0.15;
  std::size_t next = 0;
  auto& m = report->metrics;
  m["net.encode_ns"] = NanosPerCall(kSeconds, [&] {
    const std::size_t i = next++;
    const std::string frame = EncodeQueryFrame(
        i + 1, kObjectives[i % 3], requests[i % requests.size()]);
    g_sink = g_sink + static_cast<double>(frame.size());
    return 1;
  });
  // Response frames as the server sends them for these queries.
  std::vector<std::string> frames;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    WireQueryResponse response;
    response.found = true;
    response.answer = static_cast<PartitionId>(i);
    response.objective = 10.0 + static_cast<double>(i);
    response.batch_size = 1;
    frames.push_back(EncodeQueryResultFrame(i + 1, response));
  }
  ByteRing ring;
  next = 0;
  m["net.decode_ns"] = NanosPerCall(kSeconds, [&] {
    const std::string& frame = frames[next++ % frames.size()];
    ring.Append(frame.data(), frame.size());
    Result<std::optional<WireFrame>> decoded = TryDecodeFrame(&ring);
    if (decoded.ok() && decoded->has_value()) {
      Result<WireQueryResponse> response =
          DecodeQueryResponse((*decoded)->payload);
      if (response.ok()) g_sink = g_sink + response->objective;
    }
    return 1;
  });
}

}  // namespace perfbench
