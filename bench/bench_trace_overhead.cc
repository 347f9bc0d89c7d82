// Cost of the tracing instrumentation (src/common/trace.h) on solver
// throughput, measured per objective at 1 and 8 threads in three modes:
//
//   disabled   — tracing off: every TraceSpan construction is one relaxed
//                atomic load (the steady-state production configuration);
//   sampled_16 — tracing on with 1-in-16 query sampling (the recommended
//                always-on setting);
//   full       — tracing on, every query sampled (worst case: every span
//                through solver, oracle and cache layers hits the ring).
//
// Every traced answer is differential-checked bit-identical to the disabled
// run — spans must never perturb the computation. When the committed
// BENCH_solver_throughput.json (the PR that introduced SIMD kernels + the
// sharded cache) is present in the working directory, its per-objective
// "after_qps" figures are parsed back in and the disabled-mode delta against
// that baseline is reported, locking in the "<2% when off" budget.
//
// A second, networked phase (report v2, DESIGN.md §15) runs the same
// measurement end to end over the wire server: client-side RPC spans, the
// trace-context frame extension, server-side context adoption and the
// per-query cost ledger all engaged, at three sampling settings — off
// (context-free frames, the steady-state config), 1-in-64, and full. The
// "off" row quantifies the cost of the always-on ledger plus the disabled
// trace checks; the sampled rows price the propagation machinery itself.
//
// Writes BENCH_trace_overhead.json (shared schema, src/benchlib).
// Scale via IFLS_BENCH_SCALE=smoke|default|full.

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/benchlib/harness.h"
#include "src/benchlib/json_report.h"
#include "src/benchlib/table.h"
#include "src/common/logging.h"
#include "src/common/stopwatch.h"
#include "src/common/trace.h"
#include "src/core/solve_dispatch.h"
#include "src/datasets/client_generator.h"
#include "src/datasets/facility_selector.h"
#include "src/datasets/presets.h"
#include "src/datasets/workload.h"
#include "src/index/vip_tree.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/service/service.h"

namespace ifls {
namespace {

struct TraceMode {
  const char* name;
  bool enabled = false;
  std::uint32_t sample_every = 1;
};

constexpr TraceMode kModes[] = {
    {"disabled", false, 1},
    {"sampled_16", true, 16},
    {"full", true, 1},
};

/// Runs every context through SolveWithObjective on `threads` workers, each
/// query under its own TraceIdScope (the same per-query attribution the
/// service installs), and returns wall-clock queries/sec. Answers land in
/// `results` by query index regardless of completion order.
double RunQueries(const std::vector<IflsContext>& queries,
                  IflsObjective objective, int threads,
                  std::vector<IflsResult>* results) {
  results->assign(queries.size(), IflsResult{});
  std::atomic<std::size_t> next{0};
  TraceRecorder& recorder = TraceRecorder::Global();
  Stopwatch watch;
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= queries.size()) return;
        std::uint64_t trace_id = 0;
        bool sampled = false;
        if (TraceEnabled()) {
          trace_id = recorder.NewTraceId();
          sampled = recorder.Sampled(trace_id);
        }
        TraceIdScope scope(trace_id, sampled);
        TraceSpan span(TraceCategory::kService, "bench_query");
        Result<IflsResult> solved = SolveWithObjective(objective, queries[i]);
        IFLS_CHECK(solved.ok()) << solved.status().ToString();
        (*results)[i] = std::move(solved).value();
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const double seconds = watch.ElapsedSeconds();
  return seconds > 0.0 ? static_cast<double>(queries.size()) / seconds : 0.0;
}

struct OverheadRow {
  std::string objective;
  int threads = 0;
  double qps[3] = {0.0, 0.0, 0.0};  // by kModes index
  double OverheadPct(int mode) const {
    return qps[0] > 0.0 ? (qps[0] / qps[mode] - 1.0) * 100.0 : 0.0;
  }
};

/// Pulls {objective, threads} -> after_qps out of the committed
/// BENCH_solver_throughput.json with a line scanner (the rows are one
/// key per line, so full JSON parsing is unnecessary). Empty on any miss.
std::vector<std::pair<std::string, double>> LoadBaselineQps(
    const std::string& path) {
  std::vector<std::pair<std::string, double>> baseline;
  std::ifstream in(path);
  if (!in) return baseline;
  std::string line;
  std::string objective;
  int threads = -1;
  const auto value_after = [&line](const char* key) -> std::string {
    const std::size_t pos = line.find(key);
    if (pos == std::string::npos) return "";
    std::string v = line.substr(pos + std::string(key).size());
    while (!v.empty() && (v.back() == ',' || v.back() == ' ')) v.pop_back();
    return v;
  };
  while (std::getline(in, line)) {
    if (std::string v = value_after("\"objective\": \""); !v.empty()) {
      objective = v.substr(0, v.find('"'));
    } else if (std::string v = value_after("\"threads\": "); !v.empty()) {
      threads = std::atoi(v.c_str());
    } else if (std::string v = value_after("\"after_qps\": "); !v.empty()) {
      if (!objective.empty() && threads > 0) {
        baseline.emplace_back(objective + "/" + std::to_string(threads),
                              std::strtod(v.c_str(), nullptr));
      }
    }
  }
  return baseline;
}

// ------------------------------------------------------- networked phase

struct NetModeRow {
  std::string mode;
  double qps = 0.0;
  double overhead_pct = 0.0;  // vs the "off" row
};

/// One query of the networked pool with its in-process ground truth.
struct NetPoolEntry {
  IflsObjective objective = IflsObjective::kMinMax;
  WireQueryRequest request;
  IflsResult expected;
};

/// Drives `threads` connections of blocking RPCs over the query pool, each
/// query under the same mint-id/scope idiom `ifls_cli trace --remote` uses
/// (so sampled modes attach the trace-context frame extension and the server
/// adopts it). Returns wall-clock queries/sec; clears `identical` on any
/// answer that diverges from the in-process ground truth.
double RunNetworkedQueries(std::uint16_t port,
                           const std::vector<NetPoolEntry>& pool, int threads,
                           std::size_t queries_per_thread, bool* identical) {
  std::vector<std::unique_ptr<IflsClient>> clients;
  for (int t = 0; t < threads; ++t) {
    Result<std::unique_ptr<IflsClient>> client = IflsClient::Connect(port);
    IFLS_CHECK(client.ok()) << client.status().ToString();
    clients.push_back(std::move(*client));
  }
  TraceRecorder& recorder = TraceRecorder::Global();
  std::atomic<bool> all_identical{true};
  Stopwatch watch;
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t q = 0; q < queries_per_thread; ++q) {
        const NetPoolEntry& entry =
            pool[(static_cast<std::size_t>(t) * queries_per_thread + q) %
                 pool.size()];
        std::uint64_t trace_id = 0;
        bool sampled = false;
        if (TraceEnabled()) {
          trace_id = recorder.NewTraceId();
          sampled = recorder.Sampled(trace_id);
        }
        TraceIdScope scope(trace_id, sampled);
        Result<WireQueryResponse> response =
            clients[static_cast<std::size_t>(t)]->Query(entry.objective,
                                                        entry.request);
        IFLS_CHECK(response.ok()) << response.status().ToString();
        if (response->found != entry.expected.found ||
            response->answer != entry.expected.answer ||
            response->objective != entry.expected.objective) {
          all_identical.store(false, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const double seconds = watch.ElapsedSeconds();
  if (!all_identical.load()) *identical = false;
  const std::size_t total =
      static_cast<std::size_t>(threads) * queries_per_thread;
  return seconds > 0.0 ? static_cast<double>(total) / seconds : 0.0;
}

int Main() {
  const BenchScale scale = BenchScale::FromEnv();
  std::printf("# tracing overhead on solver throughput (scale=%s)\n\n",
              scale.name.c_str());

  VenueCache venue_cache;
  const Venue& venue = venue_cache.venue(VenuePreset::kMelbourneCentral, false);
  const ParameterGrid grid =
      PresetParameterGrid(VenuePreset::kMelbourneCentral);

  // Serving configuration: door cache on, exactly what IflsService runs.
  VipTreeOptions tree_opts;
  tree_opts.enable_door_distance_cache = true;
  Result<VipTree> tree = VipTree::Build(&venue, tree_opts);
  IFLS_CHECK(tree.ok()) << tree.status().ToString();

  WorkloadSpec spec;
  spec.preset = VenuePreset::kMelbourneCentral;
  spec.num_existing = grid.default_existing;
  spec.num_candidates = grid.default_candidates;
  spec.num_clients = scale.Clients(kDefaultClients);
  const int workloads = 8 * scale.repeats;

  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Disable();
  recorder.Clear();

  const IflsObjective objectives[3] = {IflsObjective::kMinMax,
                                       IflsObjective::kMinDist,
                                       IflsObjective::kMaxSum};
  std::vector<OverheadRow> rows;
  bool all_identical = true;
  for (const IflsObjective objective : objectives) {
    std::vector<IflsContext> queries;
    for (int r = 0; r < workloads; ++r) {
      Rng rng(100 + static_cast<std::uint64_t>(r));
      IflsContext ctx;
      Result<FacilitySets> sets = MakeFacilities(venue, spec, &rng);
      IFLS_CHECK(sets.ok()) << sets.status().ToString();
      ctx.existing = std::move(sets->existing);
      ctx.candidates = std::move(sets->candidates);
      ctx.clients = MakeClients(venue, spec, &rng);
      ctx.oracle = &*tree;
      queries.push_back(std::move(ctx));
    }

    // One warm pass so the door cache reaches steady state before any mode
    // is timed (cold fills would bias whichever mode runs first).
    std::vector<IflsResult> warm;
    (void)RunQueries(queries, objective, 1, &warm);

    for (const int threads : {1, 8}) {
      OverheadRow row;
      row.objective = IflsObjectiveName(objective);
      row.threads = threads;
      std::vector<IflsResult> reference;  // disabled-mode answers
      for (int m = 0; m < 3; ++m) {
        if (kModes[m].enabled) {
          recorder.Enable(kModes[m].sample_every);
        } else {
          recorder.Disable();
        }
        recorder.Clear();
        std::vector<IflsResult> results;
        row.qps[m] = RunQueries(queries, objective, threads, &results);
        recorder.Disable();
        if (m == 0) {
          reference = std::move(results);
          continue;
        }
        // Bit-identity: tracing must never change an answer.
        for (std::size_t i = 0; i < results.size(); ++i) {
          if (results[i].found != reference[i].found ||
              results[i].answer != reference[i].answer ||
              results[i].objective != reference[i].objective) {
            all_identical = false;
            std::fprintf(stderr,
                         "FATAL: %s/%dt/%s diverged from disabled on "
                         "query %zu\n",
                         row.objective.c_str(), threads, kModes[m].name, i);
          }
        }
      }
      rows.push_back(row);
    }
  }

  TextTable table({"objective", "threads", "disabled q/s", "sampled_16 q/s",
                   "full q/s", "sampled ovh %", "full ovh %"});
  for (const OverheadRow& row : rows) {
    table.AddRow({row.objective, TextTable::Int(row.threads),
                  TextTable::Num(row.qps[0]), TextTable::Num(row.qps[1]),
                  TextTable::Num(row.qps[2]), TextTable::Num(row.OverheadPct(1)),
                  TextTable::Num(row.OverheadPct(2))});
  }
  table.Print(&std::cout);
  std::printf("\n");

  // Disabled-mode delta vs the committed SIMD-kernel PR baseline, when that
  // report is around to compare against (same machine assumed; the budget
  // is <2% on matched hardware).
  const std::vector<std::pair<std::string, double>> baseline =
      LoadBaselineQps(BenchReportPath("solver_throughput"));
  double worst_vs_baseline_pct = 0.0;
  bool have_baseline = false;
  std::vector<std::pair<std::string, double>> baseline_deltas;
  for (const OverheadRow& row : rows) {
    const std::string key =
        row.objective + "/" + std::to_string(row.threads);
    for (const auto& [bkey, bqps] : baseline) {
      if (bkey != key || bqps <= 0.0) continue;
      const double pct = (bqps / row.qps[0] - 1.0) * 100.0;
      baseline_deltas.emplace_back(key, pct);
      worst_vs_baseline_pct = std::max(worst_vs_baseline_pct, pct);
      have_baseline = true;
      std::printf("vs solver_throughput baseline %-10s %8.2f q/s -> "
                  "%8.2f q/s (%+.2f%%)\n",
                  key.c_str(), bqps, row.qps[0], -pct);
    }
  }
  if (!have_baseline) {
    std::printf("(no BENCH_solver_throughput.json in cwd; baseline "
                "comparison skipped)\n");
  }

  // ---------------------------------------------------- networked phase
  // End-to-end over the wire server: RPC spans, the trace-context frame
  // extension, server-side adoption and the cost ledger all in the loop.
  std::printf("\n# networked: propagation + ledger over the wire server\n\n");
  Result<Venue> net_venue = BuildPresetVenue(VenuePreset::kMelbourneCentral);
  IFLS_CHECK(net_venue.ok()) << net_venue.status().ToString();
  Rng net_rng(4242);
  Result<FacilitySets> net_sets = SelectUniformFacilities(
      *net_venue, grid.default_existing, grid.default_candidates, &net_rng);
  IFLS_CHECK(net_sets.ok()) << net_sets.status().ToString();
  const std::vector<Client> net_clients =
      GenerateClients(*net_venue, 4096, {}, &net_rng);

  ServiceOptions net_service_options;
  net_service_options.num_workers = 4;
  net_service_options.queue_capacity = 4096;
  net_service_options.venue_label = "bench";
  Result<std::unique_ptr<IflsService>> net_built =
      IflsService::Create(std::move(*net_venue), net_sets->existing,
                          net_sets->candidates, net_service_options);
  IFLS_CHECK(net_built.ok()) << net_built.status().ToString();
  std::shared_ptr<IflsService> net_service = std::move(*net_built);

  constexpr std::size_t kPoolSize = 12;
  constexpr std::size_t kClientsPerQuery = 32;
  std::vector<NetPoolEntry> pool;
  for (std::size_t q = 0; q < kPoolSize; ++q) {
    NetPoolEntry entry;
    entry.objective = objectives[q % 3];
    const std::size_t start =
        net_rng.NextBounded(net_clients.size() - kClientsPerQuery);
    entry.request.clients.assign(
        net_clients.begin() + static_cast<std::ptrdiff_t>(start),
        net_clients.begin() +
            static_cast<std::ptrdiff_t>(start + kClientsPerQuery));
    ServiceRequest request;
    request.objective = entry.objective;
    request.clients = entry.request.clients;
    const ServiceReply reply = net_service->Query(std::move(request));
    IFLS_CHECK(reply.status.ok()) << reply.status.ToString();
    entry.expected = reply.result;
    pool.push_back(std::move(entry));
  }

  Result<std::unique_ptr<IflsServer>> net_server =
      IflsServer::Create(net_service);
  IFLS_CHECK(net_server.ok()) << net_server.status().ToString();

  const int net_threads = 4;
  const std::size_t net_queries_per_thread =
      (scale.name == "smoke" ? 50u : 250u) *
      static_cast<std::size_t>(scale.repeats);
  constexpr TraceMode kNetModes[] = {
      {"off", false, 1},
      {"sampled_64", true, 64},
      {"full", true, 1},
  };
  std::vector<NetModeRow> net_rows;
  {
    // Warm pass: door cache + connection setup out of the timed region.
    bool warm_identical = true;
    recorder.Disable();
    (void)RunNetworkedQueries((*net_server)->port(), pool, net_threads, 25,
                              &warm_identical);
    for (const TraceMode& mode : kNetModes) {
      if (mode.enabled) {
        recorder.Enable(mode.sample_every);
      } else {
        recorder.Disable();
      }
      recorder.Clear();
      NetModeRow row;
      row.mode = mode.name;
      row.qps = RunNetworkedQueries((*net_server)->port(), pool, net_threads,
                                    net_queries_per_thread, &all_identical);
      recorder.Disable();
      if (!net_rows.empty() && row.qps > 0.0) {
        row.overhead_pct = (net_rows.front().qps / row.qps - 1.0) * 100.0;
      }
      net_rows.push_back(std::move(row));
    }
  }
  TextTable net_table({"mode", "rpc q/s", "overhead % vs off"});
  for (const NetModeRow& row : net_rows) {
    net_table.AddRow({row.mode, TextTable::Num(row.qps),
                      TextTable::Num(row.overhead_pct)});
  }
  net_table.Print(&std::cout);
  std::printf("\n");
  (*net_server)->Stop();
  net_service->Stop();

  const Status written = WriteBenchReport("trace_overhead", [&](JsonWriter& w) {
    w.Field("schema_version", 2);
    w.Field("scale", scale.name);
    w.Field("venue",
            std::string(VenuePresetName(VenuePreset::kMelbourneCentral)));
    w.Field("modes", "disabled | sampled_16 | full");
    w.Key("throughput");
    w.BeginArray();
    for (const OverheadRow& row : rows) {
      w.BeginObject();
      w.Field("objective", row.objective);
      w.Field("threads", row.threads);
      w.Field("disabled_qps", row.qps[0]);
      w.Field("sampled_16_qps", row.qps[1]);
      w.Field("full_qps", row.qps[2]);
      w.Field("sampled_16_overhead_pct", row.OverheadPct(1));
      w.Field("full_overhead_pct", row.OverheadPct(2));
      w.EndObject();
    }
    w.EndArray();
    w.Field("answers_bit_identical", all_identical);
    w.Field("baseline_report", std::string("BENCH_solver_throughput.json"));
    w.Field("baseline_present", have_baseline);
    w.Key("disabled_vs_baseline");
    w.BeginArray();
    for (const auto& [key, pct] : baseline_deltas) {
      w.BeginObject();
      w.Field("config", key);
      w.Field("baseline_minus_disabled_pct", pct);
      w.EndObject();
    }
    w.EndArray();
    if (have_baseline) {
      w.Field("worst_disabled_vs_baseline_pct", worst_vs_baseline_pct);
    }
    w.Key("networked");
    w.BeginArray();
    for (const NetModeRow& row : net_rows) {
      w.BeginObject();
      w.Field("mode", row.mode);
      w.Field("rpc_qps", row.qps);
      w.Field("overhead_pct_vs_off", row.overhead_pct);
      w.EndObject();
    }
    w.EndArray();
    w.Field("networked_threads", net_threads);
    w.Field("networked_queries_per_thread", net_queries_per_thread);
    w.Field("networked_clients_per_query", kClientsPerQuery);
  });
  IFLS_CHECK(written.ok()) << written.ToString();
  std::cerr << "wrote " << BenchReportPath("trace_overhead") << "\n";

  if (!all_identical) return 1;
  return 0;
}

}  // namespace
}  // namespace ifls

int main() { return ifls::Main(); }
