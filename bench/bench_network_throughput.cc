// Network serving benchmark: a multi-threaded load generator drives >= 1k
// concurrent loopback connections against the epoll wire server, replaying
// queries whose answers were first computed in-process — every networked
// response is differentially checked (bit-identical found/answer/objective)
// against IflsService. Every query passes through the service's admission
// queue, sized here so the offered load is never shed.
//
// Writes BENCH_network_throughput.json (shared schema, src/benchlib).
// Scale via IFLS_BENCH_SCALE=smoke|default|full.

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "src/benchlib/harness.h"
#include "src/benchlib/json_report.h"
#include "src/common/rng.h"
#include "src/datasets/client_generator.h"
#include "src/datasets/facility_selector.h"
#include "src/datasets/presets.h"
#include "src/net/load_gen.h"
#include "src/net/server.h"
#include "src/service/service.h"

namespace ifls {
namespace {

struct BenchConfig {
  std::size_t num_connections = 1024;
  int load_threads = 8;
  int pipeline_depth = 2;
  std::size_t queries_per_connection = 16;
  std::size_t clients_per_query = 32;
  std::size_t distinct_queries = 24;  // expectation pool size
  int service_workers = 4;
};

BenchConfig ConfigForScale(const BenchScale& scale) {
  BenchConfig cfg;
  if (scale.name == "smoke") {
    cfg.num_connections = 128;
    cfg.queries_per_connection = 4;
  } else if (scale.name == "full") {
    cfg.num_connections = 2048;
    cfg.queries_per_connection = 32;
  }
  return cfg;
}

int Main() {
  const BenchScale scale = BenchScale::FromEnv();
  const BenchConfig cfg = ConfigForScale(scale);

  Result<Venue> venue = BuildPresetVenue(VenuePreset::kMelbourneCentral);
  IFLS_CHECK(venue.ok()) << venue.status().ToString();

  Rng rng(4242);
  const ParameterGrid grid =
      PresetParameterGrid(VenuePreset::kMelbourneCentral);
  Result<FacilitySets> sets = SelectUniformFacilities(
      *venue, grid.default_existing, grid.default_candidates, &rng);
  IFLS_CHECK(sets.ok()) << sets.status().ToString();

  ClientGeneratorOptions copts;
  const std::vector<Client> client_pool =
      GenerateClients(*venue, 8192, copts, &rng);

  ServiceOptions service_options;
  service_options.num_workers = cfg.service_workers;
  service_options.queue_capacity =
      cfg.num_connections * (static_cast<std::size_t>(cfg.pipeline_depth) + 1);
  Result<std::unique_ptr<IflsService>> built = IflsService::Create(
      std::move(*venue), sets->existing, sets->candidates, service_options);
  IFLS_CHECK(built.ok()) << built.status().ToString();
  std::shared_ptr<IflsService> service = std::move(*built);

  // Ground truth: a pool of distinct queries answered in-process first. The
  // load generator staggers connections across this pool so concurrent
  // queries mix objectives and client sets.
  const IflsObjective objectives[3] = {IflsObjective::kMinMax,
                                       IflsObjective::kMinDist,
                                       IflsObjective::kMaxSum};
  std::vector<NetExpectation> expectations;
  for (std::size_t q = 0; q < cfg.distinct_queries; ++q) {
    NetExpectation exp;
    exp.objective = objectives[q % 3];
    const std::size_t start =
        rng.NextBounded(client_pool.size() - cfg.clients_per_query);
    exp.clients.assign(
        client_pool.begin() + static_cast<std::ptrdiff_t>(start),
        client_pool.begin() +
            static_cast<std::ptrdiff_t>(start + cfg.clients_per_query));
    ServiceRequest request;
    request.objective = exp.objective;
    request.clients = exp.clients;
    const ServiceReply reply = service->Query(std::move(request));
    IFLS_CHECK(reply.status.ok()) << reply.status.ToString();
    exp.found = reply.result.found;
    exp.answer = reply.result.answer;
    exp.objective_value = reply.result.objective;
    expectations.push_back(std::move(exp));
  }

  Result<std::unique_ptr<IflsServer>> server = IflsServer::Create(service);
  IFLS_CHECK(server.ok()) << server.status().ToString();

  LoadGenOptions load;
  load.port = (*server)->port();
  load.num_connections = cfg.num_connections;
  load.num_threads = cfg.load_threads;
  load.pipeline_depth = cfg.pipeline_depth;
  load.queries_per_connection = cfg.queries_per_connection;
  Result<LoadGenReport> loaded = RunNetworkLoad(load, expectations);
  IFLS_CHECK(loaded.ok()) << loaded.status().ToString();
  const LoadGenReport& report = *loaded;
  const ServerMetrics server_metrics = (*server)->Metrics();
  (*server)->Stop();
  service->Stop();
  std::cerr << "[network] " << report.completed << " ok / " << report.errors
            << " err / " << report.mismatches << " mismatch across "
            << report.connections << " conns in " << report.wall_seconds
            << "s  (" << report.qps << " qps, p50 " << report.p50_seconds * 1e3
            << "ms, p99 " << report.p99_seconds * 1e3 << "ms, p999 "
            << report.p999_seconds * 1e3 << "ms)\n";

  const Status written = WriteBenchReport("network_throughput", [&](
                                              JsonWriter& w) {
    w.Field("scale", scale.name);
    w.Field("venue",
            std::string(VenuePresetName(VenuePreset::kMelbourneCentral)));
    w.Field("connections", cfg.num_connections);
    w.Field("load_threads", cfg.load_threads);
    w.Field("pipeline_depth", cfg.pipeline_depth);
    w.Field("queries_per_connection", cfg.queries_per_connection);
    w.Field("clients_per_query", cfg.clients_per_query);
    w.Field("service_workers", cfg.service_workers);
    w.Field("completed", report.completed);
    w.Field("errors", report.errors);
    w.Field("mismatches", report.mismatches);
    w.Field("wall_seconds", report.wall_seconds);
    w.Field("throughput_qps", report.qps);
    w.Field("latency_p50_seconds", report.p50_seconds);
    w.Field("latency_p99_seconds", report.p99_seconds);
    w.Field("latency_p999_seconds", report.p999_seconds);
    w.Field("server_frames_received", server_metrics.frames_received);
    w.Field("server_rejected", server_metrics.rejected);
  });
  IFLS_CHECK(written.ok()) << written.ToString();
  std::cerr << "[network] wrote " << BenchReportPath("network_throughput")
            << "\n";

  int rc = 0;
  if (report.mismatches != 0) {
    std::cerr << "[network] FAILURE: " << report.mismatches
              << " differential mismatches\n";
    rc = 1;
  }
  const std::uint64_t expected_total =
      cfg.num_connections * cfg.queries_per_connection;
  if (report.completed + report.errors != expected_total) {
    std::cerr << "[network] FAILURE: accounted for "
              << (report.completed + report.errors) << " of "
              << expected_total << " queries\n";
    rc = 1;
  }
  return rc;
}

}  // namespace
}  // namespace ifls

int main() { return ifls::Main(); }
