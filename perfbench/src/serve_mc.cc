// serve_mc: the networked read path. IflsServer and IflsService with their
// default options (door cache on, coalescing on, 2 workers) on Melbourne
// Central; an open-loop generator on one thread and 4 connections sends
// 32-client queries with mixed objectives through the public wire codec.
// MC's door-pair working set fits the door cache, so the fixed per-request
// costs (wire, epoll, coalescing, admission, snapshot pin) carry a visible
// share of the latency here and nowhere else.
//
// All rates and the latency limit are constants, never derived at run time,
// so two commits are always driven identically. The run is blocks of
// nominal traffic, each followed by a ladder probe; a block runs in slices,
// and baseline solves and a set-up sample run after every slice, so host
// drift during a run touches every metric alike. Nothing writes: this is the
// read path.

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/inputs.h"
#include "perfbench/src/open_loop.h"
#include "perfbench/src/workloads.h"
#include "src/core/minmax_baseline.h"
#include "src/index/facility_index.h"
#include "src/net/server.h"
#include "src/service/service.h"

namespace perfbench {

using namespace ifls;

namespace {

constexpr int kSetupsBefore = 5;
constexpr std::size_t kClientsPerQuery = 32;
// Distinct queries, each with its in-process answer: enough that the tail
// is a quantile of the client distribution, not of a few pool outliers.
constexpr std::size_t kPoolSize = 1536;
constexpr int kConnections = 4;
// Nominal rate: about half of what the default server sustains on the one
// CPU the run is pinned to (the ladder reads 320-500 queries/s).
constexpr double kNominalQps = 200.0;
// query_qps: the highest rung kLadderBaseQps * kLadderStep^i (i below
// kLadderRungs) whose p99, with refused and failed requests counted as
// misses, stays within kLatencyLimitMs and whose backlog stays bounded.
// Found by bisection, one probe per block.
constexpr double kLadderBaseQps = 250.0;
constexpr double kLadderStep = 1.05;
constexpr int kLadderRungs = 30;
constexpr int kLadderProbes = 6;
constexpr double kLatencyLimitMs = 100.0;
// Each nominal block runs in this many slices. After every slice: this many
// baseline solves, and one timed boot.
constexpr int kSlicesPerBlock = 4;
constexpr std::size_t kBaselinePerSlice = 40;

// Shares of --seconds: all nominal blocks together, and each ladder probe.
constexpr double kNominalShare = 0.42;
constexpr double kLadderProbeShare = 0.08;

double LadderQps(int rung) {
  return std::round(kLadderBaseQps * std::pow(kLadderStep, rung));
}

struct Booted {
  std::shared_ptr<IflsService> service;
  std::unique_ptr<IflsServer> server;
};

Booted Boot(const FacilitySets& sets, double* service_s, double* server_s) {
  Booted b;
  const double t0 = NowSeconds();
  Result<std::unique_ptr<IflsService>> service =
      IflsService::Create(BuildVenue(VenuePreset::kMelbourneCentral),
                          sets.existing, sets.candidates, ServiceOptions{});
  Require(service.status(), "creating the MC service");
  b.service = std::move(*service);
  const double t1 = NowSeconds();
  Result<std::unique_ptr<IflsServer>> server =
      IflsServer::Create(b.service, ServerOptions{});
  Require(server.status(), "starting the server");
  b.server = std::move(*server);
  const double t2 = NowSeconds();
  *service_s = t1 - t0;
  *server_s = t2 - t1;
  return b;
}

void Shutdown(Booted* b) {
  if (b->server) b->server->Stop();
  if (b->service) b->service->Stop();
  b->server.reset();
  b->service.reset();
}

struct SetupTimes {
  std::vector<double> total_s, service_s, server_s;
};

// Boots a service + server (venue, index build, service create, listen),
// records the times, and shuts it down again unless `keep` is given.
void TimeBoot(const FacilitySets& sets, SetupTimes* times, Booted* keep = nullptr) {
  double svc = 0.0, srv = 0.0;
  const double t0 = NowSeconds();
  Booted b = Boot(sets, &svc, &srv);
  times->total_s.push_back(NowSeconds() - t0);
  times->service_s.push_back(svc);
  times->server_s.push_back(srv);
  if (keep != nullptr) {
    *keep = std::move(b);
  } else {
    Shutdown(&b);
  }
}

// Distinct queries with their in-process answers on the pinned serving
// state (the server runs the same SolveWithObjective on the same state).
std::vector<PooledQuery> BuildPool(const IflsService& service, Rng* rng,
                                   std::vector<QueryStats>* stats) {
  const std::shared_ptr<const ServingState> state = service.AcquireState();
  IflsContext ctx = ContextOf(*state);
  std::vector<PooledQuery> pool(kPoolSize);
  for (std::size_t i = 0; i < kPoolSize; ++i) {
    PooledQuery& q = pool[i];
    q.objective = kObjectives[i % 3];
    q.request.clients = DrawClients(state->snapshot->venue(), kClientsPerQuery, rng);
    ctx.clients = q.request.clients;
    Result<IflsResult> truth =
        SolveWithObjective(q.objective, ctx, service.options().solvers);
    Require(truth.status(), "in-process ground truth");
    q.truth = std::move(*truth);
    stats->push_back(q.truth.stats);
  }
  return pool;
}

void CountPhase(const PhaseResult& r, const std::string& what, Report* report) {
  report->Count(r.scheduled, r.failed(), what);
}

// Bisection over the fixed ladder for the highest passing rung.
class LadderSearch {
 public:
  bool done() const { return hi_ - lo_ <= 1; }
  double next_rate() const { return LadderQps((lo_ + hi_) / 2); }

  void Probe(OpenLoopClient* client, const std::vector<PooledQuery>& pool,
             std::size_t first, double seconds, Report* report) {
    const int mid = (lo_ + hi_) / 2;
    const double rate = LadderQps(mid);
    const PhaseResult r = client->Run(pool, first, rate, seconds, /*trace=*/false);
    // Refusals under overload are the probe's signal, not a wrong answer;
    // mismatches, transport errors and lost replies are failures.
    report->Count(r.scheduled, r.mismatches + r.errors + r.lost, "serve_mc ladder");
    const double backlog_bound = rate * kLatencyLimitMs / 1e3 + kConnections;
    const bool pass = r.QuantileWithFailures(0.99) <= kLatencyLimitMs &&
                      static_cast<double>(r.backlog_max) <= backlog_bound;
    (pass ? lo_ : hi_) = mid;
  }

  /// Highest passing rung; half the lowest rung when none passed.
  double qps() const { return lo_ >= 0 ? LadderQps(lo_) : kLadderBaseQps / 2; }

 private:
  int lo_ = -1;  // highest rung known to pass (-1: none yet)
  int hi_ = kLadderRungs;  // lowest rung known to fail
};

// In-process baseline over the serving state on MinMax pool queries from
// `*next`; each answer is certified against the efficient approach's.
void RunBaselineSlice(const IflsService& service,
                      const std::vector<PooledQuery>& pool, std::size_t* next,
                      std::vector<double>* ms, Report* report) {
  const std::shared_ptr<const ServingState> state = service.AcquireState();
  IflsContext ctx = ContextOf(*state);
  FacilityIndex offline(&state->oracle(), ctx.existing);
  MinMaxBaselineOptions options;
  options.offline_existing_index = &offline;
  std::int64_t bad = 0;
  for (std::size_t done = 0; done < kBaselinePerSlice; ++*next) {
    const PooledQuery& q = pool[*next % pool.size()];
    if (q.objective != IflsObjective::kMinMax) continue;
    ++done;
    ctx.clients = q.request.clients;
    const double t0 = NowSeconds();
    Result<IflsResult> baseline = SolveModifiedMinMax(ctx, options);
    ms->push_back((NowSeconds() - t0) * 1e3);
    if (!baseline.ok() ||
        !Certify(IflsObjective::kMinMax, ctx, q.truth, *baseline)) {
      ++bad;
    }
  }
  report->Count(kBaselinePerSlice, bad, "serve_mc baseline");
}

}  // namespace

void RunServeMc(const RunConfig& config, Report* report) {
  // Every request crosses the generator, the event loop and a worker, so
  // the run is pinned: each hand-off is a switch on one busy CPU, not a
  // wake-up of an idle vCPU.
  const PinnedCpu pinned;
  report->envelope["cpu"] = std::to_string(pinned.cpu());
  Rng facility_rng(kServedFacilitySeed);
  const Venue venue = BuildVenue(VenuePreset::kMelbourneCentral);
  const FacilitySets sets =
      DrawFacilities(venue, VenuePreset::kMelbourneCentral, &facility_rng);

  SetupTimes setup;
  for (int i = 0; i < kSetupsBefore; ++i) TimeBoot(sets, &setup);
  Booted booted;
  TimeBoot(sets, &setup, &booted);
  IflsService& service = *booted.service;

  Rng client_rng(StreamSeed(config.seed, "serve_mc/clients"));
  std::vector<QueryStats> truth_stats;
  const std::vector<PooledQuery> pool = BuildPool(service, &client_rng, &truth_stats);

  Result<OpenLoopClient> client =
      OpenLoopClient::Connect(booted.server->port(), kConnections);
  Require(client.status(), "connecting the generator");
  auto& m = report->metrics;

  if (!config.trace) {
    const double slice_seconds = kNominalShare * config.seconds /
                                 (kLadderProbes + 1) / kSlicesPerBlock;
    // The tail figures are medians over the blocks.
    std::vector<std::vector<double>> query_ms;
    std::vector<double> lag_ms, baseline_ms;
    LadderSearch ladder;
    std::size_t next_baseline = 0;
    for (int block = 0; block <= kLadderProbes; ++block) {
      query_ms.emplace_back();
      for (int slice = 0; slice < kSlicesPerBlock; ++slice) {
        const auto first =
            static_cast<std::size_t>(block * kSlicesPerBlock + slice) * 131;
        const PhaseResult nominal = client->Run(pool, first, kNominalQps,
                                                slice_seconds, /*trace=*/false);
        CountPhase(nominal, "serve_mc nominal rate", report);
        query_ms.back().insert(query_ms.back().end(), nominal.latency_ms.begin(),
                               nominal.latency_ms.end());
        lag_ms.insert(lag_ms.end(), nominal.lag_ms.begin(), nominal.lag_ms.end());
        RunBaselineSlice(service, pool, &next_baseline, &baseline_ms, report);
        TimeBoot(sets, &setup);
      }
      if (block < kLadderProbes && !ladder.done()) {
        ladder.Probe(&*client, pool, static_cast<std::size_t>(block) * 97,
                     kLadderProbeShare * config.seconds, report);
      }
    }
    double peak_bytes = 0.0;
    for (const QueryStats& s : truth_stats) {
      peak_bytes += static_cast<double>(s.peak_memory_bytes);
    }
    m["setup_s"] = Quantile(setup.total_s, 0.5);
    m["query_ms_p50"] = Quantile(Flatten(query_ms), 0.5);
    m["query_ms_p90"] = MedianOfBlockQuantiles(query_ms, 0.90);
    report->info["query_ms_p99"] = MedianOfBlockQuantiles(query_ms, 0.99);
    m["query_qps"] = ladder.qps();
    m["baseline_ms_p50"] = Quantile(baseline_ms, 0.5);
    m["solver_peak_kib"] =
        peak_bytes / static_cast<double>(truth_stats.size()) / 1024.0;
    report->info["samples.query"] = static_cast<double>(Flatten(query_ms).size());
    report->info["samples.setup"] = static_cast<double>(setup.total_s.size());
    report->info["loadgen.lag_ms_p99"] = Quantile(lag_ms, 0.99);
    Shutdown(&booted);
    return;
  }

  // Traced run. RPCs at the nominal rate, alternating traced and untraced
  // phases so trace.overhead_frac compares interleaved samples.
  const double phase_seconds = 0.12 * config.seconds;
  std::vector<double> rpc_traced, rpc_untraced, lag;
  std::size_t backlog_max = 0;
  double offered = 0.0;
  for (int phase = 0; phase < 4; ++phase) {
    const bool traced = phase % 2 == 1;
    const PhaseResult r = client->Run(pool, static_cast<std::size_t>(phase) * 31,
                                      kNominalQps, phase_seconds, traced);
    CountPhase(r, "serve_mc nominal rate", report);
    auto& into = traced ? rpc_traced : rpc_untraced;
    into.insert(into.end(), r.latency_ms.begin(), r.latency_ms.end());
    lag.insert(lag.end(), r.lag_ms.begin(), r.lag_ms.end());
    backlog_max = std::max(backlog_max, r.backlog_max);
    offered = r.offered_qps;
  }
  m["net.rpc_ms_p50"] = Quantile(rpc_traced, 0.5);
  m["trace.overhead_frac"] =
      Quantile(rpc_traced, 0.5) / Quantile(rpc_untraced, 0.5) - 1.0;
  m["loadgen.lag_ms_p99"] = Quantile(lag, 0.99);
  m["loadgen.offered_qps"] = offered;
  m["loadgen.backlog_max"] = static_cast<double>(backlog_max);

  // In-process replay of the same traffic at the same rate, through the
  // service's admission queue (no wire, no event loop).
  {
    const auto n = static_cast<std::size_t>(kNominalQps * phase_seconds);
    std::vector<double> done(n, 0.0), queue_ms(n, 0.0), solve_ms(n, 0.0);
    std::vector<int> ok(n, 0);
    const double start = NowSeconds() + 0.005;
    std::vector<double> scheduled(n);
    std::int64_t refused = 0;
    const GeneratorPriority priority;
    for (std::size_t k = 0; k < n; ++k) {
      scheduled[k] = start + static_cast<double>(k) / kNominalQps;
      SleepUntil(scheduled[k]);
      const PooledQuery& q = pool[k % pool.size()];
      ServiceRequest request;
      request.objective = q.objective;
      request.clients = q.request.clients;
      ScopedSpan span("service.submit");
      const Status st = service.SubmitQueryAsync(
          std::move(request), [&, k](ServiceReply reply) {
            done[k] = NowSeconds();
            queue_ms[k] = reply.queue_seconds * 1e3;
            solve_ms[k] = reply.solve_seconds * 1e3;
            ok[k] = reply.status.ok() &&
                    SameAnswer(reply.result, pool[k % pool.size()].truth);
          });
      if (!st.ok()) ++refused;
    }
    service.Drain();
    std::vector<double> latency, queue, solve;
    std::int64_t bad = refused;
    for (std::size_t k = 0; k < n; ++k) {
      if (!ok[k]) {
        ++bad;
        continue;
      }
      latency.push_back((done[k] - scheduled[k]) * 1e3);
      queue.push_back(queue_ms[k]);
      solve.push_back(solve_ms[k]);
    }
    report->Count(static_cast<std::int64_t>(n), bad, "serve_mc in-process replay");
    m["service.query_ms_p50"] = Quantile(latency, 0.5);
    m["service.solve_ms_p50"] = Quantile(solve, 0.5);
    m["service.queue_wait_ms_p50"] = Quantile(queue, 0.5);
    m["service.queue_wait_ms_p99"] = Quantile(queue, 0.99);
    m["net.overhead_ms_p50"] = m["net.rpc_ms_p50"] - m["service.query_ms_p50"];
  }

  // Solver replay on a pinned serving state: the core layer alone.
  std::vector<ReplayQuery> replay;
  for (const PooledQuery& q : pool) {
    replay.push_back({q.objective, &q.request.clients, &q.truth});
  }
  ReplayCore(service, replay, "serve_mc core replay", report);

  const ServiceMetrics sm = service.Metrics();
  const ServerMetrics net = booted.server->Metrics();
  AddDoorCacheMetrics(sm, report);
  m["service.shed"] = static_cast<double>(sm.shed);
  m["service.create_s"] = Quantile(setup.service_s, 0.5);
  m["net.server_start_s"] = Quantile(setup.server_s, 0.5);
  m["net.batch_size_mean"] =
      net.batches ? static_cast<double>(net.batched_queries) /
                        static_cast<double>(net.batches)
                  : 0.0;
  m["net.rejected"] = static_cast<double>(net.rejected);
  m["net.errors"] = static_cast<double>(net.errors);
  {
    std::vector<double> build_s;
    for (int i = 0; i < 3; ++i) {
      const double t0 = NowSeconds();
      Result<VipTree> tree = VipTree::Build(&venue, DefaultServiceTreeOptions());
      Require(tree.status(), "building the MC index");
      build_s.push_back(NowSeconds() - t0);
    }
    m["index.tree_build_s"] = Quantile(build_s, 0.5);
  }

  std::vector<Client> probe_clients;
  std::vector<WireQueryRequest> requests;
  for (const PooledQuery& q : pool) {
    probe_clients.insert(probe_clients.end(), q.request.clients.begin(),
                         q.request.clients.end());
    requests.push_back(q.request);
  }
  std::vector<PartitionId> facilities = sets.existing;
  facilities.insert(facilities.end(), sets.candidates.begin(), sets.candidates.end());
  const std::shared_ptr<const ServingState> state = service.AcquireState();
  ProbeKernels(state->snapshot->tree(), config.seed, report);
  ProbeOracle(state->snapshot->tree(), probe_clients, facilities, report);
  ProbeWire(requests, report);
  Shutdown(&booted);
}

}  // namespace perfbench
