// churn_mzb: writes beside reads on a venue larger than the door cache.
// IflsService boots from a v3 snapshot of the Menzies Building (16 levels)
// through the fleet boot path, LoadVenueSnapshot(kMmap) + CreateFromParts.
// Two closed-loop query threads run beside one writer issuing valid Mutate
// calls at a fixed rate, with automatic compaction, and three standing
// MinMax subscriptions receive the fan-out. MZB's door-pair working set
// overflows the 65,536-slot door cache, so read-side gains that cost cache
// misses, and any cost moved onto writes, show here and nowhere else.
//
// The traffic runs in kTimeBlocks windows. Between them it pauses for the
// baseline solves and timed boots, so every metric samples the whole run
// and a drifting host moves them alike.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/inputs.h"
#include "perfbench/src/workloads.h"
#include "src/core/minmax_baseline.h"
#include "src/index/facility_index.h"
#include "src/service/fleet_store.h"
#include "src/service/service.h"

namespace perfbench {

using namespace ifls;

namespace {

// The run is kTimeBlocks measurement windows; after each one the traffic
// pauses for kBaselinePerPause baseline solves and kSetupsPerPause timed
// boots, so those samples spread over the run as the traffic does.
constexpr int kSetupsBefore = 4;
constexpr int kSetupsPerPause = 2;
constexpr int kBaselinePerPause = 18;
// Share of --seconds the windows take together; the pauses, the answer
// checks and the offline snapshot fill most of the rest.
constexpr double kWindowShare = 0.8;
constexpr int kQueryThreads = 2;
constexpr std::size_t kClientsPerQuery = 32;
constexpr double kMutationQps = 40.0;
// The writer cycles through four phases of this many mutations over fresh
// rooms: add candidates, open facilities, withdraw the candidates, close
// the facilities. The net overlay swings up to 2x this, past the default
// compaction threshold (64), so compaction runs every cycle.
constexpr std::size_t kWriterPhase = 48;
constexpr int kSubscriptions = 3;
constexpr std::size_t kClientsPerSubscription = 8;
// Relative staleness budget of the standing queries: events the monitor can
// certify within 5% of optimal are skipped, which keeps the re-solve load on
// the two workers small next to the query traffic.
constexpr double kSubscriptionTolerance = 0.05;
constexpr int kCheckQueries = 24;

struct Sets {
  std::vector<PartitionId> existing, candidates;
};

Sets Sorted(Sets s) {
  std::sort(s.existing.begin(), s.existing.end());
  std::sort(s.candidates.begin(), s.candidates.end());
  return s;
}

// The writer's mutation stream: valid by construction against the
// effective facility sets, so every call must be accepted.
class MutationStream {
 public:
  MutationStream(const FacilitySets& base, std::vector<PartitionId> free_rooms)
      : free_(std::move(free_rooms)) {
    base_.existing = base.existing;
    base_.candidates = base.candidates;
  }

  Mutation At(std::size_t i) const {
    const std::size_t phase = (i / kWriterPhase) % 4;
    const std::size_t slot = i % kWriterPhase;
    Mutation m;
    switch (phase) {
      case 0: m.kind = MutationKind::kAddCandidate; break;
      case 1: m.kind = MutationKind::kAddFacility; break;
      case 2: m.kind = MutationKind::kRemoveCandidate; break;
      default: m.kind = MutationKind::kRemoveFacility; break;
    }
    const bool candidate_room = phase == 0 || phase == 2;
    m.partition = free_[(candidate_room ? slot : kWriterPhase + slot) % free_.size()];
    return m;
  }

  /// Facility sets after the first `version` mutations (sorted).
  Sets StateAt(std::size_t version) const {
    Sets s = base_;
    for (std::size_t i = 0; i < version; ++i) {
      const Mutation m = At(i);
      auto drop = [&](std::vector<PartitionId>* v) {
        v->erase(std::find(v->begin(), v->end(), m.partition));
      };
      switch (m.kind) {
        case MutationKind::kAddCandidate: s.candidates.push_back(m.partition); break;
        case MutationKind::kAddFacility: s.existing.push_back(m.partition); break;
        case MutationKind::kRemoveCandidate: drop(&s.candidates); break;
        case MutationKind::kRemoveFacility: drop(&s.existing); break;
      }
    }
    return Sorted(std::move(s));
  }

 private:
  Sets base_;
  std::vector<PartitionId> free_;
};

struct BootTimes {
  std::vector<double> total_s, load_s, create_s;
};

// The fleet boot path: map the v3 snapshot, then create the service over
// the loaded parts (default options: 2 workers, door cache as built).
std::shared_ptr<IflsService> BootFromSnapshot(const std::string& dir,
                                              BootTimes* times) {
  const double t0 = NowSeconds();
  Result<LoadedVenueSnapshot> loaded =
      LoadVenueSnapshot(dir, SnapshotLoadMode::kMmap);
  Require(loaded.status(), "loading the MZB snapshot");
  const double t1 = NowSeconds();
  Result<std::unique_ptr<IflsService>> created = IflsService::CreateFromParts(
      loaded->venue, loaded->tree, loaded->existing, loaded->candidates,
      ServiceOptions{});
  Require(created.status(), "creating the MZB service");
  const double t2 = NowSeconds();
  times->total_s.push_back(t2 - t0);
  times->load_s.push_back(t1 - t0);
  times->create_s.push_back(t2 - t1);
  return std::move(*created);
}

struct SubscriptionLog {
  std::mutex mu;
  SubscriptionPush last;
  std::vector<double> latency_ms;
};

struct WindowResult {
  std::vector<double> query_ms_traced, solve_ms, queue_ms, overlay_size,
      peak_bytes;
  std::vector<double> mutation_lag_ms;
  // Untraced query times and mutation_ms samples, one block per window.
  std::vector<std::vector<double>> query_ms, mutation_ms;
  std::int64_t queries = 0, query_failures = 0;
  std::int64_t mutations = 0, mutation_failures = 0;
  double seconds = 0.0;
};

// One measurement window: the query threads in a closed loop and the writer
// on its schedule, all for `seconds`, each on its own streams of window
// `block`. Its untraced samples go to a new block of `out`; a `traced`
// window records spans instead.
void RunWindow(IflsService* service, const Venue& venue,
               const MutationStream& stream, std::uint64_t seed, int block,
               double seconds, bool traced, std::size_t* next_mutation,
               WindowResult* out) {
  const double start = NowSeconds();
  const double end = start + seconds;
  out->query_ms.emplace_back();
  out->mutation_ms.emplace_back();
  std::mutex mu;
  std::vector<std::thread> threads;
  for (int t = 0; t < kQueryThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(StreamSeed(seed, "churn_mzb/query" + std::to_string(t) + "/" +
                                   std::to_string(block)));
      std::vector<double> ms, solve, queue, overlay, peak;
      std::int64_t n = 0, bad = 0;
      for (int i = 0; NowSeconds() < end; ++i) {
        ServiceRequest request;
        request.objective = kObjectives[(i + t) % 3];
        request.clients = DrawClients(venue, kClientsPerQuery, &rng);
        const double t0 = NowSeconds();
        ServiceReply reply;
        {
          ScopedSpan root(traced ? "e2e.query" : nullptr);
          ScopedSpan span(traced ? "service.query" : nullptr);
          reply = service->Query(std::move(request));
        }
        const double elapsed_ms = (NowSeconds() - t0) * 1e3;
        ++n;
        if (!reply.status.ok()) {
          ++bad;
          continue;
        }
        ms.push_back(elapsed_ms);
        solve.push_back(reply.solve_seconds * 1e3);
        queue.push_back(reply.queue_seconds * 1e3);
        overlay.push_back(static_cast<double>(reply.overlay_size));
        peak.push_back(static_cast<double>(reply.result.stats.peak_memory_bytes));
      }
      std::lock_guard<std::mutex> lock(mu);
      auto& into = traced ? out->query_ms_traced : out->query_ms.back();
      into.insert(into.end(), ms.begin(), ms.end());
      out->solve_ms.insert(out->solve_ms.end(), solve.begin(), solve.end());
      out->queue_ms.insert(out->queue_ms.end(), queue.begin(), queue.end());
      out->overlay_size.insert(out->overlay_size.end(), overlay.begin(), overlay.end());
      out->peak_bytes.insert(out->peak_bytes.end(), peak.begin(), peak.end());
      out->queries += n;
      out->query_failures += bad;
    });
  }
  // The writer: open loop, each Mutate timed from its scheduled time.
  threads.emplace_back([&] {
    const GeneratorPriority priority;
    for (std::int64_t k = 0;; ++k) {
      const double scheduled = start + static_cast<double>(k) / kMutationQps;
      if (scheduled >= end) break;
      SleepUntil(scheduled);
      const double issued = NowSeconds();
      const Status st = service->Mutate(stream.At(*next_mutation));
      const double done = NowSeconds();
      if (traced) {
        // Recorded explicitly: the root starts at the scheduled time.
        Tracer& tracer = Tracer::Get();
        const std::uint64_t root = tracer.NextId();
        tracer.Record("loadgen.lag", root, root, scheduled, issued);
        tracer.Record("service.mutate", root, root, issued, done);
        tracer.Add({root, 0, root, "e2e.mutation", scheduled, done});
      }
      std::lock_guard<std::mutex> lock(mu);
      ++out->mutations;
      out->mutation_lag_ms.push_back((issued - scheduled) * 1e3);
      if (!st.ok()) {
        ++out->mutation_failures;
        continue;
      }
      ++*next_mutation;
      if (!traced) out->mutation_ms.back().push_back((done - scheduled) * 1e3);
    }
  });
  for (std::thread& th : threads) th.join();
  out->seconds += NowSeconds() - start;
}

// The paper's baseline between windows, over the facility sets the service
// serves at that moment (overlay included), on `uncached`: an index with the
// paper's default options, so the figure does not follow whatever the
// queries left in the shared door cache. Each answer is certified against
// EA on the serving state (untimed).
void RunBaselineBlock(const IflsService& service, const VipTree& uncached,
                      Rng* rng, std::vector<double>* ms, Report* report) {
  const std::shared_ptr<const ServingState> state = service.AcquireState();
  IflsContext served = ContextOf(*state);
  IflsContext ctx = served;
  ctx.oracle = &uncached;
  FacilityIndex offline(&uncached, ctx.existing);
  MinMaxBaselineOptions options;
  options.offline_existing_index = &offline;
  std::int64_t bad = 0;
  for (int i = 0; i < kBaselinePerPause; ++i) {
    ctx.clients = DrawClients(uncached.venue(), kClientsPerQuery, rng);
    served.clients = ctx.clients;
    const double t0 = NowSeconds();
    Result<IflsResult> baseline = SolveModifiedMinMax(ctx, options);
    ms->push_back((NowSeconds() - t0) * 1e3);
    Result<IflsResult> ea = SolveWithObjective(IflsObjective::kMinMax, served,
                                               service.options().solvers);
    if (!baseline.ok() || !ea.ok() ||
        !Certify(IflsObjective::kMinMax, ctx, *ea, *baseline)) {
      ++bad;
    }
  }
  report->Count(kBaselinePerPause, bad, "churn_mzb baseline certification");
}

}  // namespace

void RunChurnMzb(const RunConfig& config, Report* report) {
  // Not pinned (see PinnedCpu): its queries take tens of milliseconds, so a
  // late wake-up matters little, and on one shared CPU the closed-loop
  // figures followed how the background work (subscription re-solves,
  // compaction) interleaved with the queries, which spread them more.
  report->envelope["cpu"] = "-1";
  // Offline: the venue, its facilities and the v3 snapshot the service
  // boots from (not part of set-up, which starts from the files).
  const Venue venue = BuildVenue(VenuePreset::kMenziesBuilding);
  Rng facility_rng(kServedFacilitySeed);
  const FacilitySets sets =
      DrawFacilities(venue, VenuePreset::kMenziesBuilding, &facility_rng);
  std::vector<PartitionId> free_rooms = FreeRooms(venue, sets);
  // The writer's rooms and the standing queries belong to the deployed
  // scenario, like the layout: every seed replays the same write stream
  // against the same subscriptions, and draws only the query traffic.
  Rng shuffle_rng(StreamSeed(kServedFacilitySeed, "churn_mzb/writer"));
  shuffle_rng.Shuffle(&free_rooms);
  const MutationStream stream(sets, free_rooms);
  const std::string dir = config.work_dir + "/mzb_snapshot";
  double build_s = 0.0;
  {
    const double t0 = NowSeconds();
    Result<VipTree> tree = VipTree::Build(&venue, DefaultServiceTreeOptions());
    Require(tree.status(), "building the MZB index");
    build_s = NowSeconds() - t0;
    Require(WriteVenueSnapshot(dir, venue, *tree, sets.existing, sets.candidates),
            "writing the MZB snapshot");
  }
  // Door cache off: the baseline's index, and the from-scratch index of the
  // answer checks.
  Result<VipTree> scratch_tree = VipTree::Build(&venue);
  Require(scratch_tree.status(), "building the uncached MZB index");

  // Set-up: the fleet boot path, timed before the windows and in the pauses
  // between them; the last boot before them is the service under test.
  BootTimes boot;
  for (int i = 0; i < kSetupsBefore; ++i) BootFromSnapshot(dir, &boot)->Stop();
  std::shared_ptr<IflsService> service = BootFromSnapshot(dir, &boot);

  // Standing queries.
  Rng sub_rng(StreamSeed(kServedFacilitySeed, "churn_mzb/subscriptions"));
  std::vector<std::vector<Client>> sub_clients;
  std::vector<std::unique_ptr<SubscriptionLog>> logs;
  std::vector<std::shared_ptr<Subscription>> subs;
  for (int s = 0; s < kSubscriptions; ++s) {
    sub_clients.push_back(DrawClients(venue, kClientsPerSubscription, &sub_rng));
    logs.push_back(std::make_unique<SubscriptionLog>());
    SubscriptionLog* log = logs.back().get();
    Result<std::shared_ptr<Subscription>> sub = service->Subscribe(
        sub_clients.back(), SubscriptionOptions{kSubscriptionTolerance},
        [log](const SubscriptionPush& push) {
          std::lock_guard<std::mutex> lock(log->mu);
          log->last = push;
          log->latency_ms.push_back(push.latency_seconds * 1e3);
        });
    Require(sub.status(), "subscribing");
    subs.push_back(std::move(*sub));
  }

  // The windows, with the baseline and set-up samples in the pauses; in a
  // traced run every other window is traced.
  std::size_t applied = 0;
  WindowResult window;
  std::vector<double> baseline_ms;
  Rng baseline_rng(StreamSeed(config.seed, "churn_mzb/baseline"));
  for (int block = 0; block < kTimeBlocks; ++block) {
    RunWindow(service.get(), venue, stream, config.seed, block,
              kWindowShare * config.seconds / kTimeBlocks,
              config.trace && block % 2 == 1, &applied, &window);
    // Subscription re-solves the window left queued run before the pause's
    // timed work, not beside it.
    service->Drain();
    RunBaselineBlock(*service, *scratch_tree, &baseline_rng, &baseline_ms,
                     report);
    for (int i = 0; i < kSetupsPerPause; ++i) {
      BootFromSnapshot(dir, &boot)->Stop();
    }
  }
  report->Count(window.queries, window.query_failures, "churn_mzb queries");
  report->Count(window.mutations, window.mutation_failures, "churn_mzb mutations");

  auto& m = report->metrics;
  // Solver replay on the serving state as the last window left it (overlay
  // included): the core layer alone.
  Rng check_rng(StreamSeed(config.seed, "churn_mzb/check"));
  std::vector<std::vector<Client>> check_clients;
  for (int i = 0; i < kCheckQueries; ++i) {
    check_clients.push_back(DrawClients(venue, kClientsPerQuery, &check_rng));
  }
  if (config.trace) {
    std::vector<ReplayQuery> replay;
    for (int i = 0; i < kCheckQueries; ++i) {
      replay.push_back(
          {kObjectives[i % 3], &check_clients[static_cast<std::size_t>(i)]});
    }
    ReplayCore(*service, replay, "churn_mzb core replay", report);
  }

  // Quiesce, fold the overlay, and check answers against from-scratch
  // solves over the final facility sets.
  service->Drain();
  Require(service->CompactNow(), "compacting");
  service->Drain();
  const ServiceMetrics sm = service->Metrics();
  report->Check(sm.mutations_rejected == 0, "churn_mzb mutations rejected");
  report->Check(sm.mutations_applied == applied, "churn_mzb mutation count");

  const Sets final_sets = stream.StateAt(applied);
  IflsContext scratch;
  scratch.oracle = &*scratch_tree;
  scratch.existing = final_sets.existing;
  scratch.candidates = final_sets.candidates;
  std::int64_t bad = 0;
  for (int i = 0; i < kCheckQueries; ++i) {
    const IflsObjective objective = kObjectives[i % 3];
    scratch.clients = check_clients[static_cast<std::size_t>(i)];
    ServiceRequest request;
    request.objective = objective;
    request.clients = scratch.clients;
    const ServiceReply reply = service->Query(std::move(request));
    Result<IflsResult> expect =
        SolveWithObjective(objective, scratch, service->options().solvers);
    if (!reply.status.ok() || !expect.ok() || !SameAnswer(reply.result, *expect)) {
      ++bad;
    }
  }
  report->Count(kCheckQueries, bad, "churn_mzb query checks");

  // Subscriptions. Each one's standing answer must have folded every
  // accepted write and be within its tolerance of a from-scratch MinMax
  // solve over the final sets; its last push must be the from-scratch
  // answer at the version that push reports.
  std::vector<double> push_ms;
  bad = 0;
  for (int s = 0; s < kSubscriptions; ++s) {
    const auto& clients = sub_clients[static_cast<std::size_t>(s)];
    const Subscription::State now = subs[static_cast<std::size_t>(s)]->Current();
    scratch.clients = clients;
    Result<IflsResult> optimal =
        SolveWithObjective(IflsObjective::kMinMax, scratch, service->options().solvers);
    if (!optimal.ok() || now.version != applied) {
      ++bad;
    } else if (!now.has_answer) {
      if (optimal->found) ++bad;
    } else {
      const double best =
          optimal->found ? optimal->objective : NoFacilityMinMax(scratch);
      const double exact = EvaluateMinMax(scratch, now.answer);
      const bool is_candidate =
          std::binary_search(final_sets.candidates.begin(),
                             final_sets.candidates.end(), now.answer);
      if (!is_candidate ||
          std::fabs(now.objective - exact) > 1e-9 * std::max(1.0, exact) ||
          exact > (1.0 + kSubscriptionTolerance) * best * (1.0 + 1e-9)) {
        ++bad;
      }
    }

    SubscriptionLog& log = *logs[static_cast<std::size_t>(s)];
    std::lock_guard<std::mutex> lock(log.mu);
    const Sets at = stream.StateAt(log.last.version);
    IflsContext ctx;
    ctx.oracle = &*scratch_tree;
    ctx.existing = at.existing;
    ctx.candidates = at.candidates;
    ctx.clients = clients;
    Result<IflsResult> expect =
        SolveWithObjective(IflsObjective::kMinMax, ctx, service->options().solvers);
    if (!expect.ok() || !SameAnswer(log.last.result, *expect)) ++bad;
    push_ms.insert(push_ms.end(), log.latency_ms.begin(), log.latency_ms.end());
  }
  report->Count(kSubscriptions * 2, bad, "churn_mzb subscription checks");
  for (const auto& sub : subs) {
    report->Check(service->Unsubscribe(sub->id()).ok(), "churn_mzb unsubscribe");
  }
  service->Stop();
  std::filesystem::remove_all(dir);

  if (!config.trace) {
    m["setup_s"] = Quantile(boot.total_s, 0.5);
    m["query_ms_p50"] = Quantile(Flatten(window.query_ms), 0.5);
    m["query_ms_p90"] = MedianOfBlockQuantiles(window.query_ms, 0.90);
    report->info["query_ms_p99"] = MedianOfBlockQuantiles(window.query_ms, 0.99);
    m["query_qps"] = static_cast<double>(window.queries) / window.seconds;
    m["baseline_ms_p50"] = Quantile(baseline_ms, 0.5);
    m["solver_peak_kib"] = Mean(window.peak_bytes) / 1024.0;
    report->info["samples.query"] =
        static_cast<double>(Flatten(window.query_ms).size());
    report->info["samples.mutation"] =
        static_cast<double>(Flatten(window.mutation_ms).size());
    report->info["subscription.solves"] = static_cast<double>(sm.subscription_solves);
    report->info["subscription.skips"] = static_cast<double>(sm.subscription_skips);
    report->info["compactions"] = static_cast<double>(sm.compactions);
    report->info["loadgen.lag_ms_p99"] = Quantile(window.mutation_lag_ms, 0.99);
    return;
  }

  AddDoorCacheMetrics(sm, report);
  m["index.tree_build_s"] = build_s;
  m["io.snapshot_load_s"] = Quantile(boot.load_s, 0.5);
  m["service.create_s"] = Quantile(boot.create_s, 0.5);
  m["service.query_ms_p50"] = Quantile(window.query_ms_traced, 0.5);
  m["service.solve_ms_p50"] = Quantile(window.solve_ms, 0.5);
  m["service.queue_wait_ms_p50"] = Quantile(window.queue_ms, 0.5);
  m["service.queue_wait_ms_p99"] = Quantile(window.queue_ms, 0.99);
  m["service.overlay_size_p50"] = Quantile(window.overlay_size, 0.5);
  m["service.compactions"] = static_cast<double>(sm.compactions);
  m["service.mutations_rejected"] = static_cast<double>(sm.mutations_rejected);
  m["service.shed"] = static_cast<double>(sm.shed);
  m["service.subscription_solves"] = static_cast<double>(sm.subscription_solves);
  m["service.subscription_skips"] = static_cast<double>(sm.subscription_skips);
  m["service.push_ms_p50"] = Quantile(push_ms, 0.5);
  // From the untraced windows, as are query_ms_* in the untraced run.
  m["mutation_ms_p50"] = Quantile(Flatten(window.mutation_ms), 0.5);
  m["mutation_ms_p99"] = MedianOfBlockQuantiles(window.mutation_ms, 0.99);
  m["loadgen.lag_ms_p99"] = Quantile(window.mutation_lag_ms, 0.99);
  m["loadgen.offered_qps"] =
      static_cast<double>(window.mutations) / window.seconds;
  // Writes that were due but not yet issued, at the worst moment.
  m["loadgen.backlog_max"] =
      std::ceil(Quantile(window.mutation_lag_ms, 1.0) / 1e3 * kMutationQps);
  m["trace.overhead_frac"] =
      Quantile(window.query_ms_traced, 0.5) /
          Quantile(Flatten(window.query_ms), 0.5) -
      1.0;

  std::vector<Client> probe_clients;
  std::vector<WireQueryRequest> requests;
  for (const auto& clients : check_clients) {
    probe_clients.insert(probe_clients.end(), clients.begin(), clients.end());
    WireQueryRequest r;
    r.clients = clients;
    requests.push_back(std::move(r));
  }
  std::vector<PartitionId> facilities = final_sets.existing;
  facilities.insert(facilities.end(), final_sets.candidates.begin(),
                    final_sets.candidates.end());
  ProbeKernels(*scratch_tree, config.seed, report);
  ProbeOracle(*scratch_tree, probe_clients, facilities, report);
  ProbeWire(requests, report);
}

}  // namespace perfbench
