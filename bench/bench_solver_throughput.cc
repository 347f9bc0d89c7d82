// Solver throughput before/after the sharded door cache, measured at two
// layers:
//
//   1. cache microbench — the legacy mutex + unordered_map door memo
//      (reconstructed here) vs the sharded seqlock ConcurrentDoorCache,
//      mixed lookup/insert at 1 and 8 threads;
//   2. solver throughput — per-objective queries/sec through
//      BatchQueryEngine at 1 and 8 threads, "before" (door cache off) vs
//      "after" (sharded door cache on), both on the kernel backend dispatch
//      selected, with every after-answer differential-checked bit-identical
//      to before.
//
// Kernel cost itself is timed by the repo benchmark's kernels.*_ns probes
// (perfbench/) on real node matrices.
//
// Writes BENCH_solver_throughput.json (shared schema, src/benchlib).
// Scale via IFLS_BENCH_SCALE=smoke|default|full.

#include <cstdint>
#include <cstdio>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/benchlib/harness.h"
#include "src/benchlib/json_report.h"
#include "src/benchlib/table.h"
#include "src/common/concurrent_cache.h"
#include "src/common/rng.h"
#include "src/common/stopwatch.h"
#include "src/core/batch_engine.h"
#include "src/index/minplus_kernels.h"

namespace ifls {
namespace {

/// Sink that keeps the optimizer from deleting the timed cache lookups.
volatile double g_sink = 0.0;

// ---------------------------------------------------------------------------
// Layer 1: cache microbench — the pre-refactor locked memo vs the sharded
// seqlock cache, identical mixed workload.

/// Faithful reconstruction of the door-distance memo this PR replaced: one
/// mutex in front of an unordered_map, every hit and miss serialized.
class MutexMapCache {
 public:
  bool Lookup(std::uint64_t key, double* out) const {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = map_.find(key);
    if (it == map_.end()) return false;
    *out = it->second;
    return true;
  }
  void Insert(std::uint64_t key, double value) {
    std::lock_guard<std::mutex> lock(mu_);
    map_.emplace(key, value);
  }

 private:
  mutable std::mutex mu_;
  mutable std::unordered_map<std::uint64_t, double> map_;
};

/// Million mixed ops/sec over `threads` threads (75% lookup, 25% insert,
/// 16k-key universe).
template <typename Cache>
double CacheMops(Cache* cache, int threads, int ops_per_thread) {
  Stopwatch watch;
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([cache, t, ops_per_thread] {
      std::uint64_t x = 0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(t + 1);
      double local = 0.0;
      for (int op = 0; op < ops_per_thread; ++op) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const std::uint64_t key = (x >> 32) & 0x3fff;
        if (x % 4 == 0) {
          cache->Insert(key, static_cast<double>(key) * 0.5);
        } else {
          double out;
          if (cache->Lookup(key, &out)) local += out;
        }
      }
      g_sink = g_sink + local;
    });
  }
  for (std::thread& w : workers) w.join();
  const double seconds = watch.ElapsedSeconds();
  const double total_ops = static_cast<double>(threads) * ops_per_thread;
  return seconds > 0.0 ? total_ops / seconds / 1e6 : 0.0;
}

struct CacheRow {
  int threads = 0;
  double mutex_mops = 0.0;
  double sharded_mops = 0.0;
  double speedup = 0.0;
};

std::vector<CacheRow> RunCacheMicrobench(const BenchScale& scale) {
  const int ops = scale.name == "smoke" ? 100000 : 1000000;
  std::vector<CacheRow> rows;
  for (int threads : {1, 8}) {
    CacheRow row;
    row.threads = threads;
    MutexMapCache locked;
    row.mutex_mops = CacheMops(&locked, threads, ops);
    ConcurrentDoorCache sharded(1 << 15);
    row.sharded_mops = CacheMops(&sharded, threads, ops);
    row.speedup =
        row.mutex_mops > 0.0 ? row.sharded_mops / row.mutex_mops : 0.0;
    rows.push_back(row);
  }
  return rows;
}

// ---------------------------------------------------------------------------
// Layer 2: end-to-end solver throughput.

struct SolverRow {
  std::string objective;
  int threads = 0;
  double before_qps = 0.0;
  double after_qps = 0.0;
  double speedup = 0.0;
};

const char* ConfigName(bool after) { return after ? "after" : "before"; }

int Main() {
  const BenchScale scale = BenchScale::FromEnv();
  std::printf(
      "# solver throughput before/after the door cache (scale=%s, "
      "kernels=%s, hardware threads=%u)\n\n",
      scale.name.c_str(), kernels::ActiveKernelName(),
      std::thread::hardware_concurrency());

  // --- Layer 1.
  const std::vector<CacheRow> cache_rows = RunCacheMicrobench(scale);
  TextTable ctable({"threads", "mutex memo Mops/s", "sharded Mops/s",
                    "sharded/mutex"});
  for (const CacheRow& row : cache_rows) {
    ctable.AddRow({TextTable::Int(row.threads), TextTable::Num(row.mutex_mops),
                   TextTable::Num(row.sharded_mops),
                   TextTable::Num(row.speedup)});
  }
  ctable.Print(&std::cout);
  std::printf("\n");

  // --- Layer 2.
  VenueCache venue_cache;
  const Venue& venue = venue_cache.venue(VenuePreset::kMelbourneCentral, false);
  const ParameterGrid grid =
      PresetParameterGrid(VenuePreset::kMelbourneCentral);

  // "Before" tree: door cache off (the build default — paper fairness).
  // "After" tree: the sharded door cache serving repeated DoorToDoor pairs.
  Result<VipTree> before_tree = VipTree::Build(&venue);
  IFLS_CHECK(before_tree.ok()) << before_tree.status().ToString();
  VipTreeOptions cached_opts;
  cached_opts.enable_door_distance_cache = true;
  Result<VipTree> after_tree = VipTree::Build(&venue, cached_opts);
  IFLS_CHECK(after_tree.ok()) << after_tree.status().ToString();

  WorkloadSpec spec;
  spec.preset = VenuePreset::kMelbourneCentral;
  spec.num_existing = grid.default_existing;
  spec.num_candidates = grid.default_candidates;
  spec.num_clients = scale.Clients(kDefaultClients);

  const IflsObjective objectives[3] = {IflsObjective::kMinMax,
                                       IflsObjective::kMinDist,
                                       IflsObjective::kMaxSum};
  const int workloads_per_objective = 8 * scale.repeats;

  // Per objective: one batch against each tree (identical workloads).
  std::vector<SolverRow> solver_rows;
  bool all_identical = true;
  for (const IflsObjective objective : objectives) {
    std::vector<BatchQuery> before_batch;
    std::vector<BatchQuery> after_batch;
    for (int r = 0; r < workloads_per_objective; ++r) {
      Rng rng(100 + static_cast<std::uint64_t>(r));
      IflsContext ctx;
      Result<FacilitySets> sets = MakeFacilities(venue, spec, &rng);
      IFLS_CHECK(sets.ok()) << sets.status().ToString();
      ctx.existing = sets->existing;
      ctx.candidates = sets->candidates;
      ctx.clients = MakeClients(venue, spec, &rng);
      ctx.oracle = &*before_tree;
      before_batch.push_back(BatchQuery{objective, ctx});
      ctx.oracle = &*after_tree;
      after_batch.push_back(BatchQuery{objective, std::move(ctx)});
    }

    // Warm the after-tree's cache once (steady-state serving is the target
    // of the cache; the cold fill is measured implicitly by layer 1).
    {
      BatchQueryEngine warm{BatchEngineOptions{}};
      (void)warm.RunSequential(after_batch);
    }

    std::vector<BatchQueryOutcome> reference;  // before-config answers, 1t
    for (const int threads : {1, 8}) {
      SolverRow row;
      row.objective = IflsObjectiveName(objective);
      row.threads = threads;
      for (const bool after : {false, true}) {
        BatchEngineOptions opts;
        opts.num_threads = threads;
        BatchQueryEngine engine(opts);
        const std::vector<BatchQueryOutcome> outcomes =
            engine.Run(after ? after_batch : before_batch);
        const double qps = engine.last_report().queries_per_second;
        if (after) {
          row.after_qps = qps;
        } else {
          row.before_qps = qps;
        }
        if (threads == 1 && !after) reference = outcomes;
        // Differential check: every config must reproduce the before/1t
        // answers bit for bit.
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
          const IflsResult& got = outcomes[i].result;
          const IflsResult& want = reference[i].result;
          if (got.found != want.found || got.answer != want.answer ||
              got.objective != want.objective) {
            all_identical = false;
            std::fprintf(stderr,
                         "FATAL: %s/%dt/%s diverged from before/1t on "
                         "query %zu\n",
                         row.objective.c_str(), threads, ConfigName(after), i);
          }
        }
      }
      row.speedup = row.before_qps > 0.0 ? row.after_qps / row.before_qps : 0.0;
      solver_rows.push_back(row);
    }
  }

  TextTable stable({"objective", "threads", "before q/s", "after q/s",
                    "after/before"});
  for (const SolverRow& row : solver_rows) {
    stable.AddRow({row.objective, TextTable::Int(row.threads),
                   TextTable::Num(row.before_qps), TextTable::Num(row.after_qps),
                   TextTable::Num(row.speedup)});
  }
  stable.Print(&std::cout);

  const Status written = WriteBenchReport(
      "solver_throughput", [&](JsonWriter& w) {
        w.Field("scale", scale.name);
        w.Field("venue", std::string(
                             VenuePresetName(VenuePreset::kMelbourneCentral)));
        w.Field("before_config", "door cache off");
        w.Field("after_config", "sharded door cache");
        w.Key("cache_microbench");
        w.BeginArray();
        for (const CacheRow& row : cache_rows) {
          w.BeginObject();
          w.Field("threads", row.threads);
          w.Field("mutex_memo_mops", row.mutex_mops);
          w.Field("sharded_cache_mops", row.sharded_mops);
          w.Field("speedup", row.speedup);
          w.EndObject();
        }
        w.EndArray();
        w.Key("solver_throughput");
        w.BeginArray();
        for (const SolverRow& row : solver_rows) {
          w.BeginObject();
          w.Field("objective", row.objective);
          w.Field("threads", row.threads);
          w.Field("before_qps", row.before_qps);
          w.Field("after_qps", row.after_qps);
          w.Field("speedup", row.speedup);
          w.EndObject();
        }
        w.EndArray();
        w.Field("answers_bit_identical", all_identical);
      });
  IFLS_CHECK(written.ok()) << written.ToString();
  std::cerr << "wrote " << BenchReportPath("solver_throughput") << "\n";

  if (!all_identical) return 1;
  return 0;
}

}  // namespace
}  // namespace ifls

int main() { return ifls::Main(); }
