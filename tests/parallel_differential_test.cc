// Differential lock-in of the parallel batch engine: across 20+ randomized
// venues, BatchQueryEngine::Run on a multi-worker pool must be bit-identical
// to RunSequential, to the plain sequential solvers, and deterministic
// across repeated runs — answers, tie-breaks, objectives and per-query work
// counters included — while every answer stays optimal per the brute-force
// oracles for all three objectives.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/core/batch_engine.h"
#include "src/core/brute_force.h"
#include "src/core/efficient.h"
#include "src/core/maxsum.h"
#include "src/core/mindist.h"
#include "tests/test_util.h"

namespace ifls {
namespace {

using testing_util::RandomClient;
using testing_util::Unwrap;

constexpr double kTol = 1e-7;

/// One self-contained randomized scenario: its own venue, index, and a batch
/// mixing all three objectives over several facility/client draws.
struct Scenario {
  Venue venue;
  std::unique_ptr<VipTree> tree;
  std::vector<BatchQuery> batch;
};

VenueGeneratorSpec RandomSpec(Rng* rng) {
  VenueGeneratorSpec spec;
  spec.name = "diff";
  spec.levels = 1 + static_cast<int>(rng->NextBounded(2));
  spec.rooms_per_level = 12 + static_cast<int>(rng->NextBounded(16));
  spec.rooms_per_corridor_side = 4 + static_cast<int>(rng->NextBounded(4));
  spec.room_width = 4.0 + rng->NextUniform(0.0, 3.0);
  spec.room_depth = 6.0 + rng->NextUniform(0.0, 3.0);
  spec.corridor_width = 3.0;
  spec.stairwells = 1;
  spec.stair_length = 8.0 + rng->NextUniform(0.0, 6.0);
  spec.door_jitter_seed = rng->NextBounded(1u << 20) + 1;
  return spec;
}

Scenario BuildScenario(std::uint64_t seed) {
  Rng rng(seed);
  Scenario s;
  s.venue = Unwrap(GenerateVenue(RandomSpec(&rng)));
  s.tree = std::make_unique<VipTree>(Unwrap(VipTree::Build(&s.venue)));
  // Three independent contexts per venue, each queried under every
  // objective, so one batch mixes cheap and expensive work.
  for (int draw = 0; draw < 3; ++draw) {
    IflsContext ctx;
    ctx.oracle = s.tree.get();
    FacilitySets sets = Unwrap(SelectUniformFacilities(
        s.venue, 2 + rng.NextBounded(3), 4 + rng.NextBounded(5), &rng));
    ctx.existing = std::move(sets.existing);
    ctx.candidates = std::move(sets.candidates);
    const std::size_t num_clients = 10 + rng.NextBounded(25);
    for (std::size_t i = 0; i < num_clients; ++i) {
      ctx.clients.push_back(
          RandomClient(s.venue, &rng, static_cast<ClientId>(i)));
    }
    for (IflsObjective objective :
         {IflsObjective::kMinMax, IflsObjective::kMinDist,
          IflsObjective::kMaxSum}) {
      s.batch.push_back(BatchQuery{objective, ctx});
    }
  }
  return s;
}

/// Exact (bit-level) equality of two outcomes, including the stats fields
/// that the thread-local counter sinks attribute per query. Any divergence
/// here means worker interleaving leaked into a result.
void ExpectIdentical(const BatchQueryOutcome& a, const BatchQueryOutcome& b,
                     const char* which, std::size_t i) {
  SCOPED_TRACE(::testing::Message() << which << " query " << i);
  ASSERT_EQ(a.status.ok(), b.status.ok());
  if (!a.status.ok()) return;
  EXPECT_EQ(a.result.found, b.result.found);
  EXPECT_EQ(a.result.answer, b.result.answer);  // tie-breaks included
  EXPECT_EQ(a.result.objective, b.result.objective);
  EXPECT_EQ(a.result.ranked, b.result.ranked);
  EXPECT_EQ(a.result.stats.distance_computations,
            b.result.stats.distance_computations);
  EXPECT_EQ(a.result.stats.lower_bound_computations,
            b.result.stats.lower_bound_computations);
  EXPECT_EQ(a.result.stats.queue_pushes, b.result.stats.queue_pushes);
  EXPECT_EQ(a.result.stats.queue_pops, b.result.stats.queue_pops);
  EXPECT_EQ(a.result.stats.door_distance_evals,
            b.result.stats.door_distance_evals);
  EXPECT_EQ(a.result.stats.matrix_lookups, b.result.stats.matrix_lookups);
  EXPECT_EQ(a.result.stats.peak_memory_bytes,
            b.result.stats.peak_memory_bytes);
}

/// The parallel answer must match what the brute-force oracle deems optimal
/// for the query's objective (answers may differ from the oracle's when
/// objectives tie; the achieved value may not).
void ExpectOptimal(const BatchQuery& query, const BatchQueryOutcome& outcome,
                   std::size_t i) {
  SCOPED_TRACE(::testing::Message()
               << IflsObjectiveName(query.objective) << " query " << i);
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  const IflsContext& ctx = query.context;
  switch (query.objective) {
    case IflsObjective::kMinMax: {
      const IflsResult brute = Unwrap(SolveBruteForceMinMax(ctx));
      ASSERT_TRUE(brute.found);
      if (outcome.result.found) {
        const double achieved = EvaluateMinMax(ctx, outcome.result.answer);
        EXPECT_NEAR(achieved, brute.objective,
                    kTol * std::max(1.0, brute.objective));
      } else {
        const double f0 = NoFacilityMinMax(ctx);
        EXPECT_NEAR(brute.objective, f0, kTol * std::max(1.0, f0));
      }
      break;
    }
    case IflsObjective::kMinDist: {
      const IflsResult brute = Unwrap(SolveBruteForceMinDist(ctx));
      ASSERT_TRUE(brute.found);
      if (outcome.result.found) {
        const double achieved = EvaluateMinDist(ctx, outcome.result.answer);
        EXPECT_NEAR(achieved, brute.objective,
                    kTol * std::max(1.0, brute.objective));
      } else {
        const double f0 = NoFacilityMinDist(ctx);
        EXPECT_NEAR(brute.objective, f0, kTol * std::max(1.0, f0));
      }
      break;
    }
    case IflsObjective::kMaxSum: {
      const IflsResult brute = Unwrap(SolveBruteForceMaxSum(ctx));
      if (outcome.result.found) {
        EXPECT_DOUBLE_EQ(EvaluateMaxSum(ctx, outcome.result.answer),
                         brute.objective);
      } else {
        EXPECT_DOUBLE_EQ(brute.objective, 0.0);
      }
      break;
    }
  }
}

class ParallelDifferentialTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParallelDifferentialTest, ParallelMatchesSequentialAndOracle) {
  Scenario s = BuildScenario(GetParam());

  BatchEngineOptions opts;
  opts.num_threads = 4;
  BatchQueryEngine engine(opts);
  ASSERT_EQ(engine.num_threads(), 4);

  const std::vector<BatchQueryOutcome> parallel = engine.Run(s.batch);
  const std::vector<BatchQueryOutcome> repeat = engine.Run(s.batch);
  const std::vector<BatchQueryOutcome> sequential =
      engine.RunSequential(s.batch);

  BatchEngineOptions inline_opts;
  inline_opts.num_threads = 1;
  BatchQueryEngine inline_engine(inline_opts);
  const std::vector<BatchQueryOutcome> inlined = inline_engine.Run(s.batch);

  ASSERT_EQ(parallel.size(), s.batch.size());
  ASSERT_EQ(sequential.size(), s.batch.size());
  for (std::size_t i = 0; i < s.batch.size(); ++i) {
    ExpectIdentical(parallel[i], sequential[i], "parallel-vs-sequential", i);
    ExpectIdentical(parallel[i], repeat[i], "parallel-vs-repeat", i);
    ExpectIdentical(parallel[i], inlined[i], "parallel-vs-inline", i);

    // The same solve, invoked directly outside any engine.
    const BatchQuery& q = s.batch[i];
    const Result<IflsResult> direct = [&]() -> Result<IflsResult> {
      switch (q.objective) {
        case IflsObjective::kMinMax:
          return SolveEfficient(q.context);
        case IflsObjective::kMinDist:
          return SolveMinDist(q.context);
        case IflsObjective::kMaxSum:
          return SolveMaxSum(q.context);
      }
      return Status::Internal("unreachable");
    }();
    BatchQueryOutcome direct_outcome;
    if (direct.ok()) {
      direct_outcome.result = direct.value();
    } else {
      direct_outcome.status = direct.status();
    }
    ExpectIdentical(parallel[i], direct_outcome, "parallel-vs-direct", i);

    ExpectOptimal(q, parallel[i], i);
  }

  const BatchRunReport& report = engine.last_report();
  EXPECT_EQ(report.num_queries, s.batch.size());
  EXPECT_EQ(report.num_failed, 0u);
  EXPECT_EQ(report.num_threads, 1);  // engine's last call was RunSequential
}

INSTANTIATE_TEST_SUITE_P(RandomVenues, ParallelDifferentialTest,
                         ::testing::Range<std::uint64_t>(1, 22));

/// Answer-level equality only: the door-cache axis legitimately changes the
/// work counters (a warm memo skips matrix compositions), so across that
/// axis we assert the *results* are bit-identical and leave the counters to
/// ExpectIdentical on the counter-preserving axes.
void ExpectSameAnswer(const BatchQueryOutcome& a, const BatchQueryOutcome& b,
                      const char* which, std::size_t i) {
  SCOPED_TRACE(::testing::Message() << which << " query " << i);
  ASSERT_EQ(a.status.ok(), b.status.ok());
  if (!a.status.ok()) return;
  EXPECT_EQ(a.result.found, b.result.found);
  EXPECT_EQ(a.result.answer, b.result.answer);
  EXPECT_EQ(a.result.objective, b.result.objective);  // bit-level double
  EXPECT_EQ(a.result.ranked, b.result.ranked);
}

// Solver answers must be bit-identical with the sharded door cache on and
// off, cold (4 threads racing to fill it) and warm. The other axis the name
// refers to, kernel dispatch, is covered below the solvers: every kernel
// backend the CPU supports is checked bit for bit against the scalar
// reference in minplus_kernels_test, so the solvers see identical doubles
// whichever backend dispatch picks.
TEST(DispatchCacheDifferentialTest, AnswersBitIdenticalAcrossBothAxes) {
  for (const std::uint64_t seed : {3, 11, 19}) {
    Scenario s = BuildScenario(seed);  // default tree: door cache OFF
    VipTreeOptions cached_opts;
    cached_opts.enable_door_distance_cache = true;
    VipTree cached_tree = Unwrap(VipTree::Build(&s.venue, cached_opts));
    std::vector<BatchQuery> cached_batch = s.batch;
    for (BatchQuery& q : cached_batch) q.context.oracle = &cached_tree;

    BatchEngineOptions opts;
    opts.num_threads = 4;
    BatchQueryEngine engine(opts);

    const std::vector<BatchQueryOutcome> plain = engine.Run(s.batch);
    const std::vector<BatchQueryOutcome> cold = engine.Run(cached_batch);
    const std::vector<BatchQueryOutcome> warm = engine.Run(cached_batch);

    ASSERT_EQ(plain.size(), s.batch.size());
    for (std::size_t i = 0; i < s.batch.size(); ++i) {
      ExpectSameAnswer(plain[i], cold[i], "plain-vs-cold-cache", i);
      ExpectSameAnswer(plain[i], warm[i], "plain-vs-warm-cache", i);
    }
  }
}

TEST(BatchQueryEngineTest, InvalidQueryFailsAloneAndIdentically) {
  Scenario s = BuildScenario(1234);
  BatchQuery bad = s.batch.front();
  bad.context.existing.push_back(
      static_cast<PartitionId>(s.venue.num_partitions()));  // out of range
  std::vector<BatchQuery> batch = s.batch;
  batch.insert(batch.begin() + 2, bad);

  BatchEngineOptions opts;
  opts.num_threads = 3;
  BatchQueryEngine engine(opts);
  const std::vector<BatchQueryOutcome> parallel = engine.Run(batch);
  EXPECT_EQ(engine.last_report().num_failed, 1u);
  const std::vector<BatchQueryOutcome> sequential =
      engine.RunSequential(batch);

  ASSERT_EQ(parallel.size(), batch.size());
  EXPECT_FALSE(parallel[2].status.ok());
  EXPECT_TRUE(parallel[2].status.IsInvalidArgument());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_EQ(parallel[i].status.ok(), sequential[i].status.ok());
    if (parallel[i].status.ok()) {
      EXPECT_EQ(parallel[i].result.answer, sequential[i].result.answer);
      EXPECT_EQ(parallel[i].result.objective, sequential[i].result.objective);
    }
  }
}

TEST(BatchQueryEngineTest, ObjectiveNamesAreStable) {
  EXPECT_STREQ(IflsObjectiveName(IflsObjective::kMinMax), "MinMax");
  EXPECT_STREQ(IflsObjectiveName(IflsObjective::kMinDist), "MinDist");
  EXPECT_STREQ(IflsObjectiveName(IflsObjective::kMaxSum), "MaxSum");
}

TEST(BatchQueryEngineTest, ReportAggregatesMatchPerQueryStats) {
  Scenario s = BuildScenario(77);
  BatchEngineOptions opts;
  opts.num_threads = 2;
  BatchQueryEngine engine(opts);
  const std::vector<BatchQueryOutcome> outcomes = engine.Run(s.batch);
  const BatchRunReport& report = engine.last_report();
  EXPECT_EQ(report.num_threads, 2);
  EXPECT_EQ(report.num_queries, s.batch.size());
  EXPECT_GT(report.wall_seconds, 0.0);
  EXPECT_GT(report.queries_per_second, 0.0);
  std::int64_t dist = 0;
  std::int64_t peak = 0;
  for (const BatchQueryOutcome& o : outcomes) {
    dist += o.result.stats.distance_computations;
    peak = std::max(peak, o.result.stats.peak_memory_bytes);
  }
  EXPECT_EQ(report.total_distance_computations, dist);
  EXPECT_EQ(report.max_peak_memory_bytes, peak);
}

}  // namespace
}  // namespace ifls
