// The continuous-IFLS monitor (moving clients, paper §8 future work):
// exactness against fresh solves, certified skips, and trajectory-driven
// simulation.

#include "src/core/continuous.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "src/core/brute_force.h"
#include "src/datasets/trajectory_generator.h"
#include "tests/test_util.h"

namespace ifls {
namespace {

using testing_util::RandomClient;
using testing_util::SmallVenueSpec;
using testing_util::Unwrap;

constexpr double kTol = 1e-7;

class ContinuousEnv {
 public:
  static ContinuousEnv& Get() {
    static ContinuousEnv* env = new ContinuousEnv();
    return *env;
  }
  const Venue& venue() const { return venue_; }
  const VipTree& tree() const { return *tree_; }
  FacilitySets MakeSets(std::uint64_t seed, std::size_t fe,
                        std::size_t fn) const {
    Rng rng(seed);
    return Unwrap(SelectUniformFacilities(venue_, fe, fn, &rng));
  }

 private:
  ContinuousEnv() {
    venue_ = Unwrap(GenerateVenue(SmallVenueSpec()));
    tree_ = std::make_unique<VipTree>(Unwrap(VipTree::Build(&venue_)));
  }
  Venue venue_;
  std::unique_ptr<VipTree> tree_;
};

/// Exact objective of the monitor's current crowd, computed independently.
double FreshOptimum(const ContinuousEnv& env, const FacilitySets& sets,
                    const std::vector<Client>& clients) {
  IflsContext ctx;
  ctx.oracle = &env.tree();
  ctx.existing = sets.existing;
  ctx.candidates = sets.candidates;
  ctx.clients = clients;
  const IflsResult brute = Unwrap(SolveBruteForceMinMax(ctx));
  return brute.found ? brute.objective : NoFacilityMinMax(ctx);
}

TEST(ContinuousIflsTest, MatchesFreshSolveAfterEveryUpdate) {
  ContinuousEnv& env = ContinuousEnv::Get();
  const FacilitySets sets = env.MakeSets(11, 4, 8);
  ContinuousIfls monitor(&env.tree(), sets.existing, sets.candidates);

  Rng rng(12);
  std::vector<Client> mirror;
  std::vector<ClientId> ids;
  for (int i = 0; i < 25; ++i) {
    Client c = RandomClient(env.venue(), &rng, 0);
    ids.push_back(monitor.AddClient(c.position, c.partition));
    c.id = ids.back();
    mirror.push_back(c);
  }
  for (int step = 0; step < 12; ++step) {
    // Move a random client.
    const std::size_t idx =
        static_cast<std::size_t>(rng.NextBounded(mirror.size()));
    Client moved = RandomClient(env.venue(), &rng, mirror[idx].id);
    ASSERT_TRUE(monitor
                    .MoveClient(ids[idx], moved.position, moved.partition)
                    .ok());
    mirror[idx] = moved;
    const IflsResult answer = Unwrap(monitor.Answer());
    const double optimum = FreshOptimum(env, sets, mirror);
    if (answer.found) {
      IflsContext ctx;
      ctx.oracle = &env.tree();
      ctx.existing = sets.existing;
      ctx.candidates = sets.candidates;
      ctx.clients = mirror;
      EXPECT_NEAR(EvaluateMinMax(ctx, answer.answer), optimum,
                  kTol * std::max(1.0, optimum))
          << "step " << step;
    }
  }
}

TEST(ContinuousIflsTest, AddAndRemoveClients) {
  ContinuousEnv& env = ContinuousEnv::Get();
  const FacilitySets sets = env.MakeSets(21, 3, 6);
  ContinuousIfls monitor(&env.tree(), sets.existing, sets.candidates);
  Rng rng(22);

  EXPECT_TRUE(monitor.RemoveClient(999).IsNotFound());

  const Client a = RandomClient(env.venue(), &rng, 0);
  const ClientId id_a = monitor.AddClient(a.position, a.partition);
  const Client b = RandomClient(env.venue(), &rng, 0);
  monitor.AddClient(b.position, b.partition);
  EXPECT_EQ(monitor.num_clients(), 2u);
  ASSERT_TRUE(monitor.RemoveClient(id_a).ok());
  EXPECT_EQ(monitor.num_clients(), 1u);
  EXPECT_TRUE(monitor.RemoveClient(id_a).IsNotFound());

  const IflsResult answer = Unwrap(monitor.Answer());
  std::vector<Client> mirror = {b};
  mirror[0].id = 0;
  const double optimum = FreshOptimum(env, sets, mirror);
  if (answer.found) {
    EXPECT_NEAR(answer.objective, optimum, 1e-6 + optimum * 1e-6);
  }
}

TEST(ContinuousIflsTest, CachedAnswerServedWhenClean) {
  ContinuousEnv& env = ContinuousEnv::Get();
  const FacilitySets sets = env.MakeSets(31, 4, 8);
  ContinuousIfls monitor(&env.tree(), sets.existing, sets.candidates);
  Rng rng(32);
  for (int i = 0; i < 10; ++i) {
    const Client c = RandomClient(env.venue(), &rng, 0);
    monitor.AddClient(c.position, c.partition);
  }
  (void)Unwrap(monitor.Answer());
  const std::int64_t solves = monitor.solve_count();
  (void)Unwrap(monitor.Answer());
  (void)Unwrap(monitor.Answer());
  EXPECT_EQ(monitor.solve_count(), solves);  // no re-solve when clean
}

TEST(ContinuousIflsTest, ToleranceSkipsAreSoundAndHappen) {
  ContinuousEnv& env = ContinuousEnv::Get();
  const FacilitySets sets = env.MakeSets(41, 4, 10);
  ContinuousIfls monitor(&env.tree(), sets.existing, sets.candidates);
  Rng rng(42);
  std::vector<ClientId> ids;
  std::vector<Client> mirror;
  for (int i = 0; i < 30; ++i) {
    Client c = RandomClient(env.venue(), &rng, 0);
    ids.push_back(monitor.AddClient(c.position, c.partition));
    c.id = ids.back();
    mirror.push_back(c);
  }
  (void)Unwrap(monitor.Answer());

  constexpr double kTolerance = 0.25;
  for (int step = 0; step < 30; ++step) {
    // Nudge one client within its partition (small moves rarely change the
    // answer -> skips should fire).
    const std::size_t idx =
        static_cast<std::size_t>(rng.NextBounded(mirror.size()));
    const Partition& p = env.venue().partition(mirror[idx].partition);
    Point nudged(rng.NextUniform(p.rect.min_x, p.rect.max_x),
                 rng.NextUniform(p.rect.min_y, p.rect.max_y), p.level());
    ASSERT_TRUE(
        monitor.MoveClient(ids[idx], nudged, mirror[idx].partition).ok());
    mirror[idx].position = nudged;

    const ContinuousIfls::MonitorAnswer answer =
        Unwrap(monitor.AnswerWithin(kTolerance));
    const double optimum = FreshOptimum(env, sets, mirror);
    ASSERT_TRUE(answer.result.found);
    // Soundness: the served answer is within tolerance of optimal.
    IflsContext ctx;
    ctx.oracle = &env.tree();
    ctx.existing = sets.existing;
    ctx.candidates = sets.candidates;
    ctx.clients = mirror;
    EXPECT_LE(EvaluateMinMax(ctx, answer.result.answer),
              (1.0 + kTolerance) * optimum + kTol)
        << "step " << step;
  }
  EXPECT_GT(monitor.skip_count(), 0) << "no skip ever fired";
  EXPECT_LT(monitor.solve_count(), 31) << "skips should avoid some solves";
}

TEST(ContinuousIflsTest, ZeroToleranceStillExact) {
  ContinuousEnv& env = ContinuousEnv::Get();
  const FacilitySets sets = env.MakeSets(51, 3, 7);
  ContinuousIfls monitor(&env.tree(), sets.existing, sets.candidates);
  Rng rng(52);
  std::vector<Client> mirror;
  std::vector<ClientId> ids;
  for (int i = 0; i < 15; ++i) {
    Client c = RandomClient(env.venue(), &rng, 0);
    ids.push_back(monitor.AddClient(c.position, c.partition));
    c.id = ids.back();
    mirror.push_back(c);
  }
  for (int step = 0; step < 8; ++step) {
    const std::size_t idx =
        static_cast<std::size_t>(rng.NextBounded(mirror.size()));
    Client moved = RandomClient(env.venue(), &rng, mirror[idx].id);
    ASSERT_TRUE(
        monitor.MoveClient(ids[idx], moved.position, moved.partition).ok());
    mirror[idx] = moved;
    const auto answer = Unwrap(monitor.AnswerWithin(0.0));
    const double optimum = FreshOptimum(env, sets, mirror);
    if (answer.result.found) {
      IflsContext ctx;
      ctx.oracle = &env.tree();
      ctx.existing = sets.existing;
      ctx.candidates = sets.candidates;
      ctx.clients = mirror;
      EXPECT_NEAR(EvaluateMinMax(ctx, answer.result.answer), optimum,
                  kTol * std::max(1.0, optimum));
    }
  }
  EXPECT_TRUE(monitor.AnswerWithin(-0.5).status().IsInvalidArgument());
}

// Property: the certified lower bound L = max_i min(nef_i, nc_i) must never
// exceed what an actual re-solve achieves — for any crowd reached by random
// moves and any facility sets reached by random mutations. A violation
// would make AnswerWithin's skip rule unsound (it could certify a stale
// answer as within-tolerance when a better candidate exists).
class ContinuousLowerBoundTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ContinuousLowerBoundTest, CertifiedBoundNeverViolatedByResolve) {
  ContinuousEnv& env = ContinuousEnv::Get();
  Rng rng(GetParam());
  FacilitySets sets = env.MakeSets(GetParam(), 3 + rng.NextBounded(3),
                                   5 + rng.NextBounded(6));
  ContinuousIfls monitor(&env.tree(), sets.existing, sets.candidates);
  std::sort(sets.existing.begin(), sets.existing.end());
  std::sort(sets.candidates.begin(), sets.candidates.end());

  std::vector<Client> mirror;
  std::vector<ClientId> ids;
  for (int i = 0; i < 12; ++i) {
    Client c = RandomClient(env.venue(), &rng, 0);
    ids.push_back(monitor.AddClient(c.position, c.partition));
    c.id = ids.back();
    mirror.push_back(c);
  }
  (void)Unwrap(monitor.Answer());

  const auto mirror_insert = [](std::vector<PartitionId>* v, PartitionId p) {
    v->insert(std::upper_bound(v->begin(), v->end(), p), p);
  };
  const auto mirror_erase = [](std::vector<PartitionId>* v, PartitionId p) {
    v->erase(std::find(v->begin(), v->end(), p));
  };

  for (int step = 0; step < 40; ++step) {
    // Random event: move a client or mutate a facility set.
    switch (rng.NextBounded(5)) {
      case 0:
      case 1:
      case 2: {  // move
        const std::size_t idx =
            static_cast<std::size_t>(rng.NextBounded(mirror.size()));
        const Client moved = RandomClient(env.venue(), &rng, mirror[idx].id);
        ASSERT_TRUE(
            monitor.MoveClient(ids[idx], moved.position, moved.partition)
                .ok());
        mirror[idx].position = moved.position;
        mirror[idx].partition = moved.partition;
        break;
      }
      case 3: {  // candidate churn
        const auto p = static_cast<PartitionId>(
            rng.NextBounded(env.venue().num_partitions()));
        if (monitor.AddCandidateFacility(p).ok()) {
          mirror_insert(&sets.candidates, p);
        } else if (monitor.RemoveCandidateFacility(p).ok()) {
          mirror_erase(&sets.candidates, p);
        }
        break;
      }
      default: {  // existing churn
        const auto p = static_cast<PartitionId>(
            rng.NextBounded(env.venue().num_partitions()));
        if (monitor.AddExistingFacility(p).ok()) {
          mirror_insert(&sets.existing, p);
        } else if (monitor.RemoveExistingFacility(p).ok()) {
          mirror_erase(&sets.existing, p);
        }
        break;
      }
    }

    // The bound must hold *before* the monitor re-solves: it is what the
    // skip decision reads.
    const double bound = monitor.certified_lower_bound();
    const double optimum = FreshOptimum(env, sets, mirror);
    EXPECT_LE(bound, optimum + kTol * std::max(1.0, optimum))
        << "step " << step << ": certified bound above a real re-solve";

    // And the served answer (skip or re-solve) must stay exact: tolerance 0
    // only skips when f(cached) <= L <= optimum.
    const auto answer = Unwrap(monitor.AnswerWithin(0.0));
    if (answer.result.found) {
      IflsContext ctx;
      ctx.oracle = &env.tree();
      ctx.existing = sets.existing;
      ctx.candidates = sets.candidates;
      ctx.clients = mirror;
      EXPECT_NEAR(EvaluateMinMax(ctx, answer.result.answer), optimum,
                  kTol * std::max(1.0, optimum))
          << "step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ContinuousLowerBoundTest,
                         ::testing::Range<std::uint64_t>(71, 77));

TEST(ContinuousIflsTest, FacilityMutationsValidateAndStayConsistent) {
  ContinuousEnv& env = ContinuousEnv::Get();
  const FacilitySets sets = env.MakeSets(81, 3, 5);
  ContinuousIfls monitor(&env.tree(), sets.existing, sets.candidates);
  Rng rng(82);
  for (int i = 0; i < 8; ++i) {
    const Client c = RandomClient(env.venue(), &rng, 0);
    monitor.AddClient(c.position, c.partition);
  }
  (void)Unwrap(monitor.Answer());

  const PartitionId existing = sets.existing.front();
  const PartitionId candidate = sets.candidates.front();
  EXPECT_TRUE(monitor.AddExistingFacility(existing).IsAlreadyExists());
  EXPECT_TRUE(monitor.AddCandidateFacility(candidate).IsAlreadyExists());
  EXPECT_TRUE(monitor.AddExistingFacility(candidate).IsFailedPrecondition());
  EXPECT_TRUE(monitor.AddCandidateFacility(existing).IsFailedPrecondition());
  EXPECT_TRUE(monitor.RemoveExistingFacility(candidate).IsNotFound());
  EXPECT_TRUE(monitor.RemoveCandidateFacility(existing).IsNotFound());
  EXPECT_TRUE(
      monitor.AddExistingFacility(kInvalidPartition).IsInvalidArgument());

  // Removing the cached answer itself must invalidate and re-solve.
  const IflsResult before = Unwrap(monitor.Answer());
  ASSERT_TRUE(before.found);
  const std::int64_t solves = monitor.solve_count();
  ASSERT_TRUE(monitor.RemoveCandidateFacility(before.answer).ok());
  const IflsResult after = Unwrap(monitor.Answer());
  EXPECT_GT(monitor.solve_count(), solves);
  if (after.found) {
    EXPECT_NE(after.answer, before.answer);
  }
}

TEST(ContinuousIflsTest, DrivesOffTrajectories) {
  ContinuousEnv& env = ContinuousEnv::Get();
  const FacilitySets sets = env.MakeSets(61, 4, 8);
  TrajectoryOptions topts;
  topts.ticks = 10;
  Rng rng(62);
  const std::vector<Trajectory> trajectories =
      Unwrap(GenerateTrajectories(env.tree(), 12, topts, &rng));

  ContinuousIfls monitor(&env.tree(), sets.existing, sets.candidates);
  std::vector<ClientId> ids;
  for (const Trajectory& t : trajectories) {
    ids.push_back(monitor.AddClient(t[0].position, t[0].partition));
  }
  for (std::size_t tick = 1; tick < topts.ticks; ++tick) {
    for (std::size_t agent = 0; agent < trajectories.size(); ++agent) {
      const TrajectoryPoint& p = trajectories[agent][tick];
      ASSERT_TRUE(monitor.MoveClient(ids[agent], p.position, p.partition)
                      .ok())
          << "agent " << agent << " tick " << tick;
    }
    const auto answer = Unwrap(monitor.AnswerWithin(0.2));
    EXPECT_TRUE(answer.result.found || answer.result.objective >= 0.0);
  }
}

}  // namespace
}  // namespace ifls
