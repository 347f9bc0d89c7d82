// Unit coverage of the online serving subsystem: IndexSnapshot validation,
// DeltaOverlay mutation semantics, OverlayOracle composition, and the
// IflsService front (queries vs direct solve, immediate mutation visibility,
// backpressure, deadlines, compaction, metrics, lifecycle). Deterministic
// single-threaded paths use the admission-only mode (num_workers = 0).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/solve_dispatch.h"
#include "src/service/service.h"
#include "tests/test_util.h"

namespace ifls {
namespace {

using testing_util::BuildTinyVenue;
using testing_util::RandomClient;
using testing_util::SmallVenueSpec;
using testing_util::TinyVenue;
using testing_util::Unwrap;

std::vector<Client> SomeClients(const Venue& venue, std::size_t n,
                                std::uint64_t seed = 5) {
  Rng rng(seed);
  std::vector<Client> clients;
  for (std::size_t i = 0; i < n; ++i) {
    clients.push_back(RandomClient(venue, &rng, static_cast<ClientId>(i)));
  }
  return clients;
}

// --------------------------------------------------------- ComposeFacilitySet

TEST(ComposeFacilitySetTest, UnionMinusRemovalsSorted) {
  const std::vector<PartitionId> base = {1, 3, 5, 7};
  const std::vector<PartitionId> added = {2, 6};
  const std::vector<PartitionId> removed = {3, 7};
  EXPECT_EQ(ComposeFacilitySet(base, added, removed),
            (std::vector<PartitionId>{1, 2, 5, 6}));
  EXPECT_EQ(ComposeFacilitySet(base, {}, {}), base);
  EXPECT_EQ(ComposeFacilitySet({}, added, {}), added);
}

TEST(ValidateFacilityDeltaTest, RejectsInconsistentDeltas) {
  const std::vector<PartitionId> fe = {1, 3};
  const std::vector<PartitionId> fn = {5, 7};
  FacilityDelta ok_delta;
  ok_delta.added_existing = {2};
  ok_delta.removed_candidates = {5};
  EXPECT_TRUE(ValidateFacilityDelta(ok_delta, fe, fn).ok());

  FacilityDelta dup;
  dup.added_existing = {2, 2};
  EXPECT_FALSE(ValidateFacilityDelta(dup, fe, fn).ok());

  FacilityDelta unsorted;
  unsorted.added_existing = {4, 2};
  EXPECT_FALSE(ValidateFacilityDelta(unsorted, fe, fn).ok());

  FacilityDelta add_member;  // already in base Fe
  add_member.added_existing = {3};
  EXPECT_FALSE(ValidateFacilityDelta(add_member, fe, fn).ok());

  FacilityDelta remove_nonmember;
  remove_nonmember.removed_existing = {2};
  EXPECT_FALSE(ValidateFacilityDelta(remove_nonmember, fe, fn).ok());

  FacilityDelta overlap;  // composed sets would intersect at 5
  overlap.added_existing = {5};
  EXPECT_FALSE(ValidateFacilityDelta(overlap, fe, fn).ok());
}

// -------------------------------------------------------------- DeltaOverlay

TEST(DeltaOverlayTest, ApplyValidatesAgainstEffectiveState) {
  const std::vector<PartitionId> fe = {0};
  const std::vector<PartitionId> fn = {1};
  DeltaOverlay overlay(4, fe, fn);

  EXPECT_TRUE(overlay.Apply({MutationKind::kAddCandidate, 2}).ok());
  EXPECT_EQ(overlay.EffectiveKind(2), FacilityKind::kCandidate);

  // Re-adding the same role: kAlreadyExists.
  EXPECT_TRUE(overlay.Apply({MutationKind::kAddCandidate, 2})
                  .IsAlreadyExists());
  // Promoting without removing first: kFailedPrecondition.
  EXPECT_TRUE(overlay.Apply({MutationKind::kAddFacility, 2})
                  .IsFailedPrecondition());
  // Removing a role the partition does not hold: kNotFound.
  EXPECT_TRUE(overlay.Apply({MutationKind::kRemoveFacility, 3}).IsNotFound());
  // Out-of-range partition.
  EXPECT_TRUE(overlay.Apply({MutationKind::kAddCandidate, 99}).IsOutOfRange());
  EXPECT_TRUE(overlay.Apply({MutationKind::kAddCandidate, -1}).IsOutOfRange());

  EXPECT_EQ(overlay.net_size(), 1u);
  EXPECT_EQ(overlay.mutations_applied(), 1u);
}

TEST(DeltaOverlayTest, TogglingBackToBaseCancelsNetChange) {
  const std::vector<PartitionId> fe = {0};
  const std::vector<PartitionId> fn = {1};
  DeltaOverlay overlay(4, fe, fn);

  EXPECT_TRUE(overlay.Apply({MutationKind::kRemoveFacility, 0}).ok());
  EXPECT_EQ(overlay.net_size(), 1u);
  EXPECT_TRUE(overlay.Apply({MutationKind::kAddFacility, 0}).ok());
  EXPECT_EQ(overlay.net_size(), 0u);
  EXPECT_TRUE(overlay.delta().empty());
  EXPECT_EQ(overlay.mutations_applied(), 2u);
}

TEST(DeltaOverlayTest, DeltaBucketsAreSortedAndNet) {
  const std::vector<PartitionId> fe = {0, 4};
  const std::vector<PartitionId> fn = {1};
  DeltaOverlay overlay(8, fe, fn);
  EXPECT_TRUE(overlay.Apply({MutationKind::kAddCandidate, 6}).ok());
  EXPECT_TRUE(overlay.Apply({MutationKind::kAddCandidate, 3}).ok());
  EXPECT_TRUE(overlay.Apply({MutationKind::kRemoveFacility, 4}).ok());
  EXPECT_TRUE(overlay.Apply({MutationKind::kAddFacility, 7}).ok());

  const FacilityDelta d = overlay.delta();
  EXPECT_EQ(d.added_candidates, (std::vector<PartitionId>{3, 6}));
  EXPECT_EQ(d.removed_existing, (std::vector<PartitionId>{4}));
  EXPECT_EQ(d.added_existing, (std::vector<PartitionId>{7}));
  EXPECT_TRUE(d.removed_candidates.empty());
  EXPECT_EQ(d.size(), 4u);
}

TEST(DeltaOverlayTest, RebaseDropsFoldedChangesKeepsRacingOnes) {
  const std::vector<PartitionId> fe = {0};
  const std::vector<PartitionId> fn = {1};
  DeltaOverlay overlay(6, fe, fn);
  EXPECT_TRUE(overlay.Apply({MutationKind::kAddCandidate, 2}).ok());

  // Compactor folds the cut {added_candidates: [2]} into a new base...
  const std::vector<PartitionId> new_fe = {0};
  const std::vector<PartitionId> new_fn = {1, 2};
  // ...while a racing mutation lands before the rebase.
  EXPECT_TRUE(overlay.Apply({MutationKind::kAddCandidate, 3}).ok());

  overlay.RebaseTo(new_fe, new_fn);
  const FacilityDelta d = overlay.delta();
  EXPECT_EQ(d.added_candidates, (std::vector<PartitionId>{3}));
  EXPECT_EQ(d.size(), 1u);
  EXPECT_EQ(overlay.EffectiveKind(2), FacilityKind::kCandidate);
}

TEST(DeltaOverlayTest, RebaseHonorsMutationsUndoneAfterTheCut) {
  // The subtle compaction race: AddCandidate(2) is cut into the new base,
  // then RemoveCandidate(2) lands (cancelling the override entirely) before
  // the rebase. The rebased overlay must still record 2's removal relative
  // to the new base — otherwise the withdrawn candidate silently reappears.
  const std::vector<PartitionId> fe = {0};
  const std::vector<PartitionId> fn = {1};
  DeltaOverlay overlay(6, fe, fn);
  EXPECT_TRUE(overlay.Apply({MutationKind::kAddCandidate, 2}).ok());
  const std::vector<PartitionId> new_fn = {1, 2};  // cut folded in

  EXPECT_TRUE(overlay.Apply({MutationKind::kRemoveCandidate, 2}).ok());
  EXPECT_TRUE(overlay.delta().empty());  // override cancelled vs old base

  overlay.RebaseTo(fe, new_fn);
  const FacilityDelta d = overlay.delta();
  EXPECT_EQ(d.removed_candidates, (std::vector<PartitionId>{2}));
  EXPECT_EQ(overlay.EffectiveKind(2), FacilityKind::kNone);
}

// ------------------------------------------------------------- IndexSnapshot

TEST(IndexSnapshotTest, BuildValidatesAndCanonicalizes) {
  TinyVenue t = BuildTinyVenue();
  auto venue = std::make_shared<const Venue>(std::move(t.venue));

  // Unsorted inputs come back sorted.
  auto snap = Unwrap(IndexSnapshot::Build(venue, {t.room_c, t.room_a},
                                          {t.room_d, t.room_b},
                                          /*epoch=*/3, VipTreeOptions{}));
  EXPECT_EQ(snap->epoch(), 3u);
  std::vector<PartitionId> fe(snap->existing().begin(),
                              snap->existing().end());
  EXPECT_EQ(fe, (std::vector<PartitionId>{t.room_a, t.room_c}));
  std::vector<PartitionId> fn(snap->candidates().begin(),
                              snap->candidates().end());
  EXPECT_EQ(fn, (std::vector<PartitionId>{t.room_b, t.room_d}));

  // Duplicates, range violations, Fe/Fn overlap.
  EXPECT_FALSE(IndexSnapshot::Build(venue, {t.room_a, t.room_a}, {},
                                    0, VipTreeOptions{})
                   .ok());
  EXPECT_FALSE(IndexSnapshot::Build(
                   venue, {static_cast<PartitionId>(venue->num_partitions())},
                   {}, 0, VipTreeOptions{})
                   .ok());
  EXPECT_FALSE(IndexSnapshot::Build(venue, {t.room_a}, {t.room_a}, 0,
                                    VipTreeOptions{})
                   .ok());
}

TEST(IndexSnapshotTest, SharedTreeIsReused) {
  TinyVenue t = BuildTinyVenue();
  auto venue = std::make_shared<const Venue>(std::move(t.venue));
  auto first = Unwrap(
      IndexSnapshot::Build(venue, {t.room_a}, {t.room_b}, 0,
                           VipTreeOptions{}));
  auto second = Unwrap(IndexSnapshot::Build(venue, {t.room_c}, {t.room_d}, 1,
                                            VipTreeOptions{},
                                            first->shared_tree()));
  EXPECT_EQ(&first->tree(), &second->tree());
  EXPECT_EQ(second->epoch(), 1u);
}

// ----------------------------------------------------------------- Service

struct ServiceScenario {
  Venue venue;  // the service owns its own copy
  std::unique_ptr<VipTree> reference_tree;
  std::vector<PartitionId> existing;
  std::vector<PartitionId> candidates;
  std::vector<Client> clients;
  std::unique_ptr<IflsService> service;
};

ServiceScenario MakeScenario(const ServiceOptions& options,
                             std::uint64_t seed = 11) {
  ServiceScenario s;
  s.venue = Unwrap(GenerateVenue(SmallVenueSpec()));
  s.reference_tree =
      std::make_unique<VipTree>(Unwrap(VipTree::Build(&s.venue)));
  Rng rng(seed);
  FacilitySets sets =
      Unwrap(SelectUniformFacilities(s.venue, 3, 5, &rng));
  s.existing = std::move(sets.existing);
  s.candidates = std::move(sets.candidates);
  std::sort(s.existing.begin(), s.existing.end());
  std::sort(s.candidates.begin(), s.candidates.end());
  s.clients = SomeClients(s.venue, 15, seed + 1);
  Venue copy = Unwrap(GenerateVenue(SmallVenueSpec()));
  s.service = Unwrap(
      IflsService::Create(std::move(copy), s.existing, s.candidates, options));
  return s;
}

TEST(IflsServiceTest, CreateRejectsBadOptions) {
  TinyVenue t = BuildTinyVenue();
  ServiceOptions bad_workers;
  bad_workers.num_workers = -1;
  EXPECT_FALSE(
      IflsService::Create(std::move(t.venue), {}, {}, bad_workers).ok());

  TinyVenue t2 = BuildTinyVenue();
  ServiceOptions bad_queue;
  bad_queue.queue_capacity = 0;
  EXPECT_FALSE(
      IflsService::Create(std::move(t2.venue), {}, {}, bad_queue).ok());

  TinyVenue t3 = BuildTinyVenue();
  EXPECT_FALSE(IflsService::Create(std::move(t3.venue), {0}, {0}, {}).ok());
}

TEST(IflsServiceTest, QueryMatchesDirectSolve) {
  ServiceOptions options;
  options.num_workers = 0;  // deterministic inline execution
  ServiceScenario s = MakeScenario(options);

  for (IflsObjective objective :
       {IflsObjective::kMinMax, IflsObjective::kMinDist,
        IflsObjective::kMaxSum}) {
    SCOPED_TRACE(IflsObjectiveName(objective));
    ServiceRequest req;
    req.objective = objective;
    req.clients = s.clients;
    const ServiceReply reply = s.service->Query(std::move(req));
    ASSERT_TRUE(reply.status.ok()) << reply.status.ToString();
    EXPECT_EQ(reply.snapshot_epoch, 0u);
    EXPECT_EQ(reply.overlay_size, 0u);

    IflsContext ctx;
    ctx.oracle = s.reference_tree.get();
    ctx.existing = s.existing;
    ctx.candidates = s.candidates;
    ctx.clients = s.clients;
    const IflsResult direct = Unwrap(SolveWithObjective(objective, ctx));
    EXPECT_EQ(reply.result.found, direct.found);
    EXPECT_EQ(reply.result.answer, direct.answer);
    EXPECT_EQ(reply.result.objective, direct.objective);
    EXPECT_EQ(reply.result.ranked, direct.ranked);
  }
}

TEST(IflsServiceTest, MutationIsVisibleToNextQuery) {
  ServiceOptions options;
  options.num_workers = 0;
  options.compaction_threshold = 0;  // manual compaction only
  ServiceScenario s = MakeScenario(options);

  // Withdraw every candidate but one: the solver must pick the survivor.
  const PartitionId survivor = s.candidates.front();
  for (std::size_t i = 1; i < s.candidates.size(); ++i) {
    ASSERT_TRUE(
        s.service->Mutate({MutationKind::kRemoveCandidate, s.candidates[i]})
            .ok());
  }
  const auto state = s.service->AcquireState();
  EXPECT_EQ(state->overlay.effective_candidates(),
            std::vector<PartitionId>{survivor});

  ServiceRequest req;
  req.objective = IflsObjective::kMinDist;
  req.clients = s.clients;
  const ServiceReply reply = s.service->Query(std::move(req));
  ASSERT_TRUE(reply.status.ok()) << reply.status.ToString();
  EXPECT_EQ(reply.overlay_size, s.candidates.size() - 1);
  if (reply.result.found) {
    EXPECT_EQ(reply.result.answer, survivor);
  }

  const ServiceMetrics m = s.service->Metrics();
  EXPECT_EQ(m.mutations_applied, s.candidates.size() - 1);
  EXPECT_EQ(m.overlay_size, s.candidates.size() - 1);
}

TEST(IflsServiceTest, InvalidMutationIsRejectedAndCounted) {
  ServiceOptions options;
  options.num_workers = 0;
  ServiceScenario s = MakeScenario(options);
  EXPECT_TRUE(s.service->Mutate({MutationKind::kAddFacility, -3})
                  .IsOutOfRange());
  EXPECT_TRUE(
      s.service->Mutate({MutationKind::kAddCandidate, s.candidates.front()})
          .IsAlreadyExists());
  const ServiceMetrics m = s.service->Metrics();
  EXPECT_EQ(m.mutations_applied, 0u);
  EXPECT_EQ(m.mutations_rejected, 2u);
}

TEST(IflsServiceTest, FullQueueShedsWithUnavailable) {
  ServiceOptions options;
  options.num_workers = 0;  // nothing drains the queue
  options.queue_capacity = 2;
  ServiceScenario s = MakeScenario(options);

  ServiceRequest req;
  req.objective = IflsObjective::kMinMax;
  req.clients = s.clients;
  auto first = s.service->SubmitQuery(req);
  auto second = s.service->SubmitQuery(req);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  auto third = s.service->SubmitQuery(req);
  ASSERT_FALSE(third.ok());
  EXPECT_TRUE(third.status().IsUnavailable());

  // Pumping drains the two admitted requests; both complete fine.
  EXPECT_TRUE(s.service->ProcessOneInline());
  EXPECT_TRUE(s.service->ProcessOneInline());
  EXPECT_FALSE(s.service->ProcessOneInline());
  EXPECT_TRUE(first.value().get().status.ok());
  EXPECT_TRUE(second.value().get().status.ok());

  const ServiceMetrics m = s.service->Metrics();
  EXPECT_EQ(m.submitted, 3u);
  EXPECT_EQ(m.admitted, 2u);
  EXPECT_EQ(m.shed, 1u);
  EXPECT_EQ(m.completed, 2u);
  EXPECT_EQ(m.queue_depth, 0u);
}

TEST(IflsServiceTest, ExpiredDeadlineSkipsTheSolver) {
  ServiceOptions options;
  options.num_workers = 0;
  ServiceScenario s = MakeScenario(options);

  ServiceRequest req;
  req.objective = IflsObjective::kMinMax;
  req.clients = s.clients;
  req.deadline_seconds = 1e-9;
  auto submitted = s.service->SubmitQuery(std::move(req));
  ASSERT_TRUE(submitted.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(s.service->ProcessOneInline());
  const ServiceReply reply = submitted.value().get();
  EXPECT_TRUE(reply.status.IsDeadlineExceeded()) << reply.status.ToString();
  EXPECT_FALSE(reply.result.found);
  EXPECT_EQ(s.service->Metrics().deadline_expired, 1u);
}

TEST(IflsServiceTest, CompactNowFoldsOverlayAndBumpsEpoch) {
  ServiceOptions options;
  options.num_workers = 0;
  options.compaction_threshold = 0;
  ServiceScenario s = MakeScenario(options);

  const PartitionId removed = s.candidates.back();
  ASSERT_TRUE(
      s.service->Mutate({MutationKind::kRemoveCandidate, removed}).ok());
  ASSERT_TRUE(
      s.service->Mutate({MutationKind::kAddFacility, removed}).ok());
  EXPECT_EQ(s.service->snapshot_epoch(), 0u);

  ASSERT_TRUE(s.service->CompactNow().ok());
  EXPECT_EQ(s.service->snapshot_epoch(), 1u);

  const auto state = s.service->AcquireState();
  EXPECT_TRUE(state->overlay.delta().empty());  // folded into the base
  std::vector<PartitionId> expected_fe = s.existing;
  expected_fe.push_back(removed);
  std::sort(expected_fe.begin(), expected_fe.end());
  std::vector<PartitionId> base_fe(state->snapshot->existing().begin(),
                                   state->snapshot->existing().end());
  EXPECT_EQ(base_fe, expected_fe);
  EXPECT_EQ(s.service->Metrics().compactions, 1u);

  // Compacting an empty overlay still publishes a fresh epoch.
  ASSERT_TRUE(s.service->CompactNow().ok());
  EXPECT_EQ(s.service->snapshot_epoch(), 2u);
}

TEST(IflsServiceTest, ThresholdTriggersBackgroundCompaction) {
  ServiceOptions options;
  options.num_workers = 0;
  options.compaction_threshold = 2;
  ServiceScenario s = MakeScenario(options);

  ASSERT_TRUE(
      s.service->Mutate({MutationKind::kRemoveCandidate, s.candidates[0]})
          .ok());
  ASSERT_TRUE(
      s.service->Mutate({MutationKind::kRemoveCandidate, s.candidates[1]})
          .ok());
  // The compactor runs asynchronously; wait (bounded) for the publication.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (s.service->snapshot_epoch() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(s.service->snapshot_epoch(), 1u);
  EXPECT_GE(s.service->Metrics().compactions, 1u);
}

TEST(IflsServiceTest, PinnedStateSurvivesPublications) {
  ServiceOptions options;
  options.num_workers = 0;
  options.compaction_threshold = 0;
  ServiceScenario s = MakeScenario(options);

  const auto pinned = s.service->AcquireState();
  const std::vector<PartitionId> pinned_fn =
      pinned->overlay.effective_candidates();

  ASSERT_TRUE(
      s.service->Mutate({MutationKind::kRemoveCandidate, s.candidates[0]})
          .ok());
  ASSERT_TRUE(s.service->CompactNow().ok());

  // The pinned state still serves the pre-mutation view and stays solvable.
  EXPECT_EQ(pinned->overlay.effective_candidates(), pinned_fn);
  EXPECT_EQ(pinned->snapshot->epoch(), 0u);
  IflsContext ctx;
  ctx.oracle = &pinned->oracle();
  ctx.existing = pinned->overlay.effective_existing();
  ctx.candidates = pinned->overlay.effective_candidates();
  ctx.clients = s.clients;
  EXPECT_TRUE(SolveWithObjective(IflsObjective::kMinMax, ctx).ok());

  // The live state moved on.
  EXPECT_EQ(s.service->AcquireState()->snapshot->epoch(), 1u);
}

TEST(IflsServiceTest, StopShedsQueuedWorkAndRefusesNewWork) {
  ServiceOptions options;
  options.num_workers = 0;
  ServiceScenario s = MakeScenario(options);

  ServiceRequest req;
  req.objective = IflsObjective::kMinMax;
  req.clients = s.clients;
  auto queued = s.service->SubmitQuery(req);
  ASSERT_TRUE(queued.ok());

  s.service->Stop();
  EXPECT_TRUE(queued.value().get().status.IsUnavailable());

  auto after = s.service->SubmitQuery(req);
  ASSERT_FALSE(after.ok());
  EXPECT_TRUE(after.status().IsUnavailable());
  EXPECT_TRUE(s.service->CompactNow().IsUnavailable());
  s.service->Stop();  // idempotent
}

TEST(IflsServiceTest, WorkerPoolAnswersSubmittedBatch) {
  ServiceOptions options;
  options.num_workers = 3;
  ServiceScenario s = MakeScenario(options);

  std::vector<std::future<ServiceReply>> futures;
  for (int i = 0; i < 12; ++i) {
    ServiceRequest req;
    req.objective = static_cast<IflsObjective>(i % 3);
    req.clients = s.clients;
    futures.push_back(Unwrap(s.service->SubmitQuery(std::move(req))));
  }
  for (auto& f : futures) {
    const ServiceReply reply = f.get();
    EXPECT_TRUE(reply.status.ok()) << reply.status.ToString();
  }
  s.service->Drain();
  const ServiceMetrics m = s.service->Metrics();
  EXPECT_EQ(m.completed, 12u);
  EXPECT_EQ(m.failed, 0u);
  EXPECT_EQ(m.queue_depth, 0u);
  EXPECT_GT(m.latency_p50_seconds, 0.0);
  EXPECT_GE(m.latency_p99_seconds, m.latency_p50_seconds);
  EXPECT_FALSE(m.ToString().empty());
}

TEST(IflsServiceTest, SolverErrorsSurfaceInReplyStatus) {
  ServiceOptions options;
  options.num_workers = 0;
  ServiceScenario s = MakeScenario(options);

  ServiceRequest req;
  req.objective = IflsObjective::kMinMax;
  req.clients = s.clients;
  req.clients.front().partition =
      static_cast<PartitionId>(1 << 20);  // out of range: validation fails
  const ServiceReply reply = s.service->Query(std::move(req));
  EXPECT_FALSE(reply.status.ok());
  const ServiceMetrics m = s.service->Metrics();
  EXPECT_EQ(m.completed, 1u);
  EXPECT_EQ(m.failed, 1u);
}

}  // namespace
}  // namespace ifls
