// Standing queries: Subscribe/RefreshSubscriptions delivers answer-set
// deltas (entered / left / changed) with gap-free monotonic sequence
// numbers; reconstructing the answer set from the delta stream is
// bit-identical to a one-shot Submit() of the same request at the same
// epoch — proven at 1, 2, and 4 shards; ingest marks exactly the affected
// subscriptions dirty; window ticks slide windows (and hit the engine
// cache's shift-extension path); refresh rounds coalesce through one
// burst; cancellation stops delivery; failed refreshes never consume a
// sequence number, and a failure no retry cures closes the subscription.

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/database.h"
#include "core/query_request.h"
#include "core/query_window.h"
#include "core/shard_router.h"
#include "service/query_service.h"
#include "sparse/prob_vector.h"
#include "testing/random_models.h"
#include "testing/sharded_fixture.h"
#include "testing/test_seed.h"
#include "util/fault_injector.h"
#include "util/rng.h"

namespace ustdb {
namespace service {
namespace {

using ::ustdb::testing::MakeShardedPair;
using ::ustdb::testing::RandomChain;
using ::ustdb::testing::RandomDistribution;
using ::ustdb::testing::ShardedPair;
using ::ustdb::testing::ShardedSpec;

constexpr auto kGetTimeout = std::chrono::milliseconds(60'000);
constexpr uint32_t kStates = 24;

/// One-shard monitoring fixture: one chain, `num_objects` objects at t=0.
struct Monitor {
  core::ShardedDatabase db{core::ShardingOptions{.num_shards = 1}};
  ChainId chain = 0;
  util::Rng rng;

  explicit Monitor(uint64_t seed, uint32_t num_objects = 12) : rng(seed) {
    chain = db.AddChain(RandomChain(kStates, 3, &rng));
    for (uint32_t i = 0; i < num_objects; ++i) {
      (void)db.AddObjectAt(chain, RandomDistribution(kStates, 3, &rng))
          .ValueOrDie();
    }
  }

  // Full-support observations: always consistent with the possible
  // worlds, so standing-query refreshes never fail on reachability.
  core::Observation NextObs(Timestamp t) {
    return {t, RandomDistribution(kStates, kStates, &rng)};
  }
};

core::QueryRequest ThresholdRequest(double tau = 0.1) {
  core::QueryRequest request;
  request.predicate = core::PredicateKind::kThresholdExists;
  request.tau = tau;
  request.window =
      core::QueryWindow::FromRanges(kStates, 4, 11, 1, 5).ValueOrDie();
  return request;
}

/// Applies one delta to a reconstructed answer set.
void Apply(std::map<ObjectId, double>* mirror,
           const SubscriptionDelta& delta) {
  for (ObjectId id : delta.left) mirror->erase(id);
  for (const core::ObjectProbability& p : delta.entered) {
    (*mirror)[p.id] = p.probability;
  }
  for (const core::ObjectProbability& p : delta.changed) {
    (*mirror)[p.id] = p.probability;
  }
}

/// The reconstructed set must equal the one-shot answer bit-for-bit.
void ExpectMirrorsOneShot(const std::map<ObjectId, double>& mirror,
                          const core::QueryResult& one_shot) {
  std::vector<core::ObjectProbability> want = one_shot.probabilities;
  std::sort(want.begin(), want.end(),
            [](const core::ObjectProbability& a,
               const core::ObjectProbability& b) { return a.id < b.id; });
  ASSERT_EQ(mirror.size(), want.size());
  auto it = mirror.begin();
  for (size_t i = 0; i < want.size(); ++i, ++it) {
    EXPECT_EQ(it->first, want[i].id);
    EXPECT_EQ(it->second, want[i].probability)
        << "reconstructed probability drift for object " << want[i].id;
  }
}

util::Result<core::QueryResult> OneShot(QueryService* service,
                                        core::QueryRequest request) {
  QueryTicket ticket = service->Submit(std::move(request));
  EXPECT_TRUE(ticket.WaitFor(kGetTimeout));
  return ticket.Get();
}

TEST(SubscriptionTest, RejectsKTimesAndNullCallback) {
  Monitor m(ustdb::testing::TestSeed(901));
  QueryService service(&m.db);

  core::QueryRequest ktimes;
  ktimes.predicate = core::PredicateKind::kKTimes;
  ktimes.window =
      core::QueryWindow::FromRanges(kStates, 4, 11, 1, 5).ValueOrDie();
  const auto rejected = service.Subscribe(
      std::move(ktimes), WindowPolicy{}, [](const SubscriptionDelta&) {});
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), util::StatusCode::kInvalidArgument);

  const auto null_cb =
      service.Subscribe(ThresholdRequest(), WindowPolicy{}, nullptr);
  ASSERT_FALSE(null_cb.ok());
  EXPECT_EQ(null_cb.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(service.num_subscriptions(), 0u);
}

/// A request Submit() refuses at routing can never be answered. Subscribe
/// rejects it up front, registering nothing, rather than keeping a
/// subscription whose every refresh fails and re-marks it dirty.
TEST(SubscriptionTest, RejectsRequestsSubmitWouldRefuse) {
  Monitor m(ustdb::testing::TestSeed(912), /*num_objects=*/8);
  QueryService service(&m.db);

  core::QueryRequest out_of_range = ThresholdRequest();
  out_of_range.object_filter = std::vector<ObjectId>{1, 999};
  core::QueryRequest wrong_domain = ThresholdRequest();
  wrong_domain.window =
      core::QueryWindow::FromRanges(400, 360, 399, 1, 5).ValueOrDie();
  for (const core::QueryRequest& request : {out_of_range, wrong_domain}) {
    const uint64_t submitted = service.stats().submitted;
    const auto rejected = service.Subscribe(
        request, WindowPolicy{}, [](const SubscriptionDelta&) {});
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_EQ(service.num_subscriptions(), 0u);
    EXPECT_EQ(service.RefreshSubscriptions(), 0u);
    EXPECT_EQ(service.stats().submitted, submitted);
  }
}

TEST(SubscriptionTest, FirstDeliveryReportsFullAnswerAsEntered) {
  const uint64_t seed = ustdb::testing::TestSeed(902);
  SCOPED_TRACE(ustdb::testing::SeedTrace(seed));
  Monitor m(seed);
  QueryService service(&m.db);

  std::vector<SubscriptionDelta> deltas;
  // Pinned window: this test never ticks.
  auto sub = service.Subscribe(
      ThresholdRequest(), WindowPolicy{.slide = 0},
      [&](const SubscriptionDelta& d) { deltas.push_back(d); });
  ASSERT_TRUE(sub.ok()) << sub.status();
  EXPECT_EQ(service.num_subscriptions(), 1u);

  ASSERT_EQ(service.RefreshSubscriptions(), 1u);
  ASSERT_EQ(deltas.size(), 1u);
  EXPECT_EQ(deltas[0].subscription_id, sub.value().id());
  EXPECT_EQ(deltas[0].sequence, 1u);
  EXPECT_EQ(deltas[0].epoch, 0u);  // frozen database
  EXPECT_TRUE(deltas[0].left.empty());
  EXPECT_TRUE(deltas[0].changed.empty());
  EXPECT_EQ(sub.value().last_sequence(), 1u);

  const auto one_shot = OneShot(&service, ThresholdRequest());
  ASSERT_TRUE(one_shot.ok());
  std::map<ObjectId, double> mirror;
  Apply(&mirror, deltas[0]);
  ExpectMirrorsOneShot(mirror, one_shot.value());
  ASSERT_FALSE(mirror.empty()) << "fixture answered nothing; test is vacuous";

  // Nothing dirty: a second round is a no-op and consumes no sequence.
  EXPECT_EQ(service.RefreshSubscriptions(), 0u);
  EXPECT_EQ(sub.value().last_sequence(), 1u);
}

TEST(SubscriptionTest, IngestMarksDirtyAndDeltasTrackChanges) {
  const uint64_t seed = ustdb::testing::TestSeed(903);
  SCOPED_TRACE(ustdb::testing::SeedTrace(seed));
  Monitor m(seed);
  QueryService service(&m.db);

  std::vector<SubscriptionDelta> deltas;
  auto sub = service.Subscribe(
      ThresholdRequest(), WindowPolicy{.slide = 0},
      [&](const SubscriptionDelta& d) { deltas.push_back(d); });
  ASSERT_TRUE(sub.ok());
  ASSERT_EQ(service.RefreshSubscriptions(), 1u);

  std::map<ObjectId, double> mirror;
  Apply(&mirror, deltas[0]);

  // Each append dirties the subscription; each refresh delivers the next
  // consecutive sequence and keeps the mirror in lockstep with a one-shot.
  for (int round = 0; round < 4; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    ASSERT_TRUE(
        service
            .AppendObservation(static_cast<ObjectId>(round),
                               m.NextObs(Timestamp(1 + round)))
            .ok());
    ASSERT_EQ(service.RefreshSubscriptions(), 1u);
    const SubscriptionDelta& last = deltas.back();
    EXPECT_EQ(last.sequence, static_cast<uint64_t>(round) + 2);
    EXPECT_EQ(last.epoch, m.db.data_version());
    Apply(&mirror, last);
    const auto one_shot = OneShot(&service, ThresholdRequest());
    ASSERT_TRUE(one_shot.ok());
    ExpectMirrorsOneShot(mirror, one_shot.value());
  }
}

TEST(SubscriptionTest, FilterMissDoesNotDirty) {
  const uint64_t seed = ustdb::testing::TestSeed(904);
  SCOPED_TRACE(ustdb::testing::SeedTrace(seed));
  Monitor m(seed);
  QueryService service(&m.db);

  core::QueryRequest filtered = ThresholdRequest();
  filtered.object_filter = std::vector<ObjectId>{0, 2};
  size_t delivered_to_me = 0;
  auto sub = service.Subscribe(
      std::move(filtered), WindowPolicy{.slide = 0},
      [&](const SubscriptionDelta&) { ++delivered_to_me; });
  ASSERT_TRUE(sub.ok());
  ASSERT_EQ(service.RefreshSubscriptions(), 1u);

  // An append outside the filter leaves the subscription clean.
  ASSERT_TRUE(service.AppendObservation(5, m.NextObs(1)).ok());
  EXPECT_EQ(service.RefreshSubscriptions(), 0u);
  // One inside dirties it.
  ASSERT_TRUE(service.AppendObservation(2, m.NextObs(1)).ok());
  EXPECT_EQ(service.RefreshSubscriptions(), 1u);
  EXPECT_EQ(delivered_to_me, 2u);
}

TEST(SubscriptionTest, RefreshOnIngestFalseRefreshesOnTicksOnly) {
  const uint64_t seed = ustdb::testing::TestSeed(905);
  SCOPED_TRACE(ustdb::testing::SeedTrace(seed));
  Monitor m(seed);
  QueryService service(&m.db);

  auto sub = service.Subscribe(ThresholdRequest(),
                               WindowPolicy{.refresh_on_ingest = false},
                               [](const SubscriptionDelta&) {});
  ASSERT_TRUE(sub.ok());
  ASSERT_EQ(service.RefreshSubscriptions(), 1u);

  ASSERT_TRUE(service.AppendObservation(0, m.NextObs(1)).ok());
  EXPECT_EQ(service.RefreshSubscriptions(), 0u);
  service.TickWindows();
  EXPECT_EQ(service.RefreshSubscriptions(), 1u);
}

TEST(SubscriptionTest, PinnedWindowIgnoresTicks) {
  const uint64_t seed = ustdb::testing::TestSeed(906);
  SCOPED_TRACE(ustdb::testing::SeedTrace(seed));
  Monitor m(seed);
  QueryService service(&m.db);

  auto sub = service.Subscribe(ThresholdRequest(), WindowPolicy{.slide = 0},
                               [](const SubscriptionDelta&) {});
  ASSERT_TRUE(sub.ok());
  ASSERT_EQ(service.RefreshSubscriptions(), 1u);
  service.TickWindows(3);
  EXPECT_EQ(service.RefreshSubscriptions(), 0u);
  EXPECT_EQ(sub.value().last_sequence(), 1u);
}

TEST(SubscriptionTest, CancelStopsDeliveryAndFreesTheSlot) {
  const uint64_t seed = ustdb::testing::TestSeed(907);
  SCOPED_TRACE(ustdb::testing::SeedTrace(seed));
  Monitor m(seed);
  QueryService service(&m.db);

  size_t a_count = 0;
  size_t b_count = 0;
  auto a = service.Subscribe(ThresholdRequest(), WindowPolicy{.slide = 0},
                             [&](const SubscriptionDelta&) { ++a_count; });
  auto b = service.Subscribe(ThresholdRequest(), WindowPolicy{.slide = 0},
                             [&](const SubscriptionDelta&) { ++b_count; });
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(service.num_subscriptions(), 2u);
  ASSERT_EQ(service.RefreshSubscriptions(), 2u);

  a.value().Cancel();
  EXPECT_TRUE(a.value().cancelled());
  EXPECT_EQ(service.num_subscriptions(), 1u);

  ASSERT_TRUE(service.AppendObservation(0, m.NextObs(1)).ok());
  EXPECT_EQ(service.RefreshSubscriptions(), 1u);
  EXPECT_EQ(a_count, 1u);
  EXPECT_EQ(b_count, 2u);
  EXPECT_EQ(service.stats().subscriptions_active, 1u);
  // Idempotent.
  a.value().Cancel();
  EXPECT_EQ(service.num_subscriptions(), 1u);
}

TEST(SubscriptionTest, FailedRefreshKeepsSequencesGapFree) {
  const uint64_t seed = ustdb::testing::TestSeed(908);
  SCOPED_TRACE(ustdb::testing::SeedTrace(seed));
  Monitor m(seed, /*num_objects=*/8);
  QueryService service(&m.db);

  // A request the service deterministically rejects (its deadline has
  // passed): every refresh of this subscription fails, so it stays dirty
  // and its sequence never advances — no delivered gap.
  core::QueryRequest broken = ThresholdRequest();
  broken.deadline = std::chrono::steady_clock::now() - std::chrono::seconds(1);
  size_t broken_count = 0;
  auto bad = service.Subscribe(
      std::move(broken), WindowPolicy{.slide = 0},
      [&](const SubscriptionDelta&) { ++broken_count; });
  ASSERT_TRUE(bad.ok());
  size_t good_count = 0;
  uint64_t good_last_seq = 0;
  auto good = service.Subscribe(ThresholdRequest(), WindowPolicy{.slide = 0},
                                [&](const SubscriptionDelta& d) {
                                  ++good_count;
                                  EXPECT_EQ(d.sequence, good_last_seq + 1);
                                  good_last_seq = d.sequence;
                                });
  ASSERT_TRUE(good.ok());

  // The failing member never poisons the round: the healthy subscription
  // delivers consecutive sequences while the broken one stays at 0.
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(
        service.AppendObservation(0, m.NextObs(Timestamp(1 + round))).ok());
    EXPECT_EQ(service.RefreshSubscriptions(), 1u);
  }
  EXPECT_EQ(broken_count, 0u);
  EXPECT_EQ(bad.value().last_sequence(), 0u);
  EXPECT_EQ(good_count, 3u);
  EXPECT_EQ(good.value().last_sequence(), 3u);
}

TEST(SubscriptionTest, PermanentRefreshFailureClosesTheSubscription) {
  const uint64_t seed = ustdb::testing::TestSeed(912);
  SCOPED_TRACE(ustdb::testing::SeedTrace(seed));
  Monitor m(seed, /*num_objects=*/8);
  QueryService service(&m.db);

  // The deadline-passed subscription of FailedRefreshKeepsSequencesGapFree:
  // no later round can answer it, so its first failed refresh closes it.
  core::QueryRequest broken = ThresholdRequest();
  broken.deadline = std::chrono::steady_clock::now() - std::chrono::seconds(1);
  size_t broken_count = 0;
  auto bad = service.Subscribe(
      std::move(broken), WindowPolicy{.slide = 0},
      [&](const SubscriptionDelta&) { ++broken_count; });
  ASSERT_TRUE(bad.ok());
  size_t good_count = 0;
  auto good = service.Subscribe(ThresholdRequest(), WindowPolicy{.slide = 0},
                                [&](const SubscriptionDelta&) {
                                  ++good_count;
                                });
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(bad.value().status().ok());
  EXPECT_EQ(service.num_subscriptions(), 2u);

  const uint64_t submitted = service.stats().submitted;
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(
        service.AppendObservation(0, m.NextObs(Timestamp(1 + round))).ok());
    EXPECT_EQ(service.RefreshSubscriptions(), 1u);
    if (round == 0) {
      EXPECT_EQ(bad.value().status().code(),
                util::StatusCode::kDeadlineExceeded);
      EXPECT_EQ(service.num_subscriptions(), 1u);
    }
  }
  // Round 1 submits both subscriptions, rounds 2 and 3 the live one only.
  EXPECT_EQ(service.stats().submitted - submitted, 4u);
  EXPECT_EQ(broken_count, 0u);
  EXPECT_EQ(bad.value().last_sequence(), 0u);
  EXPECT_FALSE(bad.value().cancelled());
  EXPECT_EQ(good_count, 3u);
  EXPECT_TRUE(good.value().status().ok());
}

TEST(SubscriptionTest, TransientRefreshFailureRetriesNextRound) {
  const uint64_t seed = ustdb::testing::TestSeed(913);
  SCOPED_TRACE(ustdb::testing::SeedTrace(seed));
  Monitor m(seed, /*num_objects=*/8);
  QueryService service(&m.db);
  std::vector<uint64_t> sequences;
  auto sub = service.Subscribe(
      ThresholdRequest(), WindowPolicy{.slide = 0},
      [&](const SubscriptionDelta& d) { sequences.push_back(d.sequence); });
  ASSERT_TRUE(sub.ok());

  {
    // One round whose dispatch fails (kUnavailable): nothing delivered,
    // the subscription stays registered, live and dirty.
    util::ScopedFaultInjection scope(
        util::FaultInjector::Parse("dispatch:fail", 1).ValueOrDie());
    EXPECT_EQ(service.RefreshSubscriptions(), 0u);
  }
  EXPECT_TRUE(sub.value().status().ok());
  EXPECT_EQ(service.num_subscriptions(), 1u);
  EXPECT_EQ(sub.value().last_sequence(), 0u);

  // The next round delivers without any new ingest or tick.
  EXPECT_EQ(service.RefreshSubscriptions(), 1u);
  EXPECT_EQ(sequences, std::vector<uint64_t>{1});
  EXPECT_TRUE(sub.value().status().ok());
}

TEST(SubscriptionTest, SlidingWindowsHitTheShiftExtensionPath) {
  const uint64_t seed = ustdb::testing::TestSeed(909);
  SCOPED_TRACE(ustdb::testing::SeedTrace(seed));
  Monitor m(seed);
  QueryService service(&m.db);

  core::QueryRequest request;
  request.predicate = core::PredicateKind::kExists;
  request.plan = core::PlanChoice::kQueryBased;
  request.window =
      core::QueryWindow::FromRanges(kStates, 4, 11, 2, 6).ValueOrDie();

  std::vector<SubscriptionDelta> deltas;
  auto sub = service.Subscribe(
      core::QueryRequest(request), WindowPolicy{.slide = 1},
      [&](const SubscriptionDelta& d) { deltas.push_back(d); });
  ASSERT_TRUE(sub.ok());
  ASSERT_EQ(service.RefreshSubscriptions(), 1u);

  for (Timestamp tick = 1; tick <= 3; ++tick) {
    SCOPED_TRACE("tick " + std::to_string(tick));
    service.TickWindows();
    ASSERT_EQ(service.RefreshSubscriptions(), 1u);
    // Reconstruction parity against a one-shot of the slid request.
    std::map<ObjectId, double> mirror;
    for (const SubscriptionDelta& d : deltas) Apply(&mirror, d);
    core::QueryRequest slid = request;
    slid.window = request.window.ShiftedBy(tick);
    const auto one_shot = OneShot(&service, std::move(slid));
    ASSERT_TRUE(one_shot.ok());
    ExpectMirrorsOneShot(mirror, one_shot.value());
  }
  // The slid refreshes extended memoized passes instead of rebuilding.
  EXPECT_GE(service.stats().cache.shift_extends, 3u);
}

TEST(SubscriptionTest, RefreshRoundCoalescesThroughOneBurst) {
  const uint64_t seed = ustdb::testing::TestSeed(910);
  SCOPED_TRACE(ustdb::testing::SeedTrace(seed));
  Monitor m(seed, /*num_objects=*/24);
  QueryService service(&m.db);

  constexpr size_t kSubs = 6;
  size_t delivered = 0;
  for (size_t i = 0; i < kSubs; ++i) {
    ASSERT_TRUE(service
                    .Subscribe(ThresholdRequest(0.05 + 0.02 * i),
                               WindowPolicy{.slide = 0},
                               [&](const SubscriptionDelta&) { ++delivered; })
                    .ok());
  }
  ASSERT_EQ(service.RefreshSubscriptions(), kSubs);
  EXPECT_EQ(delivered, kSubs);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.subscription_refreshes, 1u);
  EXPECT_EQ(stats.subscription_deltas, kSubs);
  // One burst, same window: the whole round coalesced into shared
  // RunBatch dispatches instead of six solo runs.
  EXPECT_GE(stats.coalesced_batches, 1u);
  EXPECT_GE(stats.coalesced_requests, kSubs);
  EXPECT_EQ(stats.solo_dispatches, 0u);
}

class SubscriptionShardParityTest
    : public ::testing::TestWithParam<uint32_t> {};

/// Randomized soak at every shard count: appends, ticks, and refreshes
/// interleave; after every refresh each subscription's reconstructed
/// answer set must be bit-identical to a one-shot Submit() of its current
/// request, and sequences stay consecutive.
TEST_P(SubscriptionShardParityTest, RefreshMatchesOneShot) {
  const uint64_t seed = ustdb::testing::TestSeed(660);
  SCOPED_TRACE(ustdb::testing::SeedTrace(seed));
  SCOPED_TRACE("shards=" + std::to_string(GetParam()));
  ShardedSpec spec;
  spec.seed = seed;
  spec.num_objects = 72;
  ShardedPair pair = MakeShardedPair(spec, GetParam());

  ServiceOptions options;
  options.executor.num_threads = 2;
  QueryService service(&pair.sharded, options);

  struct Standing {
    core::QueryRequest base;  // window at subscription time
    Subscription handle;
    std::map<ObjectId, double> mirror;
    uint64_t last_seq = 0;
    Timestamp slid = 0;
  };
  auto standing = std::make_shared<std::vector<Standing>>();
  standing->reserve(3);

  auto subscribe = [&](core::QueryRequest request, Timestamp slide) {
    const size_t index = standing->size();
    standing->push_back({});
    (*standing)[index].base = request;
    // The callback holds `standing` weakly: each Standing owns its
    // Subscription, whose state owns this callback, so a strong capture
    // would be a reference cycle that outlives the test.
    auto sub = service.Subscribe(
        std::move(request), WindowPolicy{.slide = slide},
        [weak = std::weak_ptr(standing), index](const SubscriptionDelta& d) {
          const auto list = weak.lock();
          if (list == nullptr) return;
          Standing& s = (*list)[index];
          EXPECT_EQ(d.sequence, s.last_seq + 1) << "sequence gap";
          s.last_seq = d.sequence;
          Apply(&s.mirror, d);
        });
    ASSERT_TRUE(sub.ok()) << sub.status();
    (*standing)[index].handle = sub.value();
  };

  core::QueryRequest threshold;
  threshold.predicate = core::PredicateKind::kThresholdExists;
  threshold.tau = 0.15;
  threshold.window =
      core::QueryWindow::FromRanges(spec.num_states, 4, 12, 1, 5)
          .ValueOrDie();
  subscribe(std::move(threshold), /*slide=*/1);

  core::QueryRequest exists;
  exists.predicate = core::PredicateKind::kExists;
  exists.window =
      core::QueryWindow::FromRanges(spec.num_states, 8, 16, 2, 6)
          .ValueOrDie();
  subscribe(std::move(exists), /*slide=*/0);

  core::QueryRequest topk;
  topk.predicate = core::PredicateKind::kTopKExists;
  topk.k = 10;
  topk.window =
      core::QueryWindow::FromRanges(spec.num_states, 2, 9, 1, 4)
          .ValueOrDie();
  subscribe(std::move(topk), /*slide=*/1);

  util::Rng rng(seed ^ 0x5B5);
  std::vector<Timestamp> next_time(spec.num_objects, 1);
  for (int round = 0; round < 15; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    // 1-3 appends.
    const int appends = 1 + static_cast<int>(rng.NextBounded(3));
    for (int i = 0; i < appends; ++i) {
      const ObjectId id =
          static_cast<ObjectId>(rng.NextBounded(spec.num_objects));
      core::Observation obs{
          next_time[id],
          RandomDistribution(spec.num_states, spec.num_states, &rng)};
      next_time[id] += 1 + rng.NextBounded(3);
      ASSERT_TRUE(service.AppendObservation(id, std::move(obs)).ok());
    }
    if (rng.NextBounded(3) == 0) {
      service.TickWindows();
      for (Standing& s : *standing) ++s.slid;  // slide=0 subs ignore it
    }
    ASSERT_EQ(service.RefreshSubscriptions(), standing->size());

    for (size_t i = 0; i < standing->size(); ++i) {
      SCOPED_TRACE("subscription " + std::to_string(i));
      Standing& s = (*standing)[i];
      core::QueryRequest current = s.base;
      const Timestamp slide =
          i == 1 ? 0 : s.slid;  // the exists sub is pinned
      if (slide > 0) current.window = s.base.window.ShiftedBy(slide);
      const auto one_shot = OneShot(&service, std::move(current));
      ASSERT_TRUE(one_shot.ok()) << one_shot.status();
      ExpectMirrorsOneShot(s.mirror, one_shot.value());
      // Unfiltered standing queries span every shard, so the delta's
      // epoch is the global data version at refresh time.
      EXPECT_EQ(s.last_seq, static_cast<uint64_t>(round) + 1);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, SubscriptionShardParityTest,
                         ::testing::Values(1u, 2u, 4u));

}  // namespace
}  // namespace service
}  // namespace ustdb
