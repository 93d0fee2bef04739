// ShardHealthTracker state-machine tests (healthy -> degraded ->
// quarantined on consecutive transient failures, wholesale reset on
// success, single-probe admission with doubling capped backoff, the
// dispatcher watchdog), RetryBackoff properties (exponential growth,
// cap, jitter bounds, determinism, 1ms floor), and the service's use of
// the probe slot: a refused submission releases only a slot it took, and
// a partial answer keeps every answered object's payload.

#include "service/resilience.h"

#include <gtest/gtest.h>

#include <chrono>
#include <initializer_list>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/executor.h"
#include "service/query_service.h"
#include "testing/sharded_fixture.h"
#include "util/fault_injector.h"

namespace ustdb {
namespace service {
namespace {

using Clock = ShardHealthTracker::Clock;
using ::ustdb::testing::MakeShardedPair;
using ::ustdb::testing::ShardedPair;
using ::ustdb::testing::ShardedSpec;
using std::chrono::milliseconds;

HealthPolicy TestPolicy() {
  HealthPolicy policy;
  policy.degraded_after = 3;
  policy.quarantine_after = 5;
  policy.probe_backoff = milliseconds(100);
  policy.probe_backoff_multiplier = 2.0;
  policy.max_probe_backoff = milliseconds(400);
  policy.watchdog_stall = milliseconds(50);
  return policy;
}

TEST(ShardHealthTracker, FailureThresholdsDriveTheStateMachine) {
  ShardHealthTracker tracker(TestPolicy());
  const Clock::time_point now = Clock::now();
  EXPECT_EQ(tracker.health(), ShardHealth::kHealthy);

  EXPECT_EQ(tracker.RecordFailure(now), ShardHealth::kHealthy);
  EXPECT_EQ(tracker.RecordFailure(now), ShardHealth::kHealthy);
  EXPECT_EQ(tracker.RecordFailure(now), ShardHealth::kDegraded);
  EXPECT_EQ(tracker.RecordFailure(now), ShardHealth::kDegraded);
  EXPECT_EQ(tracker.RecordFailure(now), ShardHealth::kQuarantined);
  EXPECT_EQ(tracker.consecutive_failures(), 5u);
}

TEST(ShardHealthTracker, SuccessResetsWholesale) {
  ShardHealthTracker tracker(TestPolicy());
  const Clock::time_point now = Clock::now();
  for (int i = 0; i < 5; ++i) tracker.RecordFailure(now);
  EXPECT_EQ(tracker.health(), ShardHealth::kQuarantined);

  EXPECT_TRUE(tracker.RecordSuccess());  // reports the transition
  EXPECT_EQ(tracker.health(), ShardHealth::kHealthy);
  EXPECT_EQ(tracker.consecutive_failures(), 0u);
  EXPECT_FALSE(tracker.RecordSuccess());  // already healthy

  // The failure count restarts from zero, not from the old streak.
  EXPECT_EQ(tracker.RecordFailure(now), ShardHealth::kHealthy);
}

TEST(ShardHealthTracker, QuarantineAdmitsOneProbeAfterBackoff) {
  ShardHealthTracker tracker(TestPolicy());
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < 5; ++i) tracker.RecordFailure(t0);

  bool is_probe = false;
  // Before the backoff elapses nothing is admitted.
  EXPECT_FALSE(tracker.AdmitToShard(t0 + milliseconds(10), &is_probe));
  // Past the due time exactly one caller wins the probe slot.
  EXPECT_TRUE(tracker.AdmitToShard(t0 + milliseconds(150), &is_probe));
  EXPECT_TRUE(is_probe);
  EXPECT_FALSE(tracker.AdmitToShard(t0 + milliseconds(150), &is_probe));

  // An aborted probe frees the slot for the next caller.
  tracker.ProbeAborted();
  EXPECT_TRUE(tracker.AdmitToShard(t0 + milliseconds(150), &is_probe));
  EXPECT_TRUE(is_probe);
}

TEST(ShardHealthTracker, HealthyShardsAdmitWithoutProbing) {
  ShardHealthTracker tracker(TestPolicy());
  bool is_probe = true;
  EXPECT_TRUE(tracker.AdmitToShard(Clock::now(), &is_probe));
  EXPECT_FALSE(is_probe);
}

TEST(ShardHealthTracker, FailedProbeDoublesBackoffUpToTheCap) {
  ShardHealthTracker tracker(TestPolicy());
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < 5; ++i) tracker.RecordFailure(t0);  // backoff 100ms

  bool is_probe = false;
  // Probe at +150ms fails: backoff doubles to 200ms from the failure time.
  EXPECT_TRUE(tracker.AdmitToShard(t0 + milliseconds(150), &is_probe));
  const Clock::time_point t1 = t0 + milliseconds(150);
  tracker.RecordFailure(t1);
  EXPECT_FALSE(tracker.AdmitToShard(t1 + milliseconds(150), &is_probe));
  EXPECT_TRUE(tracker.AdmitToShard(t1 + milliseconds(250), &is_probe));

  // Next failure doubles to 400ms = the cap; a further one stays capped.
  const Clock::time_point t2 = t1 + milliseconds(250);
  tracker.RecordFailure(t2);
  EXPECT_FALSE(tracker.AdmitToShard(t2 + milliseconds(350), &is_probe));
  EXPECT_TRUE(tracker.AdmitToShard(t2 + milliseconds(450), &is_probe));
  const Clock::time_point t3 = t2 + milliseconds(450);
  tracker.RecordFailure(t3);
  EXPECT_FALSE(tracker.AdmitToShard(t3 + milliseconds(350), &is_probe));
  EXPECT_TRUE(tracker.AdmitToShard(t3 + milliseconds(450), &is_probe));
}

TEST(ShardHealthTracker, WatchdogQuarantinesAStalledDispatch) {
  ShardHealthTracker tracker(TestPolicy());
  const Clock::time_point t0 = Clock::now();

  // Idle: never trips.
  EXPECT_FALSE(tracker.CheckWatchdog(t0 + milliseconds(1000)));

  tracker.MarkDispatchStart(t0);
  EXPECT_FALSE(tracker.CheckWatchdog(t0 + milliseconds(10)));
  EXPECT_TRUE(tracker.CheckWatchdog(t0 + milliseconds(60)));
  EXPECT_EQ(tracker.health(), ShardHealth::kQuarantined);
  // One trip per stall episode.
  EXPECT_FALSE(tracker.CheckWatchdog(t0 + milliseconds(120)));

  // The stalled dispatch eventually finishing recovers the shard and
  // re-arms the watchdog.
  tracker.MarkDispatchEnd();
  EXPECT_TRUE(tracker.RecordSuccess());
  EXPECT_EQ(tracker.health(), ShardHealth::kHealthy);
  tracker.MarkDispatchStart(t0 + milliseconds(200));
  EXPECT_TRUE(tracker.CheckWatchdog(t0 + milliseconds(300)));
}

TEST(ShardHealthTracker, WatchdogDisabledByZeroStall) {
  HealthPolicy policy = TestPolicy();
  policy.watchdog_stall = milliseconds(0);
  ShardHealthTracker tracker(policy);
  const Clock::time_point t0 = Clock::now();
  tracker.MarkDispatchStart(t0);
  EXPECT_FALSE(tracker.CheckWatchdog(t0 + std::chrono::hours(1)));
  EXPECT_EQ(tracker.health(), ShardHealth::kHealthy);
}

TEST(ShardHealthName, NamesEveryState) {
  EXPECT_EQ(ShardHealthName(ShardHealth::kHealthy), "healthy");
  EXPECT_EQ(ShardHealthName(ShardHealth::kDegraded), "degraded");
  EXPECT_EQ(ShardHealthName(ShardHealth::kQuarantined), "quarantined");
}

TEST(RetryBackoff, GrowsExponentiallyWithinJitterBounds) {
  core::RetryPolicy policy;
  policy.initial_backoff = milliseconds(10);
  policy.max_backoff = milliseconds(1000);
  policy.multiplier = 2.0;
  policy.jitter = 0.2;
  for (uint32_t attempt = 0; attempt < 5; ++attempt) {
    const double nominal = 10.0 * (1 << attempt);
    const auto backoff = RetryBackoff(policy, attempt, /*seed=*/7);
    EXPECT_GE(backoff.count(), static_cast<int64_t>(nominal * 0.8) - 1)
        << "attempt " << attempt;
    EXPECT_LE(backoff.count(), static_cast<int64_t>(nominal * 1.2) + 1)
        << "attempt " << attempt;
  }
}

TEST(RetryBackoff, CapsAtMaxBackoff) {
  core::RetryPolicy policy;
  policy.initial_backoff = milliseconds(10);
  policy.max_backoff = milliseconds(100);
  policy.multiplier = 2.0;
  policy.jitter = 0.0;
  EXPECT_EQ(RetryBackoff(policy, 10, 7), milliseconds(100));
}

TEST(RetryBackoff, DeterministicPerSeedAndAttempt) {
  core::RetryPolicy policy;
  policy.jitter = 0.5;
  EXPECT_EQ(RetryBackoff(policy, 2, 11), RetryBackoff(policy, 2, 11));
  // Different seeds decorrelate (with overwhelming probability for this
  // fixed pair; the values are deterministic, so this cannot flake).
  EXPECT_NE(RetryBackoff(policy, 6, 11).count(),
            RetryBackoff(policy, 6, 12).count());
}

TEST(RetryBackoff, NeverBelowOneMillisecond) {
  core::RetryPolicy policy;
  policy.initial_backoff = milliseconds(0);
  policy.jitter = 1.0;
  EXPECT_GE(RetryBackoff(policy, 0, 3).count(), 1);
}

/// A two-shard service whose health policy quarantines a shard on its
/// first transient failure and makes its probe due 1 ms later.
class QuarantinedShardTest : public ::testing::Test {
 protected:
  QuarantinedShardTest() : pair_(MakeShardedPair(ShardedSpec{}, 2)) {
    IndexShards();
  }

  /// Records one object of each shard of pair_ for On().
  void IndexShards() {
    for (ObjectId id = 0; id < pair_.sharded.num_objects(); ++id) {
      object_on_[pair_.sharded.shard_of_object(id)] = id;
    }
  }

  static ServiceOptions Options() {
    ServiceOptions options;
    options.executor.num_threads = 2;
    options.health = HealthPolicy{.degraded_after = 1,
                                  .quarantine_after = 1,
                                  .probe_backoff = milliseconds(1),
                                  .max_probe_backoff = milliseconds(1),
                                  .watchdog_stall = milliseconds(0)};
    return options;
  }

  /// An exists request over every object.
  static core::QueryRequest Unfiltered() {
    core::QueryRequest request;
    request.predicate = core::PredicateKind::kExists;
    request.window =
        core::QueryWindow::FromRanges(ShardedSpec{}.num_states, 4, 16, 1, 5)
            .ValueOrDie();
    return request;
  }
  /// The same request filtered to one object of each shard in `shards`.
  core::QueryRequest On(std::initializer_list<uint32_t> shards) const {
    core::QueryRequest request = Unfiltered();
    request.object_filter.emplace();
    for (uint32_t s : shards) request.object_filter->push_back(object_on_[s]);
    return request;
  }

  /// Fails one request on shard `s` under a scoped `shard<s>:fail` rule,
  /// which quarantines it.
  void Quarantine(QueryService* service, uint32_t s) const {
    auto parsed =
        util::FaultInjector::Parse("shard" + std::to_string(s) + ":fail", 1);
    ASSERT_TRUE(parsed.ok()) << parsed.status().message();
    util::ScopedFaultInjection scope(std::move(parsed).ValueOrDie());
    EXPECT_EQ(service->Submit(On({s})).Get().status().code(),
              util::StatusCode::kUnavailable);
    ASSERT_EQ(service->shard_health(s), ShardHealth::kQuarantined);
  }

  /// Quarantines shard 1, pauses the dispatchers and waits out the probe
  /// backoff, then submits request A on shard 1: the health gate admits
  /// it as the shard's one probe and it stays queued.
  QueryTicket QueueProbe(QueryService* service) const {
    Quarantine(service, 1);
    service->Pause();
    std::this_thread::sleep_for(milliseconds(5));
    QueryTicket probe = service->Submit(On({1}));
    EXPECT_FALSE(probe.resolved());
    EXPECT_EQ(service->stats().probes, 1u);
    return probe;
  }

  ShardedPair pair_;
  ObjectId object_on_[2] = {0, 0};
};

/// A submission refused before the health gate (here: its deadline has
/// passed) never took the probe slot, so it must not free it: the next
/// shard-1 request finds the slot held by A and resolves kUnavailable.
TEST_F(QuarantinedShardTest, PreGateRefusalKeepsAnotherRequestsProbeSlot) {
  QueryService service(&pair_.sharded, Options());
  QueryTicket probe = QueueProbe(&service);

  core::QueryRequest expired = On({1});
  expired.deadline = Clock::now() - std::chrono::seconds(1);
  EXPECT_EQ(service.Submit(std::move(expired)).Get().status().code(),
            util::StatusCode::kDeadlineExceeded);

  QueryTicket next = service.Submit(On({1}));
  ASSERT_TRUE(next.resolved());
  EXPECT_EQ(next.Get().status().code(), util::StatusCode::kUnavailable);
  EXPECT_EQ(service.stats().probes, 1u);

  service.Resume();
  EXPECT_TRUE(probe.Get().ok());
  EXPECT_EQ(service.shard_health(1), ShardHealth::kHealthy);
}

/// A submission refused after the health gate (here: shard 0's full lane
/// rejects a request whose shard-1 sub the gate dropped) must release
/// only a probe slot it took — none — so a repeat cannot probe shard 1
/// while A still holds the slot.
TEST_F(QuarantinedShardTest, PostGateRefusalKeepsAnotherRequestsProbeSlot) {
  ServiceOptions options = Options();
  options.queue_capacity = 1;
  QueryService service(&pair_.sharded, options);
  QueryTicket probe = QueueProbe(&service);
  QueryTicket filler = service.Submit(On({0}));  // shard 0's lane is full

  for (int attempt = 0; attempt < 2; ++attempt) {
    SCOPED_TRACE("attempt " + std::to_string(attempt));
    std::vector<core::QueryRequest> burst;
    burst.push_back(On({0, 1}));
    QueryTicket both = service.SubmitBurst(std::move(burst)).front();
    ASSERT_TRUE(both.resolved());
    EXPECT_EQ(both.Get().status().code(), util::StatusCode::kUnavailable);
    EXPECT_EQ(service.stats().probes, 1u);
  }

  service.Resume();
  EXPECT_TRUE(probe.Get().ok());
  EXPECT_TRUE(filler.Get().ok());
}

/// A partial k-times answer (one shard quarantined) keeps the full
/// distribution of every object the healthy shard answered, equal to a
/// QueryExecutor's over the unsharded twin, and names the quarantined
/// shard's objects missing. The second input has migrated a cluster, so
/// the shards' id tables were rebuilt.
TEST_F(QuarantinedShardTest, PartialKTimesKeepsEveryAnsweredDistribution) {
  for (const bool migrated : {false, true}) {
    SCOPED_TRACE(migrated ? "after a rebalance migration" : "fixture");
    if (migrated) {
      pair_ = MakeShardedPair(ShardedSpec{.num_families = 5,
                                          .chains_per_family = 1,
                                          .num_objects = 150},
                              2);
      ASSERT_GT(pair_.sharded.rebalances(), 0u);
      IndexShards();
    }
    ServiceOptions options = Options();
    options.health.probe_backoff = milliseconds(60'000);  // no probe here
    options.health.max_probe_backoff = milliseconds(60'000);
    QueryService service(&pair_.sharded, options);
    // Quarantine the shard that does not own object 0, so the answered
    // objects start at the first result position.
    const uint32_t healthy = pair_.sharded.shard_of_object(0);
    Quarantine(&service, 1 - healthy);

    core::QueryRequest request = Unfiltered();
    request.predicate = core::PredicateKind::kKTimes;
    const auto result = service.Submit(core::QueryRequest(request)).Get();
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_TRUE(result.value().partial);
    const auto want =
        core::QueryExecutor(&pair_.unsharded, {.num_threads = 1}).Run(request);
    ASSERT_TRUE(want.ok());

    const std::vector<core::ObjectKTimes>& got = result.value().distributions;
    ASSERT_FALSE(got.empty());
    EXPECT_EQ(got.size() + result.value().missing_objects.size(),
              pair_.sharded.num_objects());
    for (const core::ObjectKTimes& entry : got) {
      EXPECT_EQ(pair_.sharded.shard_of_object(entry.id), healthy);
      EXPECT_EQ(entry.distribution,
                want.value().distributions[entry.id].distribution)
          << "object " << entry.id;
    }
    const std::span<const ObjectId> quarantined =
        pair_.sharded.global_objects(1 - healthy);
    EXPECT_EQ(result.value().missing_objects,
              std::vector<ObjectId>(quarantined.begin(), quarantined.end()));
  }
}

}  // namespace
}  // namespace service
}  // namespace ustdb
