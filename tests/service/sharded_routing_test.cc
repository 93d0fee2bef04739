// Deterministic scheduling of the sharded router, staged with Pause /
// Resume so every interleaving is pinned before a dispatcher moves:
// single-shard requests ride their shard's lane alone (no scatter),
// per-shard lanes drain FIFO with interactive-before-bulk precedence,
// scattered requests admit all-or-nothing under both backpressure
// policies, and the scatter counters in ServiceStats account routed
// fan-out exactly. Merges are shared: a burst whose last subs land on
// one shard is merged by every dispatcher, also across Pause and
// Shutdown.

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/executor.h"
#include "core/query_request.h"
#include "core/query_window.h"
#include "obs/metrics.h"
#include "service/query_service.h"
#include "testing/sharded_fixture.h"
#include "testing/test_seed.h"
#include "util/fault_injector.h"

namespace ustdb {
namespace service {
namespace {

using ::ustdb::testing::MakeShardedPair;
using ::ustdb::testing::ShardedPair;
using ::ustdb::testing::ShardedSpec;

constexpr auto kGetTimeout = std::chrono::milliseconds(30'000);

ShardedSpec RoutingSpec(uint64_t seed) {
  ShardedSpec spec;
  spec.seed = seed;
  spec.num_families = 2;
  spec.chains_per_family = 1;
  spec.num_objects = 40;
  return spec;
}

core::QueryRequest ExistsRequest(const ShardedSpec& spec) {
  core::QueryRequest request;
  request.predicate = core::PredicateKind::kExists;
  request.window =
      core::QueryWindow::FromRanges(spec.num_states, 4, 10, 2, 6)
          .ValueOrDie();
  return request;
}

/// Global ids of the objects of one chain — all resident on one shard
/// (chains never split), so a request filtered to them is single-shard.
std::vector<ObjectId> ObjectsOfChain(const ShardedPair& pair, ChainId chain) {
  std::vector<ObjectId> ids;
  for (ObjectId g = 0; g < pair.sharded.num_objects(); ++g) {
    if (pair.unsharded.object(g).chain == chain) ids.push_back(g);
  }
  return ids;
}

core::QueryRequest ChainRequest(const ShardedPair& pair,
                                const ShardedSpec& spec, ChainId chain) {
  core::QueryRequest request = ExistsRequest(spec);
  request.object_filter = ObjectsOfChain(pair, chain);
  return request;
}

/// The fixture's two independent chains land on different shards (each
/// founds its own cluster; founding picks the least loaded shard).
class ShardedRoutingTest : public ::testing::Test {
 protected:
  ShardedRoutingTest()
      : spec_(RoutingSpec(ustdb::testing::TestSeed(77))),
        pair_(MakeShardedPair(spec_, 2)) {
    shard_of_chain0_ = pair_.sharded.shard_of_chain(0);
    shard_of_chain1_ = pair_.sharded.shard_of_chain(1);
  }

  ServiceOptions Solo() const {
    ServiceOptions options;
    options.max_batch = 1;  // one request per dispatch: FIFO observable
    options.executor.num_threads = 2;
    return options;
  }

  ShardedSpec spec_;
  ShardedPair pair_;
  uint32_t shard_of_chain0_;
  uint32_t shard_of_chain1_;
};

TEST_F(ShardedRoutingTest, FixtureSpreadsChainsAcrossShards) {
  EXPECT_NE(shard_of_chain0_, shard_of_chain1_);
}

/// A single-shard request never scatters: one queued entry, one solo
/// dispatch, scatter counters untouched.
TEST_F(ShardedRoutingTest, SingleShardRequestRidesOneLane) {
  QueryService service(&pair_.sharded, Solo());
  service.Pause();
  QueryTicket ticket =
      service.Submit(ChainRequest(pair_, spec_, /*chain=*/0));
  EXPECT_EQ(service.queue_depth(), 1u);  // one sub on one lane
  service.Resume();
  ASSERT_TRUE(ticket.WaitFor(kGetTimeout));
  ASSERT_TRUE(ticket.Get().ok());

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.scatter_requests, 0u);
  EXPECT_EQ(stats.scatter_subtasks, 0u);
  EXPECT_EQ(stats.solo_dispatches, 1u);
}

/// An unfiltered request over a two-shard database scatters exactly two
/// subtasks — visible in the queue while paused and in the counters after.
TEST_F(ShardedRoutingTest, SpanningRequestScattersOncePerShard) {
  QueryService service(&pair_.sharded, Solo());
  service.Pause();
  QueryTicket ticket = service.Submit(ExistsRequest(spec_));
  EXPECT_EQ(service.queue_depth(), 2u);  // one sub per shard lane
  service.Resume();
  ASSERT_TRUE(ticket.WaitFor(kGetTimeout));
  ASSERT_TRUE(ticket.Get().ok());

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.scatter_requests, 1u);
  EXPECT_EQ(stats.scatter_subtasks, 2u);
  EXPECT_EQ(stats.queue_peak, 2u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.completed, 1u);
}

/// Two same-window requests staged on one shard's lane drain FIFO: the
/// first pays that shard's cold EngineCache miss, the second hits the
/// engine the first admitted. (max_batch = 1 keeps the dispatches solo.)
TEST_F(ShardedRoutingTest, ShardLaneDrainsFifo) {
  QueryService service(&pair_.sharded, Solo());
  service.Pause();
  QueryTicket first = service.Submit(ChainRequest(pair_, spec_, 0));
  QueryTicket second = service.Submit(ChainRequest(pair_, spec_, 0));
  service.Resume();

  const auto first_result = first.Get();
  const auto second_result = second.Get();
  ASSERT_TRUE(first_result.ok());
  ASSERT_TRUE(second_result.ok());
  EXPECT_EQ(first_result.value().stats.cache_misses, 1u);
  EXPECT_EQ(first_result.value().stats.cache_hits, 0u);
  EXPECT_EQ(second_result.value().stats.cache_hits, 1u);
  EXPECT_EQ(second_result.value().stats.cache_misses, 0u);
}

/// Lane precedence holds per shard: a bulk request staged first still
/// dispatches after the interactive one on the same shard (the
/// interactive run pays the cold miss, bulk hits), while the other
/// shard's lane is untouched by either.
TEST_F(ShardedRoutingTest, InteractiveBeatsBulkWithinShard) {
  QueryService service(&pair_.sharded, Solo());
  service.Pause();
  QueryTicket bulk =
      service.Submit(ChainRequest(pair_, spec_, 0), Priority::kBulk);
  QueryTicket interactive =
      service.Submit(ChainRequest(pair_, spec_, 0), Priority::kInteractive);
  service.Resume();

  const auto interactive_result = interactive.Get();
  const auto bulk_result = bulk.Get();
  ASSERT_TRUE(interactive_result.ok());
  ASSERT_TRUE(bulk_result.ok());
  EXPECT_EQ(interactive_result.value().stats.cache_misses, 1u);
  EXPECT_EQ(bulk_result.value().stats.cache_misses, 0u);
  EXPECT_EQ(bulk_result.value().stats.cache_hits, 1u);
}

/// kReject + fan-out is all-or-nothing: with one shard's lane full, a
/// spanning request rejects outright and leaves the other shard's lane
/// exactly as it was — no orphaned subtask.
TEST_F(ShardedRoutingTest, RejectedScatterLeavesNoPartialFanOut) {
  ServiceOptions options = Solo();
  options.queue_capacity = 1;
  options.backpressure = BackpressurePolicy::kReject;
  QueryService service(&pair_.sharded, options);
  service.Pause();

  // Fill chain 0's shard lane to capacity.
  QueryTicket occupant = service.Submit(ChainRequest(pair_, spec_, 0));
  EXPECT_EQ(service.queue_depth(), 1u);

  QueryTicket spanning = service.Submit(ExistsRequest(spec_));
  const auto rejected = spanning.Get();
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), util::StatusCode::kUnavailable);
  EXPECT_EQ(service.queue_depth(), 1u)
      << "a rejected scatter must not leave subtasks on any lane";

  // The other shard's lane stayed admissible.
  QueryTicket other = service.Submit(ChainRequest(pair_, spec_, 1));
  EXPECT_EQ(service.queue_depth(), 2u);

  service.Resume();
  ASSERT_TRUE(occupant.Get().ok());
  ASSERT_TRUE(other.Get().ok());
  EXPECT_EQ(service.stats().rejected, 1u);
}

/// kBlock + fan-out: a spanning submission with one full target lane
/// parks the producer until the dispatcher frees EVERY target, then
/// enqueues the whole fan-out at once and completes normally.
TEST_F(ShardedRoutingTest, BlockedScatterAdmitsWholeFanOut) {
  ServiceOptions options = Solo();
  options.queue_capacity = 1;
  options.backpressure = BackpressurePolicy::kBlock;
  QueryService service(&pair_.sharded, options);
  service.Pause();

  QueryTicket occupant = service.Submit(ChainRequest(pair_, spec_, 0));
  EXPECT_EQ(service.queue_depth(), 1u);

  QueryTicket spanning;
  std::thread producer([&service, &spanning, this] {
    spanning = service.Submit(ExistsRequest(spec_));
  });
  // The producer must still be parked: nothing new can appear on any
  // lane while the occupant holds its slot and the service is paused.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(service.queue_depth(), 1u);

  service.Resume();  // drains the occupant, freeing every target lane
  producer.join();
  ASSERT_TRUE(occupant.Get().ok());
  ASSERT_TRUE(spanning.WaitFor(kGetTimeout));
  ASSERT_TRUE(spanning.Get().ok());

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.scatter_requests, 1u);
  EXPECT_EQ(stats.scatter_subtasks, 2u);
}

/// Pause holds every shard's dispatcher, not just one: staged work on
/// both lanes stays unresolved until Resume releases them together.
TEST_F(ShardedRoutingTest, PauseHoldsAllShardLanes) {
  QueryService service(&pair_.sharded, Solo());
  service.Pause();
  QueryTicket on_zero = service.Submit(ChainRequest(pair_, spec_, 0));
  QueryTicket on_one = service.Submit(ChainRequest(pair_, spec_, 1));
  EXPECT_FALSE(on_zero.WaitFor(std::chrono::milliseconds(50)));
  EXPECT_FALSE(on_one.WaitFor(std::chrono::milliseconds(50)));
  EXPECT_EQ(service.queue_depth(), 2u);

  service.Resume();
  ASSERT_TRUE(on_zero.WaitFor(kGetTimeout));
  ASSERT_TRUE(on_one.WaitFor(kGetTimeout));
  ASSERT_TRUE(on_zero.Get().ok());
  ASSERT_TRUE(on_one.Get().ok());
}

/// Cancelling a scattered parent cancels every queued subtask: the ticket
/// resolves Cancelled and the lanes drain without executing anything.
TEST_F(ShardedRoutingTest, CancelReachesEveryShardSubtask) {
  QueryService service(&pair_.sharded, Solo());
  service.Pause();
  QueryTicket ticket = service.Submit(ExistsRequest(spec_));
  EXPECT_EQ(service.queue_depth(), 2u);
  ticket.Cancel();
  service.Resume();

  const auto result = ticket.Get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kCancelled);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_EQ(stats.solo_dispatches + stats.coalesced_batches, 0u)
      << "a cancelled scatter must not reach any shard executor";
}

/// A four-shard service under `shard3:stall:50ms;merge:stall:20ms`: shard
/// 3 lands the last sub of every request in a burst, and each merge is
/// slow enough to see which dispatcher runs it. Before merges were
/// shared, shard 3's dispatcher ran all of them one after another.
class ShardedMergeTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kShards = 4;
  static constexpr size_t kBurst = 16;
  static constexpr auto kShardStall = std::chrono::milliseconds(50);
  static constexpr auto kMergeStall = std::chrono::milliseconds(20);

  /// Eight independent chains, so the rebalance spreads their clusters
  /// over all four shards.
  static ShardedSpec MergeSpec() {
    ShardedSpec spec = RoutingSpec(ustdb::testing::TestSeed(78));
    spec.num_families = 8;
    spec.num_objects = 160;
    return spec;
  }

  ShardedMergeTest() : spec_(MergeSpec()), pair_(MakeShardedPair(spec_, 4)) {}

  void SetUp() override {
    for (uint32_t s = 0; s < kShards; ++s) {
      ASSERT_GT(pair_.sharded.shard(s).num_objects(), 0u) << "shard " << s;
    }
  }

  ServiceOptions Options() {
    ServiceOptions options;
    options.executor.num_threads = kShards;
    options.obs.registry = &registry_;
    return options;
  }

  static std::unique_ptr<util::FaultInjector> Stalls() {
    return util::FaultInjector::Parse(
               "shard3:stall:" + std::to_string(kShardStall.count()) +
                   "ms;merge:stall:" + std::to_string(kMergeStall.count()) +
                   "ms",
               1)
        .ValueOrDie();
  }

  std::vector<core::QueryRequest> Burst() const {
    return std::vector<core::QueryRequest>(kBurst, ExistsRequest(spec_));
  }

  /// Returns once every shard has run its sub of the burst, one coalesced
  /// dispatch each; the merges then still wait on their stall.
  static void AwaitSubs(const QueryService& service) {
    while (service.stats().coalesced_batches < kShards) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  obs::MetricsRegistry registry_;
  ShardedSpec spec_;
  ShardedPair pair_;
};

/// Shard 3's dispatcher finds 16 merges waiting and wakes the others, who
/// merge beside it: every answer equals the unsharded RunBatch bit for
/// bit, requests resolve on at least two shards' dispatchers, and the
/// burst ends within 8 merge stalls of shard 3's stall (16 in series took
/// at least 50 + 16 x 20 ms).
TEST_F(ShardedMergeTest, MergesSpreadAcrossDispatchers) {
  const std::vector<core::QueryRequest> burst = Burst();
  const auto want =
      core::QueryExecutor(&pair_.unsharded, {.num_threads = 1}).RunBatch(burst);
  QueryService service(&pair_.sharded, Options());
  util::ScopedFaultInjection scope(Stalls());

  const auto start = std::chrono::steady_clock::now();
  std::vector<QueryTicket> tickets = service.SubmitBurst(burst);
  for (QueryTicket& ticket : tickets) ASSERT_TRUE(ticket.WaitFor(kGetTimeout));
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            kShardStall + 8 * kMergeStall);

  for (size_t i = 0; i < kBurst; ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    const auto got = tickets[i].Get();
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_TRUE(want[i].ok());
    const auto& expected = want[i].value().probabilities;
    ASSERT_EQ(got.value().probabilities.size(), expected.size());
    for (size_t j = 0; j < expected.size(); ++j) {
      EXPECT_EQ(got.value().probabilities[j].id, expected[j].id);
      EXPECT_EQ(got.value().probabilities[j].probability,
                expected[j].probability);
    }
  }

  // The latency histogram's shard label names the merging dispatcher.
  uint32_t merging_shards = 0;
  for (const obs::MetricFamily& family : registry_.Snapshot().families) {
    if (family.name != "ustdb_service_request_latency_seconds") continue;
    for (const obs::MetricPoint& point : family.points) {
      if (point.histogram.count > 0) ++merging_shards;
    }
  }
  EXPECT_GE(merging_shards, 2u);
}

/// Shutdown while the burst's merges wait on their stall: the dispatchers
/// merge before they exit, so every ticket has resolved, once, when
/// Shutdown returns.
TEST_F(ShardedMergeTest, ShutdownWhileMergesWaitResolvesEveryTicketOnce) {
  QueryService service(&pair_.sharded, Options());
  util::ScopedFaultInjection scope(Stalls());
  std::vector<QueryTicket> tickets = service.SubmitBurst(Burst());
  AwaitSubs(service);
  service.Shutdown();

  for (QueryTicket& ticket : tickets) {
    ASSERT_TRUE(ticket.resolved());
    EXPECT_TRUE(ticket.Get().ok());
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, kBurst);
  EXPECT_EQ(stats.completed, kBurst);
  EXPECT_EQ(stats.failed + stats.cancelled + stats.deadline_expired +
                stats.rejected,
            0u);
}

/// Pause holds the lanes, not the merges: once the subs ran, a paused
/// service still resolves the tickets they belong to.
TEST_F(ShardedMergeTest, PauseAfterTheSubsRanStillResolves) {
  QueryService service(&pair_.sharded, Options());
  util::ScopedFaultInjection scope(Stalls());
  std::vector<QueryTicket> tickets = service.SubmitBurst(Burst());
  AwaitSubs(service);
  service.Pause();
  EXPECT_FALSE(tickets.back().resolved() && tickets.front().resolved())
      << "the merges finished before the pause; nothing was exercised";

  for (QueryTicket& ticket : tickets) {
    ASSERT_TRUE(ticket.WaitFor(kGetTimeout));
    EXPECT_TRUE(ticket.Get().ok());
  }
  service.Resume();
}

}  // namespace
}  // namespace service
}  // namespace ustdb
