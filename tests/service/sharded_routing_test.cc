// Deterministic scheduling of the sharded router, staged with Pause /
// Resume so every interleaving is pinned before a dispatcher moves:
// single-shard requests ride their shard's lane alone (no scatter),
// per-shard lanes drain FIFO with interactive-before-bulk precedence,
// scattered requests admit all-or-nothing under both backpressure
// policies, and the scatter counters in ServiceStats account routed
// fan-out exactly.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "core/query_request.h"
#include "core/query_window.h"
#include "service/query_service.h"
#include "testing/sharded_fixture.h"
#include "testing/test_seed.h"

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

}  // namespace
}  // namespace service
}  // namespace ustdb
