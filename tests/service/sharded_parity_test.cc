// Sharding parity: randomized mixed workloads (exists / threshold / top-k
// / k-times / for-all, solo and burst, filtered and unfiltered, contiguous
// and gap windows) answered by a QueryService at 1/2/4/8 shards must be
// BIT-identical to a QueryExecutor over the twin unsharded Database (Run
// for solo submissions, RunBatch for bursts) — payloads, plan decisions
// (chains_object_based /
// chains_query_based mirror the per-chain choices; the threshold bound
// decision is made globally by the router), and PruneStats, which must
// also satisfy the Section V-C accounting invariants. The whole sweep runs
// under the default kernel ISA and again forced to baseline, proving the
// router layer is ISA-independent.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "core/executor.h"
#include "core/query_request.h"
#include "core/query_window.h"
#include "kernels/isa.h"
#include "service/query_service.h"
#include "testing/sharded_fixture.h"
#include "testing/test_seed.h"
#include "util/rng.h"

namespace ustdb {
namespace service {
namespace {

using ::ustdb::testing::MakeShardedPair;
using ::ustdb::testing::ShardedPair;
using ::ustdb::testing::ShardedSpec;

constexpr auto kGetTimeout = std::chrono::milliseconds(60'000);

/// One random request over `spec`'s domain: any predicate, a contiguous
/// or gap time set, optionally an object filter (unsorted, possibly with
/// duplicates — the executor accepts both), and for thresholds a random
/// plan directive including forced kBoundsThenRefine.
core::QueryRequest RandomRequest(const ShardedSpec& spec, util::Rng* rng) {
  core::QueryRequest request;
  switch (rng->NextBounded(5)) {
    case 0:
      request.predicate = core::PredicateKind::kExists;
      break;
    case 1:
      request.predicate = core::PredicateKind::kForAll;
      break;
    case 2:
      request.predicate = core::PredicateKind::kThresholdExists;
      request.tau = 0.05 + 0.5 * rng->NextDouble();
      if (rng->NextBounded(3) == 0) {
        request.plan = core::PlanChoice::kBoundsThenRefine;
      }
      break;
    case 3:
      request.predicate = core::PredicateKind::kTopKExists;
      request.k = 1 + rng->NextBounded(12);
      break;
    default:
      request.predicate = core::PredicateKind::kKTimes;
      break;
  }

  const uint32_t n = spec.num_states;
  const uint32_t s_lo = static_cast<uint32_t>(rng->NextBounded(n - 4));
  const uint32_t s_hi = s_lo + 1 + static_cast<uint32_t>(rng->NextBounded(6));
  const Timestamp t_lo = 1 + static_cast<Timestamp>(rng->NextBounded(4));
  const Timestamp t_hi =
      t_lo + 1 + static_cast<Timestamp>(rng->NextBounded(5));
  if (rng->NextBounded(4) == 0) {
    // Gap time set: drop an interior timestamp, defeating the bound-plan
    // eligibility gate on both pipelines.
    std::vector<Timestamp> times;
    for (Timestamp t = t_lo; t <= t_hi + 1; ++t) {
      if (t != t_lo + 1) times.push_back(t);
    }
    request.window =
        core::QueryWindow::Create(
            sparse::IndexSet::FromRange(n, s_lo, std::min(s_hi, n - 1))
                .ValueOrDie(),
            std::move(times))
            .ValueOrDie();
  } else {
    request.window = core::QueryWindow::FromRanges(
                         n, s_lo, std::min(s_hi, n - 1), t_lo, t_hi)
                         .ValueOrDie();
  }

  if (rng->NextBounded(3) == 0) {
    std::vector<ObjectId> filter;
    const uint32_t count =
        1 + static_cast<uint32_t>(rng->NextBounded(spec.num_objects / 2));
    for (uint32_t i = 0; i < count; ++i) {
      filter.push_back(
          static_cast<ObjectId>(rng->NextBounded(spec.num_objects)));
    }
    request.object_filter = std::move(filter);
  }
  return request;
}

void ExpectPruneInvariants(const core::PruneStats& prune) {
  EXPECT_EQ(prune.clusters_pruned + prune.clusters_refined,
            prune.clusters_bounded);
  EXPECT_LE(prune.clusters_bounded, prune.clusters_total);
}

/// Bit-exact comparison of two results: payloads, plan counters, and
/// prune accounting. Thread counts and cache traffic are intentionally
/// excluded — they describe the engine topology (pool slices, per-shard
/// caches), not the answer.
void ExpectSameResult(const core::QueryResult& sharded,
                      const core::QueryResult& reference) {
  ASSERT_EQ(sharded.probabilities.size(), reference.probabilities.size());
  for (size_t i = 0; i < reference.probabilities.size(); ++i) {
    EXPECT_EQ(sharded.probabilities[i].id, reference.probabilities[i].id);
    EXPECT_EQ(sharded.probabilities[i].probability,
              reference.probabilities[i].probability)
        << "probability drift at entry " << i;
  }
  ASSERT_EQ(sharded.distributions.size(), reference.distributions.size());
  for (size_t i = 0; i < reference.distributions.size(); ++i) {
    EXPECT_EQ(sharded.distributions[i].id, reference.distributions[i].id);
    EXPECT_EQ(sharded.distributions[i].distribution,
              reference.distributions[i].distribution)
        << "k-times distribution drift at entry " << i;
  }
  EXPECT_EQ(sharded.stats.chains_object_based,
            reference.stats.chains_object_based);
  EXPECT_EQ(sharded.stats.chains_query_based,
            reference.stats.chains_query_based);
  EXPECT_EQ(sharded.stats.objects_evaluated, reference.stats.objects_evaluated);
  EXPECT_EQ(sharded.stats.objects_multi_observation,
            reference.stats.objects_multi_observation);
  EXPECT_EQ(sharded.stats.prune.clusters_total,
            reference.stats.prune.clusters_total);
  EXPECT_EQ(sharded.stats.prune.clusters_bounded,
            reference.stats.prune.clusters_bounded);
  EXPECT_EQ(sharded.stats.prune.clusters_pruned,
            reference.stats.prune.clusters_pruned);
  EXPECT_EQ(sharded.stats.prune.clusters_refined,
            reference.stats.prune.clusters_refined);
  EXPECT_EQ(sharded.stats.prune.objects_decided_by_bounds,
            reference.stats.prune.objects_decided_by_bounds);
  EXPECT_EQ(sharded.stats.prune.objects_refined,
            reference.stats.prune.objects_refined);
  EXPECT_EQ(sharded.stats.prune.bound_fallbacks,
            reference.stats.prune.bound_fallbacks);
  ExpectPruneInvariants(sharded.stats.prune);
  ExpectPruneInvariants(reference.stats.prune);
}

util::Result<core::QueryResult> GetWithin(QueryTicket* ticket) {
  EXPECT_TRUE(ticket->WaitFor(kGetTimeout)) << "ticket never resolved";
  return ticket->Get();
}

/// Runs the sweep at one shard count: `rounds` random requests solo, then
/// the same stream again as one burst, against the service and the
/// executor.
void RunParitySweep(uint32_t num_shards, uint64_t seed, int rounds) {
  SCOPED_TRACE("shards=" + std::to_string(num_shards));
  ShardedSpec spec;
  spec.seed = seed;
  spec.num_families = 4;
  spec.chains_per_family = 2;
  spec.num_objects = 96;
  ShardedPair pair = MakeShardedPair(spec, num_shards);

  ServiceOptions options;
  options.executor.num_threads = 2;
  core::QueryExecutor twin(&pair.unsharded, {.num_threads = 2});
  QueryService sharded(&pair.sharded, options);
  ASSERT_EQ(sharded.num_shards(), num_shards);

  util::Rng rng(seed ^ 0x5AD5AD);
  std::vector<core::QueryRequest> stream;
  for (int round = 0; round < rounds; ++round) {
    stream.push_back(RandomRequest(spec, &rng));
  }

  for (int round = 0; round < rounds; ++round) {
    SCOPED_TRACE("solo round " + std::to_string(round));
    QueryTicket a = sharded.Submit(stream[round]);
    const auto ra = GetWithin(&a);
    const auto rb = twin.Run(stream[round]);
    ASSERT_EQ(ra.ok(), rb.ok()) << ra.status() << " vs " << rb.status();
    if (ra.ok()) ExpectSameResult(ra.value(), rb.value());
  }

  // Same stream as one burst and one RunBatch: coalesced per-shard
  // RunBatch dispatch must not change a single bit either.
  std::vector<QueryTicket> burst_a =
      sharded.SubmitBurst(std::vector<core::QueryRequest>(stream));
  std::vector<util::Result<core::QueryResult>> burst_b =
      twin.RunBatch(stream);
  for (int round = 0; round < rounds; ++round) {
    SCOPED_TRACE("burst round " + std::to_string(round));
    const auto ra = GetWithin(&burst_a[round]);
    const auto& rb = burst_b[round];
    ASSERT_EQ(ra.ok(), rb.ok()) << ra.status() << " vs " << rb.status();
    if (ra.ok()) ExpectSameResult(ra.value(), rb.value());
  }
}

class ShardedParityTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ShardedParityTest, MixedWorkloadBitIdentical) {
  const uint64_t seed = ustdb::testing::TestSeed(640);
  SCOPED_TRACE(ustdb::testing::SeedTrace(seed));
  RunParitySweep(GetParam(), seed, /*rounds=*/40);
}

TEST_P(ShardedParityTest, MixedWorkloadBitIdenticalBaselineIsa) {
  const uint64_t seed = ustdb::testing::TestSeed(641);
  SCOPED_TRACE(ustdb::testing::SeedTrace(seed));
  const kernels::Isa saved = kernels::ActiveIsa();
  ASSERT_TRUE(kernels::SetActiveIsa(kernels::Isa::kBaseline));
  RunParitySweep(GetParam(), seed, /*rounds=*/25);
  kernels::SetActiveIsa(saved);
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardedParityTest,
                         ::testing::Values(1u, 2u, 4u, 8u));

/// A sharded database that has REBALANCED must still answer bit-identically
/// — migrated objects keep their exact pdf bits and their global ids.
TEST(ShardedParityRebalanceTest, ParityHoldsAfterMigration) {
  const uint64_t seed = ustdb::testing::TestSeed(642);
  SCOPED_TRACE(ustdb::testing::SeedTrace(seed));
  ShardedSpec spec;
  spec.seed = seed;
  spec.num_families = 5;
  spec.chains_per_family = 1;
  spec.num_objects = 150;
  ShardedPair pair = MakeShardedPair(spec, 2);
  ASSERT_GT(pair.sharded.rebalances(), 0u)
      << "fixture never migrated; parity-after-rebalance not exercised";

  ServiceOptions options;
  options.executor.num_threads = 1;
  core::QueryExecutor twin(&pair.unsharded, {.num_threads = 1});
  QueryService sharded(&pair.sharded, options);
  util::Rng rng(seed ^ 0x4EB);
  for (int round = 0; round < 20; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const core::QueryRequest request = RandomRequest(spec, &rng);
    QueryTicket a = sharded.Submit(request);
    const auto ra = GetWithin(&a);
    const auto rb = twin.Run(request);
    ASSERT_EQ(ra.ok(), rb.ok()) << ra.status() << " vs " << rb.status();
    if (ra.ok()) ExpectSameResult(ra.value(), rb.value());
  }
}

/// Errors route identically: an out-of-range filter id resolves
/// kInvalidArgument from the service (which rejects at submission) and
/// from the executor — same status, same message.
TEST(ShardedParityErrorTest, InvalidFilterSameStatus) {
  ShardedSpec spec;
  ShardedPair pair = MakeShardedPair(spec, 4);
  core::QueryExecutor twin(&pair.unsharded);
  QueryService sharded(&pair.sharded);

  core::QueryRequest request;
  request.predicate = core::PredicateKind::kExists;
  request.window =
      core::QueryWindow::FromRanges(spec.num_states, 2, 8, 2, 5).ValueOrDie();
  request.object_filter = std::vector<ObjectId>{0, spec.num_objects + 7};

  QueryTicket a = sharded.Submit(core::QueryRequest(request));
  const auto ra = GetWithin(&a);
  const auto rb = twin.Run(request);
  ASSERT_FALSE(ra.ok());
  ASSERT_FALSE(rb.ok());
  EXPECT_EQ(ra.status().code(), rb.status().code());
  EXPECT_EQ(ra.status().message(), rb.status().message());
}

}  // namespace
}  // namespace service
}  // namespace ustdb
