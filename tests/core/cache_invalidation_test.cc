// Incremental cache invalidation precision: an append invalidates exactly
// the cached entries derived from the mutated object's chain (and its
// cluster's bound stores) — untouched chains keep their hit rate, the
// cache is never flushed wholesale, stale-epoch entries are never served
// (post-append answers are bit-identical to a cold executor's), and
// QueryResult::epoch names the data version an answer reflects.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/database.h"
#include "core/engine_cache.h"
#include "core/executor.h"
#include "core/query_request.h"
#include "core/query_window.h"
#include "sparse/prob_vector.h"
#include "testing/random_models.h"
#include "testing/test_seed.h"
#include "util/rng.h"

namespace ustdb {
namespace core {
namespace {

using ::ustdb::testing::RandomChain;
using ::ustdb::testing::RandomDistribution;

constexpr uint32_t kStates = 30;
constexpr uint32_t kObjectsPerChain = 8;

struct Fixture {
  Database db;
  ChainId chain_a = 0;
  ChainId chain_b = 0;
  std::vector<ObjectId> objects_a;
  std::vector<ObjectId> objects_b;
};

/// Two independently drawn chains (distinct clusters with near-certainty;
/// asserted) with kObjectsPerChain single-observation objects each.
Fixture MakeFixture(uint64_t seed) {
  Fixture f;
  util::Rng rng(seed);
  f.chain_a = f.db.AddChain(RandomChain(kStates, 3, &rng));
  f.chain_b = f.db.AddChain(RandomChain(kStates, 3, &rng));
  EXPECT_NE(f.db.cluster_of(f.chain_a), f.db.cluster_of(f.chain_b));
  for (uint32_t i = 0; i < kObjectsPerChain; ++i) {
    f.objects_a.push_back(
        f.db.AddObjectAt(f.chain_a, RandomDistribution(kStates, 3, &rng))
            .ValueOrDie());
    f.objects_b.push_back(
        f.db.AddObjectAt(f.chain_b, RandomDistribution(kStates, 3, &rng))
            .ValueOrDie());
  }
  return f;
}

QueryRequest ExistsRequest() {
  QueryRequest request;
  request.predicate = PredicateKind::kExists;
  request.plan = PlanChoice::kQueryBased;
  request.window =
      QueryWindow::FromRanges(kStates, 5, 14, 2, 6).ValueOrDie();
  return request;
}

TEST(CacheInvalidationTest, AppendInvalidatesOnlyTheMutatedChain) {
  const uint64_t seed = ustdb::testing::TestSeed(811);
  SCOPED_TRACE(ustdb::testing::SeedTrace(seed));
  Fixture f = MakeFixture(seed);
  QueryExecutor exec(&f.db, {.num_threads = 1});

  // Cold run builds one backward pass per chain; warm run serves both.
  auto cold = exec.Run(ExistsRequest());
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_EQ(cold.value().stats.cache_misses, 2u);
  auto warm = exec.Run(ExistsRequest());
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm.value().stats.cache_hits, 2u);
  EXPECT_EQ(warm.value().stats.cache_invalidations, 0u);

  util::Rng rng(seed ^ 0xCA);
  ASSERT_TRUE(f.db.AppendObservation(
                      f.objects_a[0],
                      {/*time=*/1, RandomDistribution(kStates, kStates, &rng)})
                  .ok());

  // Chain A's entry is stale (dropped: one invalidation, rebuilt as a
  // miss); chain B's entry is served untouched.
  auto after = exec.Run(ExistsRequest());
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after.value().stats.cache_invalidations, 1u);
  EXPECT_EQ(after.value().stats.cache_misses, 1u);
  EXPECT_EQ(after.value().stats.cache_hits, 1u);

  // Precision: a run touching only the untouched chain keeps a pure hit
  // rate — no invalidation, no miss.
  QueryRequest only_b = ExistsRequest();
  only_b.object_filter = f.objects_b;
  auto b_run = exec.Run(only_b);
  ASSERT_TRUE(b_run.ok());
  EXPECT_EQ(b_run.value().stats.cache_hits, 1u);
  EXPECT_EQ(b_run.value().stats.cache_misses, 0u);
  EXPECT_EQ(b_run.value().stats.cache_invalidations, 0u);
}

TEST(CacheInvalidationTest, StaleEntriesAreNeverServed) {
  const uint64_t seed = ustdb::testing::TestSeed(812);
  SCOPED_TRACE(ustdb::testing::SeedTrace(seed));
  Fixture f = MakeFixture(seed);
  QueryExecutor warm_exec(&f.db, {.num_threads = 1});

  // Warm the cache, mutate, query again through the SAME executor: the
  // answer must be bit-identical to a cold executor that never cached the
  // pre-append pass.
  ASSERT_TRUE(warm_exec.Run(ExistsRequest()).ok());
  util::Rng rng(seed ^ 0x5E);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        f.db.AppendObservation(
                f.objects_a[i],
                {Timestamp(1 + i), RandomDistribution(kStates, kStates, &rng)})
            .ok());
  }
  auto warm = warm_exec.Run(ExistsRequest());
  ASSERT_TRUE(warm.ok()) << warm.status();

  QueryExecutor cold_exec(&f.db, {.num_threads = 1});
  auto cold = cold_exec.Run(ExistsRequest());
  ASSERT_TRUE(cold.ok());
  ASSERT_EQ(warm.value().probabilities.size(),
            cold.value().probabilities.size());
  for (size_t i = 0; i < cold.value().probabilities.size(); ++i) {
    EXPECT_EQ(warm.value().probabilities[i].id,
              cold.value().probabilities[i].id);
    EXPECT_EQ(warm.value().probabilities[i].probability,
              cold.value().probabilities[i].probability)
        << "stale cached pass served at entry " << i;
  }
  EXPECT_EQ(warm.value().stats.objects_multi_observation, 3u);
}

TEST(CacheInvalidationTest, ClusterBoundStoresInvalidatePerCluster) {
  const uint64_t seed = ustdb::testing::TestSeed(813);
  SCOPED_TRACE(ustdb::testing::SeedTrace(seed));
  Fixture f = MakeFixture(seed);
  QueryExecutor exec(&f.db, {.num_threads = 1});

  QueryRequest request;
  request.predicate = PredicateKind::kThresholdExists;
  request.tau = 0.3;
  request.plan = PlanChoice::kBoundsThenRefine;
  request.window =
      QueryWindow::FromRanges(kStates, 5, 14, 2, 6).ValueOrDie();

  ASSERT_TRUE(exec.Run(request).ok());
  const EngineCacheStats warm_before = exec.cache_stats();
  ASSERT_TRUE(exec.Run(request).ok());
  const EngineCacheStats warm_after = exec.cache_stats();
  // Warm threshold run: envelopes + bound passes all hit, nothing stale.
  EXPECT_GT(warm_after.bound_hits, warm_before.bound_hits);
  EXPECT_EQ(warm_after.bound_misses, warm_before.bound_misses);
  EXPECT_EQ(warm_after.invalidations, warm_before.invalidations);

  util::Rng rng(seed ^ 0xB0);
  ASSERT_TRUE(f.db.AppendObservation(
                      f.objects_a[0],
                      {/*time=*/1, RandomDistribution(kStates, kStates, &rng)})
                  .ok());

  // Cluster A's envelope + bound pass (and chain A's refine pass) go
  // stale; cluster B's bound entries still hit.
  const EngineCacheStats before = exec.cache_stats();
  auto after_run = exec.Run(request);
  ASSERT_TRUE(after_run.ok()) << after_run.status();
  const EngineCacheStats after = exec.cache_stats();
  EXPECT_GT(after.invalidations, before.invalidations);
  EXPECT_GT(after.bound_hits, before.bound_hits);

  // Correctness after the partial invalidation: bit-identical to a cold
  // executor on the mutated database.
  QueryExecutor cold_exec(&f.db, {.num_threads = 1});
  auto cold = cold_exec.Run(request);
  ASSERT_TRUE(cold.ok());
  ASSERT_EQ(after_run.value().probabilities.size(),
            cold.value().probabilities.size());
  for (size_t i = 0; i < cold.value().probabilities.size(); ++i) {
    EXPECT_EQ(after_run.value().probabilities[i].id,
              cold.value().probabilities[i].id);
    EXPECT_EQ(after_run.value().probabilities[i].probability,
              cold.value().probabilities[i].probability);
  }
}

TEST(CacheInvalidationTest, ResultEpochNamesTheDataVersion) {
  const uint64_t seed = ustdb::testing::TestSeed(814);
  SCOPED_TRACE(ustdb::testing::SeedTrace(seed));
  Fixture f = MakeFixture(seed);
  QueryExecutor exec(&f.db, {.num_threads = 1});

  auto frozen = exec.Run(ExistsRequest());
  ASSERT_TRUE(frozen.ok());
  EXPECT_EQ(frozen.value().epoch, 0u);

  util::Rng rng(seed ^ 0xE9);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        f.db.AppendObservation(
                f.objects_b[i],
                {Timestamp(1 + i), RandomDistribution(kStates, kStates, &rng)})
            .ok());
  }
  auto mutated = exec.Run(ExistsRequest());
  ASSERT_TRUE(mutated.ok());
  EXPECT_EQ(mutated.value().epoch, 4u);
  EXPECT_EQ(mutated.value().epoch, f.db.data_version());
}

/// Direct EngineCache check of the lazy-drop contract: a lookup at a newer
/// epoch destroys exactly the stale entry and reports invalidation + miss;
/// other keys and stores are untouched.
TEST(CacheInvalidationTest, EngineCacheDropsExactlyTheStaleKey) {
  const uint64_t seed = ustdb::testing::TestSeed(815);
  SCOPED_TRACE(ustdb::testing::SeedTrace(seed));
  util::Rng rng(seed);
  markov::MarkovChain chain_a = RandomChain(kStates, 3, &rng);
  markov::MarkovChain chain_b = RandomChain(kStates, 3, &rng);
  const QueryWindow window =
      QueryWindow::FromRanges(kStates, 5, 14, 2, 6).ValueOrDie();

  EngineCache cache(8);
  const auto admit = [&](const markov::MarkovChain* chain,
                         DataVersion epoch) {
    return cache.Put(chain, window,
                     std::make_unique<QueryBasedEngine>(chain, window),
                     epoch);
  };
  EXPECT_EQ(cache.Lookup(&chain_a, window, /*epoch=*/0), nullptr);
  ASSERT_NE(admit(&chain_a, 0), nullptr);
  EXPECT_EQ(cache.Lookup(&chain_b, window, /*epoch=*/0), nullptr);
  ASSERT_NE(admit(&chain_b, 0), nullptr);
  ASSERT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().misses, 2u);

  // Same epoch: a hit.
  EXPECT_NE(cache.Lookup(&chain_a, window, 0), nullptr);
  EXPECT_EQ(cache.stats().hits, 1u);

  // Chain A advanced: the lookup drops its entry (invalidation + miss)
  // and it is rebuilt at the new epoch; chain B's entry is untouched.
  EXPECT_EQ(cache.Lookup(&chain_a, window, /*epoch=*/3), nullptr);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.size(), 1u);
  ASSERT_NE(admit(&chain_a, 3), nullptr);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NE(cache.Lookup(&chain_b, window, 0), nullptr);
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().invalidations, 1u);

  // The rebuilt entry serves at its build epoch.
  EXPECT_NE(cache.Lookup(&chain_a, window, 3), nullptr);
  EXPECT_EQ(cache.stats().hits, 3u);
}

}  // namespace
}  // namespace core
}  // namespace ustdb
