#include "core/engine_cache.h"

#include <gtest/gtest.h>

#include "testing/random_models.h"
#include "util/rng.h"
#include "workload/query_gen.h"

namespace ustdb {
namespace core {
namespace {

using ::ustdb::testing::PaperChainV;
using ::ustdb::testing::PaperChainVI;
using ::ustdb::testing::RandomChain;
using ::ustdb::testing::RandomDistribution;

QueryWindow WindowV() {
  return QueryWindow::FromRanges(3, 0, 1, 2, 3).ValueOrDie();
}

/// The executor's read-then-admit sequence, minus shift extension: a
/// Lookup(), and on a miss a freshly built pass admitted with Put().
const QueryBasedEngine* LookupOrAdmit(EngineCache* cache,
                                      const markov::MarkovChain* chain,
                                      const QueryWindow& window) {
  if (const QueryBasedEngine* hit = cache->Lookup(chain, window)) return hit;
  return cache->Put(chain, window,
                    std::make_unique<QueryBasedEngine>(chain, window));
}

TEST(EngineCacheTest, HitOnRepeatedWindow) {
  markov::MarkovChain chain = PaperChainV();
  EngineCache cache(4);
  const QueryBasedEngine* a = LookupOrAdmit(&cache, &chain, WindowV());
  const QueryBasedEngine* b = LookupOrAdmit(&cache, &chain, WindowV());
  EXPECT_EQ(a, b);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_NEAR(a->ExistsProbability(sparse::ProbVector::Delta(3, 1)), 0.864,
              1e-12);
}

TEST(EngineCacheTest, EquivalentWindowsShareEntries) {
  // Same content, built differently.
  markov::MarkovChain chain = PaperChainV();
  EngineCache cache(4);
  auto region = sparse::IndexSet::FromIndices(3, {1, 0}).ValueOrDie();
  auto via_create = QueryWindow::Create(region, {3, 2}).ValueOrDie();
  const QueryBasedEngine* a = LookupOrAdmit(&cache, &chain, WindowV());
  const QueryBasedEngine* b = LookupOrAdmit(&cache, &chain, via_create);
  EXPECT_EQ(a, b);
}

TEST(EngineCacheTest, DistinguishesChainsAndWindows) {
  markov::MarkovChain chain_a = PaperChainV();
  markov::MarkovChain chain_b = PaperChainVI();
  EngineCache cache(8);
  const QueryBasedEngine* a = LookupOrAdmit(&cache, &chain_a, WindowV());
  const QueryBasedEngine* b = LookupOrAdmit(&cache, &chain_b, WindowV());
  EXPECT_NE(a, b);
  auto other_window = QueryWindow::FromRanges(3, 0, 1, 1, 2).ValueOrDie();
  const QueryBasedEngine* c = LookupOrAdmit(&cache, &chain_a, other_window);
  EXPECT_NE(a, c);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.stats().misses, 3u);
}

TEST(EngineCacheTest, LruEviction) {
  markov::MarkovChain chain = PaperChainV();
  EngineCache cache(2);
  auto w1 = QueryWindow::FromRanges(3, 0, 0, 1, 2).ValueOrDie();
  auto w2 = QueryWindow::FromRanges(3, 1, 1, 1, 2).ValueOrDie();
  auto w3 = QueryWindow::FromRanges(3, 2, 2, 1, 2).ValueOrDie();

  (void)LookupOrAdmit(&cache, &chain, w1);
  (void)LookupOrAdmit(&cache, &chain, w2);
  (void)LookupOrAdmit(&cache, &chain, w1);  // w1 now most recent
  (void)LookupOrAdmit(&cache, &chain, w3);  // evicts w2
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);

  // w1 still cached (hit), w2 rebuilt (miss).
  const uint64_t hits_before = cache.stats().hits;
  (void)LookupOrAdmit(&cache, &chain, w1);
  EXPECT_EQ(cache.stats().hits, hits_before + 1);
  const uint64_t misses_before = cache.stats().misses;
  (void)LookupOrAdmit(&cache, &chain, w2);
  EXPECT_EQ(cache.stats().misses, misses_before + 1);
}

TEST(EngineCacheTest, CapacityZeroClampsToOne) {
  markov::MarkovChain chain = PaperChainV();
  EngineCache cache(0);
  EXPECT_EQ(cache.capacity(), 1u);
  (void)LookupOrAdmit(&cache, &chain, WindowV());
  EXPECT_EQ(cache.size(), 1u);
}

TEST(EngineCacheTest, ClearDropsEverything) {
  markov::MarkovChain chain = PaperChainV();
  EngineCache cache(4);
  (void)LookupOrAdmit(&cache, &chain, WindowV());
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  (void)LookupOrAdmit(&cache, &chain, WindowV());
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(EngineCacheTest, LookupNeverBuildsAndPutAdmits) {
  markov::MarkovChain chain = PaperChainV();
  EngineCache cache(4);
  EXPECT_EQ(cache.Lookup(&chain, WindowV()), nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.size(), 0u);  // a miss does not insert

  auto built = std::make_unique<QueryBasedEngine>(&chain, WindowV());
  const QueryBasedEngine* raw = built.get();
  EXPECT_EQ(cache.Put(&chain, WindowV(), std::move(built)), raw);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().misses, 1u);  // Put counts neither hit nor miss

  EXPECT_EQ(cache.Lookup(&chain, WindowV()), raw);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(EngineCacheTest, PutKeepsExistingEntry) {
  markov::MarkovChain chain = PaperChainV();
  EngineCache cache(4);
  const QueryBasedEngine* first = LookupOrAdmit(&cache, &chain, WindowV());
  auto duplicate = std::make_unique<QueryBasedEngine>(&chain, WindowV());
  EXPECT_EQ(cache.Put(&chain, WindowV(), std::move(duplicate)), first);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(EngineCacheTest, PutEvictsLruButLookupNeverDoes) {
  markov::MarkovChain chain = PaperChainV();
  EngineCache cache(1);
  auto w1 = QueryWindow::FromRanges(3, 0, 0, 1, 2).ValueOrDie();
  auto w2 = QueryWindow::FromRanges(3, 1, 1, 1, 2).ValueOrDie();
  const QueryBasedEngine* a = LookupOrAdmit(&cache, &chain, w1);
  // Lookups of absent keys must not disturb resident entries — the batch
  // executor borrows pointers across many lookups.
  EXPECT_EQ(cache.Lookup(&chain, w2), nullptr);
  EXPECT_EQ(cache.Lookup(&chain, w1), a);
  EXPECT_EQ(cache.stats().evictions, 0u);

  (void)cache.Put(&chain, w2,
                  std::make_unique<QueryBasedEngine>(&chain, w2));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Lookup(&chain, w1), nullptr);  // w1 was the LRU entry
}

TEST(EngineCacheTest, CachedResultsMatchFreshEngines) {
  util::Rng rng(601);
  markov::MarkovChain chain = RandomChain(30, 3, &rng);
  workload::QueryGenConfig config;
  config.num_states = 30;
  config.region_extent = 5;
  config.window_length = 4;
  config.t_min = 1;
  config.t_max = 8;
  const auto workload =
      workload::RepeatingWorkload(config, 6, 40).ValueOrDie();

  EngineCache cache(3);
  for (const QueryWindow& w : workload) {
    const QueryBasedEngine* cached = LookupOrAdmit(&cache, &chain, w);
    QueryBasedEngine fresh(&chain, w);
    const sparse::ProbVector initial = RandomDistribution(30, 3, &rng);
    EXPECT_NEAR(cached->ExistsProbability(initial),
                fresh.ExistsProbability(initial), 1e-12);
  }
  // The skewed workload over 6 windows with capacity 3 must produce both
  // hits and evictions.
  EXPECT_GT(cache.stats().hits, 0u);
  EXPECT_GT(cache.stats().evictions, 0u);
}

TEST(EngineCacheTest, EnvelopeRoundTripAndMemberCountKeying) {
  markov::MarkovChain a = PaperChainV();
  markov::MarkovChain b = PaperChainVI();
  const ChainId leader = 7;  // keys are stable ChainIds, not pointers
  EngineCache cache(4);
  EXPECT_EQ(cache.LookupEnvelope(leader, 2), nullptr);
  EXPECT_EQ(cache.stats().bound_misses, 1u);

  auto env = markov::IntervalMarkovChain::FromChains({&a, &b}).ValueOrDie();
  const markov::IntervalMarkovChain* cached =
      cache.PutEnvelope(leader, 2, std::move(env));
  ASSERT_NE(cached, nullptr);
  EXPECT_EQ(cache.LookupEnvelope(leader, 2), cached);
  EXPECT_EQ(cache.stats().bound_hits, 1u);
  // A grown cluster (3 members) reads as a different key: no stale hit.
  EXPECT_EQ(cache.LookupEnvelope(leader, 3), nullptr);
  EXPECT_EQ(cache.envelope_size(), 1u);
}

TEST(EngineCacheTest, BoundsKeyedByWindowContents) {
  markov::MarkovChain a = PaperChainV();
  const ChainId leader = 0;
  EngineCache cache(4);
  auto env = markov::IntervalMarkovChain::FromChains({&a}).ValueOrDie();
  const QueryWindow w = WindowV();
  EXPECT_EQ(cache.LookupBounds(leader, 1, w), nullptr);
  const std::vector<markov::ProbBound>* bounds = cache.PutBounds(
      leader, 1, w, env.BoundExists(w.region(), w.t_begin(), w.t_end()));
  ASSERT_NE(bounds, nullptr);
  EXPECT_EQ(cache.LookupBounds(leader, 1, w), bounds);

  // Equal content built differently shares the entry; a different window
  // misses.
  auto region = sparse::IndexSet::FromIndices(3, {1, 0}).ValueOrDie();
  auto same = QueryWindow::Create(region, {3, 2}).ValueOrDie();
  EXPECT_EQ(cache.LookupBounds(leader, 1, same), bounds);
  auto other = QueryWindow::FromRanges(3, 0, 1, 1, 2).ValueOrDie();
  EXPECT_EQ(cache.LookupBounds(leader, 1, other), nullptr);
}

TEST(EngineCacheTest, ClusterStoresEvictIndependentlyOfEngines) {
  // Filling the envelope store beyond capacity must evict envelopes —
  // and only envelopes: the QB engine store is untouched, so borrowed
  // backward passes can never dangle because of bound-pass admissions.
  markov::MarkovChain chain = PaperChainV();
  EngineCache cache(2);
  const QueryBasedEngine* engine = LookupOrAdmit(&cache, &chain, WindowV());
  util::Rng rng(5);
  for (ChainId leader = 0; leader < 3; ++leader) {
    markov::MarkovChain member = RandomChain(4, 2, &rng);
    auto env = markov::IntervalMarkovChain::FromChains({&member})
                   .ValueOrDie();
    cache.PutEnvelope(leader, 1, std::move(env));
  }
  EXPECT_EQ(cache.envelope_size(), 2u);  // capacity 2: one eviction
  EXPECT_EQ(cache.stats().bound_evictions, 1u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.size(), 1u);
  // The engine entry is still served (a hit, not a rebuild).
  EXPECT_EQ(cache.Lookup(&chain, WindowV()), engine);
  // The oldest envelope is gone, the two youngest remain.
  EXPECT_EQ(cache.LookupEnvelope(0, 1), nullptr);
  EXPECT_NE(cache.LookupEnvelope(1, 1), nullptr);
  EXPECT_NE(cache.LookupEnvelope(2, 1), nullptr);
}

TEST(EngineCacheTest, ClearDropsClusterStores) {
  markov::MarkovChain a = PaperChainV();
  EngineCache cache(4);
  auto env = markov::IntervalMarkovChain::FromChains({&a}).ValueOrDie();
  const QueryWindow w = WindowV();
  cache.PutEnvelope(0, 1, std::move(env));
  cache.PutBounds(0, 1, w, {});
  cache.Clear();
  EXPECT_EQ(cache.envelope_size(), 0u);
  EXPECT_EQ(cache.bounds_size(), 0u);
  EXPECT_EQ(cache.LookupEnvelope(0, 1), nullptr);
  EXPECT_EQ(cache.LookupBounds(0, 1, w), nullptr);
}

}  // namespace
}  // namespace core
}  // namespace ustdb
