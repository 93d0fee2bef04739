#include "core/executor.h"

#include <gtest/gtest.h>

#include <numeric>

#include "testing/random_models.h"
#include "util/rng.h"

namespace ustdb {
namespace core {
namespace {

using ::ustdb::testing::PaperChainV;
using ::ustdb::testing::PaperChainVI;
using ::ustdb::testing::RandomChain;
using ::ustdb::testing::RandomDistribution;

Database MakeDb(uint32_t num_chains, uint32_t num_objects, uint64_t seed,
                uint32_t num_states = 25) {
  util::Rng rng(seed);
  Database db;
  std::vector<ChainId> chains;
  for (uint32_t c = 0; c < num_chains; ++c) {
    chains.push_back(db.AddChain(RandomChain(num_states, 3, &rng)));
  }
  for (uint32_t i = 0; i < num_objects; ++i) {
    (void)db.AddObjectAt(chains[i % num_chains],
                         RandomDistribution(num_states, 3, &rng))
        .ValueOrDie();
  }
  return db;
}

QueryWindow Window(uint32_t num_states = 25) {
  return QueryWindow::FromRanges(num_states, 6, 12, 3, 8).ValueOrDie();
}

TEST(ExecutorTest, ExistsOnPaperExample) {
  Database db;
  const ChainId c = db.AddChain(PaperChainV());
  (void)db.AddObjectAt(c, sparse::ProbVector::Delta(3, 1)).ValueOrDie();
  QueryExecutor executor(&db);
  const auto result =
      executor
          .Run({.predicate = PredicateKind::kExists,
                .window = QueryWindow::FromRanges(3, 0, 1, 2, 3).ValueOrDie()})
          .ValueOrDie();
  ASSERT_EQ(result.probabilities.size(), 1u);
  EXPECT_NEAR(result.probabilities[0].probability, 0.864, 1e-12);
}

TEST(ExecutorTest, AllPredicatesAgreeBetweenPlans) {
  Database db = MakeDb(3, 30, 901);
  QueryExecutor executor(&db);
  const QueryWindow window = Window();

  for (PredicateKind predicate :
       {PredicateKind::kExists, PredicateKind::kForAll,
        PredicateKind::kThresholdExists, PredicateKind::kTopKExists}) {
    QueryRequest request;
    request.predicate = predicate;
    request.window = window;
    request.tau = 0.3;
    request.k = 10;

    request.plan = PlanChoice::kObjectBased;
    const auto ob = executor.Run(request).ValueOrDie();
    request.plan = PlanChoice::kQueryBased;
    const auto qb = executor.Run(request).ValueOrDie();

    ASSERT_EQ(ob.probabilities.size(), qb.probabilities.size())
        << "predicate " << static_cast<int>(predicate);
    for (size_t i = 0; i < ob.probabilities.size(); ++i) {
      EXPECT_EQ(ob.probabilities[i].id, qb.probabilities[i].id);
      EXPECT_NEAR(ob.probabilities[i].probability,
                  qb.probabilities[i].probability, 1e-10)
          << "predicate " << static_cast<int>(predicate) << " entry " << i;
    }
  }
}

TEST(ExecutorTest, AutoPlanMatchesPinnedQueryBasedPlan) {
  // Whatever plan kAuto picks per chain class, every predicate agrees with
  // the pinned query-based plan: probabilities within kernel rounding,
  // threshold and top-k selections by id, k-times distributions exactly
  // (PSTkQ ignores the plan directive).
  Database db = MakeDb(2, 25, 902);
  QueryExecutor executor(&db, {.num_threads = 1});
  const QueryWindow window = Window();
  for (PredicateKind predicate :
       {PredicateKind::kExists, PredicateKind::kForAll,
        PredicateKind::kThresholdExists, PredicateKind::kTopKExists,
        PredicateKind::kKTimes}) {
    QueryRequest request;
    request.predicate = predicate;
    request.window = window;
    request.tau = 0.3;
    request.k = 5;
    const auto automatic = executor.Run(request).ValueOrDie();
    request.plan = PlanChoice::kQueryBased;
    const auto pinned = executor.Run(request).ValueOrDie();

    ASSERT_EQ(automatic.probabilities.size(), pinned.probabilities.size())
        << "predicate " << static_cast<int>(predicate);
    for (size_t i = 0; i < pinned.probabilities.size(); ++i) {
      EXPECT_EQ(automatic.probabilities[i].id, pinned.probabilities[i].id);
      EXPECT_NEAR(automatic.probabilities[i].probability,
                  pinned.probabilities[i].probability, 1e-12);
    }
    ASSERT_EQ(automatic.distributions.size(), pinned.distributions.size());
    for (size_t i = 0; i < pinned.distributions.size(); ++i) {
      EXPECT_EQ(automatic.distributions[i].distribution,
                pinned.distributions[i].distribution);
    }
  }
}

TEST(ExecutorTest, PinnedPlanOverridesCostModel) {
  // 50 objects on one chain make QB the cost-based choice; a pinned OB
  // plan must still run object-based. One object makes OB the choice; a
  // pinned QB plan must still run query-based.
  const QueryWindow window = Window();
  Database dense_db = MakeDb(1, 50, 914);
  QueryExecutor dense_exec(&dense_db);
  const auto ob = dense_exec
                      .Run({.predicate = PredicateKind::kExists,
                            .window = window,
                            .plan = PlanChoice::kObjectBased})
                      .ValueOrDie();
  EXPECT_EQ(ob.stats.chains_object_based, 1u);
  EXPECT_EQ(ob.stats.chains_query_based, 0u);

  Database sparse_db = MakeDb(1, 1, 915);
  QueryExecutor sparse_exec(&sparse_db);
  const auto qb = sparse_exec
                      .Run({.predicate = PredicateKind::kExists,
                            .window = window,
                            .plan = PlanChoice::kQueryBased})
                      .ValueOrDie();
  EXPECT_EQ(qb.stats.chains_object_based, 0u);
  EXPECT_EQ(qb.stats.chains_query_based, 1u);
}

TEST(ExecutorTest, ParallelRunsAreBitIdenticalToSequential) {
  Database db = MakeDb(3, 40, 903);
  const QueryWindow window = Window();
  QueryExecutor sequential(&db, {.num_threads = 1});

  for (PredicateKind predicate :
       {PredicateKind::kExists, PredicateKind::kForAll,
        PredicateKind::kThresholdExists, PredicateKind::kTopKExists}) {
    QueryRequest request;
    request.predicate = predicate;
    request.window = window;
    request.tau = 0.3;
    request.k = 7;
    const auto want = sequential.Run(request).ValueOrDie();
    for (unsigned threads : {2u, 4u}) {
      QueryExecutor parallel(&db, {.num_threads = threads});
      const auto got = parallel.Run(request).ValueOrDie();
      ASSERT_EQ(got.probabilities.size(), want.probabilities.size());
      for (size_t i = 0; i < want.probabilities.size(); ++i) {
        EXPECT_EQ(got.probabilities[i].id, want.probabilities[i].id);
        EXPECT_DOUBLE_EQ(got.probabilities[i].probability,
                         want.probabilities[i].probability)
            << "predicate " << static_cast<int>(predicate) << " threads "
            << threads;
      }
    }
  }
}

TEST(ExecutorTest, ParallelKTimesMatchesSequential) {
  Database db = MakeDb(2, 20, 904, 12);
  QueryRequest request;
  request.predicate = PredicateKind::kKTimes;
  request.window = QueryWindow::FromRanges(12, 3, 6, 1, 4).ValueOrDie();
  QueryExecutor sequential(&db, {.num_threads = 1});
  QueryExecutor parallel(&db, {.num_threads = 4});
  const auto want = sequential.Run(request).ValueOrDie();
  const auto got = parallel.Run(request).ValueOrDie();
  ASSERT_EQ(got.distributions.size(), want.distributions.size());
  for (size_t i = 0; i < want.distributions.size(); ++i) {
    EXPECT_EQ(got.distributions[i].id, want.distributions[i].id);
    EXPECT_EQ(got.distributions[i].distribution,
              want.distributions[i].distribution);
  }
}

TEST(ExecutorTest, MultiObservationObjectsRoutedAutomatically) {
  Database db;
  const ChainId c = db.AddChain(PaperChainVI());
  std::vector<Observation> obs;
  obs.push_back({0, sparse::ProbVector::Delta(3, 0)});
  obs.push_back({3, sparse::ProbVector::Delta(3, 1)});
  (void)db.AddObject(c, obs).ValueOrDie();
  (void)db.AddObjectAt(c, sparse::ProbVector::Delta(3, 1)).ValueOrDie();

  QueryExecutor executor(&db, {.num_threads = 2});
  const auto window = QueryWindow::FromRanges(3, 0, 1, 1, 2).ValueOrDie();
  const auto result =
      executor.Run({.predicate = PredicateKind::kExists, .window = window})
          .ValueOrDie();
  ASSERT_EQ(result.probabilities.size(), 2u);
  EXPECT_NEAR(result.probabilities[0].probability, 0.0, 1e-12);
  EXPECT_GT(result.probabilities[1].probability, 0.0);
  EXPECT_EQ(result.stats.objects_multi_observation, 1u);
  EXPECT_EQ(result.stats.objects_evaluated, 1u);

  // PSTkQ stays outside the paper's multi-observation framework.
  const auto ktimes =
      executor.Run({.predicate = PredicateKind::kKTimes, .window = window});
  ASSERT_FALSE(ktimes.ok());
  EXPECT_EQ(ktimes.status().code(), util::StatusCode::kUnimplemented);
}

TEST(ExecutorTest, ObjectFilterRestrictsEvaluation) {
  Database db = MakeDb(2, 10, 905);
  QueryExecutor executor(&db);
  const QueryWindow window = Window();

  const auto full =
      executor.Run({.predicate = PredicateKind::kExists, .window = window})
          .ValueOrDie();
  QueryRequest filtered;
  filtered.window = window;
  filtered.object_filter = std::vector<ObjectId>{7, 2};
  const auto subset = executor.Run(filtered).ValueOrDie();
  ASSERT_EQ(subset.probabilities.size(), 2u);
  EXPECT_EQ(subset.probabilities[0].id, 7u);  // request order preserved
  EXPECT_EQ(subset.probabilities[1].id, 2u);
  EXPECT_DOUBLE_EQ(subset.probabilities[0].probability,
                   full.probabilities[7].probability);
  EXPECT_DOUBLE_EQ(subset.probabilities[1].probability,
                   full.probabilities[2].probability);

  // An empty filter evaluates nothing (distinct from nullopt = everything).
  QueryRequest none;
  none.window = window;
  none.object_filter = std::vector<ObjectId>{};
  EXPECT_TRUE(executor.Run(none).ValueOrDie().probabilities.empty());

  QueryRequest invalid;
  invalid.window = window;
  invalid.object_filter = std::vector<ObjectId>{99};
  const auto r = executor.Run(invalid);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kInvalidArgument);
}

// The engines only assert that the window is over their chain's state
// space; unchecked, a backward pass over a 400-state window reads and
// writes past a 50-state chain's vectors. Every plan refuses the request
// before any engine runs.
TEST(ExecutorTest, WindowOverAnotherStateCountIsRejected) {
  Database db = MakeDb(2, 16, 913, 50);
  QueryExecutor executor(&db, {.num_threads = 1});
  struct Case {
    const char* name;
    PredicateKind predicate;
    PlanChoice plan;
    DegradeMode degrade;
  };
  const Case cases[] = {
      {"qb", PredicateKind::kExists, PlanChoice::kQueryBased,
       DegradeMode::kNever},
      {"ob", PredicateKind::kExists, PlanChoice::kObjectBased,
       DegradeMode::kNever},
      {"bounds", PredicateKind::kThresholdExists,
       PlanChoice::kBoundsThenRefine, DegradeMode::kNever},
      {"bounds_only", PredicateKind::kThresholdExists, PlanChoice::kAuto,
       DegradeMode::kBoundsOnly},
      {"ktimes", PredicateKind::kKTimes, PlanChoice::kAuto,
       DegradeMode::kNever},
  };
  for (const Case& c : cases) {
    QueryRequest request;
    request.predicate = c.predicate;
    request.window = QueryWindow::FromRanges(400, 360, 399, 2, 6).ValueOrDie();
    request.tau = 0.2;
    request.plan = c.plan;
    request.degrade = c.degrade;
    const auto result = executor.Run(request);
    ASSERT_FALSE(result.ok()) << c.name;
    EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument)
        << c.name;
    EXPECT_EQ(result.status().message(),
              "query window is over 400 states, but an evaluated object's "
              "chain has 50")
        << c.name;
  }
}

// Only chains the request evaluates are checked: every chain holding
// objects without a filter, the filtered objects' chains with one.
TEST(ExecutorTest, WindowDomainIsCheckedOnEvaluatedChainsOnly) {
  util::Rng rng(914);
  Database db;
  const ChainId small = db.AddChain(RandomChain(25, 3, &rng));
  (void)db.AddChain(RandomChain(40, 3, &rng));  // holds no object
  for (uint32_t i = 0; i < 4; ++i) {
    (void)db.AddObjectAt(small, RandomDistribution(25, 3, &rng)).ValueOrDie();
  }
  QueryRequest request;
  request.window = Window();
  request.plan = PlanChoice::kQueryBased;
  const auto all_small = QueryExecutor(&db, {.num_threads = 1}).Run(request);
  ASSERT_TRUE(all_small.ok()) << all_small.status();

  const ChainId large = db.AddChain(RandomChain(50, 3, &rng));
  for (uint32_t i = 0; i < 4; ++i) {
    (void)db.AddObjectAt(large, RandomDistribution(50, 3, &rng)).ValueOrDie();
  }
  QueryExecutor mixed(&db, {.num_threads = 1});
  const auto unfiltered = mixed.Run(request);
  ASSERT_FALSE(unfiltered.ok());
  EXPECT_EQ(unfiltered.status().code(), util::StatusCode::kInvalidArgument);

  request.object_filter = std::vector<ObjectId>{3, 0};
  const auto small_only = mixed.Run(request);
  ASSERT_TRUE(small_only.ok()) << small_only.status();
  ASSERT_EQ(small_only.value().probabilities.size(), 2u);
  EXPECT_EQ(small_only.value().probabilities[0].probability,
            all_small.value().probabilities[3].probability);
  EXPECT_EQ(small_only.value().probabilities[1].probability,
            all_small.value().probabilities[0].probability);

  request.object_filter = std::vector<ObjectId>{0, 5};
  const auto reaches_large = mixed.Run(request);
  ASSERT_FALSE(reaches_large.ok());
  EXPECT_EQ(reaches_large.status().code(),
            util::StatusCode::kInvalidArgument);
}

TEST(ExecutorTest, AutoPlanFollowsDatabaseShape) {
  const QueryWindow window = Window();
  // One object per chain: every chain class should run object-based.
  Database sparse_db = MakeDb(5, 5, 906);
  QueryExecutor sparse_exec(&sparse_db);
  const auto sparse_result =
      sparse_exec.Run({.predicate = PredicateKind::kExists, .window = window})
          .ValueOrDie();
  EXPECT_EQ(sparse_result.stats.chains_object_based, 5u);
  EXPECT_EQ(sparse_result.stats.chains_query_based, 0u);

  // Many objects on one chain: the backward pass amortizes, QB wins.
  Database dense_db = MakeDb(1, 50, 907);
  QueryExecutor dense_exec(&dense_db);
  const auto dense_result =
      dense_exec.Run({.predicate = PredicateKind::kExists, .window = window})
          .ValueOrDie();
  EXPECT_EQ(dense_result.stats.chains_object_based, 0u);
  EXPECT_EQ(dense_result.stats.chains_query_based, 1u);
}

TEST(ExecutorTest, EngineCacheServesRepeatedWindows) {
  Database db = MakeDb(1, 20, 908);
  QueryExecutor executor(&db, {.num_threads = 1, .cache_capacity = 4});
  QueryRequest request;
  request.window = Window();
  request.plan = PlanChoice::kQueryBased;

  const auto first = executor.Run(request).ValueOrDie();
  EXPECT_EQ(first.stats.cache_hits, 0u);
  EXPECT_EQ(first.stats.cache_misses, 1u);

  const auto second = executor.Run(request).ValueOrDie();
  EXPECT_EQ(second.stats.cache_hits, 1u);
  EXPECT_EQ(second.stats.cache_misses, 0u);
  for (size_t i = 0; i < first.probabilities.size(); ++i) {
    EXPECT_DOUBLE_EQ(second.probabilities[i].probability,
                     first.probabilities[i].probability);
  }
  EXPECT_EQ(executor.cache_stats().hits, 1u);
  EXPECT_EQ(executor.cache_stats().misses, 1u);
}

TEST(ExecutorTest, EngineCacheEvictsUnderPressure) {
  Database db = MakeDb(1, 10, 909);
  QueryExecutor executor(&db, {.num_threads = 1, .cache_capacity = 1});
  QueryRequest a;
  a.window = QueryWindow::FromRanges(25, 2, 6, 2, 5).ValueOrDie();
  a.plan = PlanChoice::kQueryBased;
  QueryRequest b = a;
  b.window = QueryWindow::FromRanges(25, 10, 14, 2, 5).ValueOrDie();

  (void)executor.Run(a).ValueOrDie();
  (void)executor.Run(b).ValueOrDie();  // evicts a's engine
  (void)executor.Run(a).ValueOrDie();  // rebuilds
  EXPECT_EQ(executor.cache_stats().hits, 0u);
  EXPECT_EQ(executor.cache_stats().misses, 3u);
  EXPECT_EQ(executor.cache_stats().evictions, 2u);
}

TEST(ExecutorTest, CacheDegradesGracefullyWhenChainsExceedCapacity) {
  // 3 QB chain classes but room for 1 engine: the executor must keep
  // caching one chain per run (not disable caching wholesale) and still
  // answer correctly for the uncached overflow chains.
  Database db = MakeDb(3, 30, 913);
  QueryExecutor small(&db, {.num_threads = 1, .cache_capacity = 1});
  QueryRequest request;
  request.window = Window();
  request.plan = PlanChoice::kQueryBased;

  const auto first = small.Run(request).ValueOrDie();
  EXPECT_EQ(first.stats.chains_query_based, 3u);
  // Every chain misses and is built; all three are admitted after
  // evaluation, so the single slot keeps the last one.
  EXPECT_EQ(first.stats.cache_misses, 3u);
  const auto second = small.Run(request).ValueOrDie();
  EXPECT_EQ(second.stats.cache_hits, 1u);  // the cached chain is reused

  QueryExecutor big(&db, {.num_threads = 1, .cache_capacity = 8});
  const auto want = big.Run(request).ValueOrDie();
  ASSERT_EQ(first.probabilities.size(), want.probabilities.size());
  for (size_t i = 0; i < want.probabilities.size(); ++i) {
    EXPECT_DOUBLE_EQ(first.probabilities[i].probability,
                     want.probabilities[i].probability);
  }
}

/// Ids of every object on `chain` in a MakeDb database (round-robin).
std::vector<ObjectId> ObjectsOfChain(uint32_t chain, uint32_t num_chains,
                                     uint32_t num_objects) {
  std::vector<ObjectId> ids;
  for (ObjectId id = chain; id < num_objects; id += num_chains) {
    ids.push_back(id);
  }
  return ids;
}

TEST(ExecutorTest, CacheAdmissionNeverEvictsABorrowedPass) {
  // Four chains (A-D, eight objects each) against four cache slots. Three
  // windows on chain A fill three slots and chain D's pass for W0 the
  // fourth. A run over all objects with W0 shifted by one then misses on
  // A, B and C and extends D's W0 pass: admitting the new passes must not
  // evict one the run still reads. The answer must be bit-identical to
  // the same sequence on an executor whose cache never evicts.
  constexpr uint32_t kChains = 4;
  constexpr uint32_t kObjects = 32;
  Database db = MakeDb(kChains, kObjects, 920);
  const QueryWindow w0 = QueryWindow::FromRanges(25, 10, 15, 2, 6).ValueOrDie();
  const auto run_sequence = [&](QueryExecutor* executor) {
    QueryRequest chain_a;
    chain_a.plan = PlanChoice::kQueryBased;
    chain_a.object_filter = ObjectsOfChain(0, kChains, kObjects);
    for (Timestamp t_end : {3u, 4u, 5u}) {
      chain_a.window =
          QueryWindow::FromRanges(25, 0, 4, 1, t_end).ValueOrDie();
      EXPECT_TRUE(executor->Run(chain_a).ok());
    }
    QueryRequest chain_d;
    chain_d.plan = PlanChoice::kQueryBased;
    chain_d.object_filter = ObjectsOfChain(3, kChains, kObjects);
    chain_d.window = w0;
    EXPECT_TRUE(executor->Run(chain_d).ok());
    EXPECT_EQ(executor->cache_stats().evictions, 0u);

    QueryRequest all;
    all.plan = PlanChoice::kQueryBased;
    all.window = w0.ShiftedBy(1);
    return executor->Run(all).ValueOrDie();
  };

  QueryExecutor small(&db, {.num_threads = 1, .cache_capacity = 4});
  const QueryResult got = run_sequence(&small);
  EXPECT_EQ(got.stats.cache_misses, 4u);
  EXPECT_EQ(got.stats.cache_shift_extends, 1u);
  QueryExecutor big(&db, {.num_threads = 1, .cache_capacity = 64});
  const QueryResult want = run_sequence(&big);
  ASSERT_EQ(got.probabilities.size(), kObjects);
  ASSERT_EQ(want.probabilities.size(), kObjects);
  for (size_t i = 0; i < kObjects; ++i) {
    EXPECT_EQ(got.probabilities[i].id, want.probabilities[i].id);
    EXPECT_EQ(got.probabilities[i].probability,
              want.probabilities[i].probability)
        << "object " << i;
  }
}

TEST(ExecutorTest, ThresholdEarlyTerminationReported) {
  Database db = MakeDb(1, 60, 911, 20);
  QueryExecutor executor(&db);
  QueryRequest request;
  request.predicate = PredicateKind::kThresholdExists;
  request.window = QueryWindow::FromRanges(20, 5, 10, 2, 6).ValueOrDie();
  request.tau = 0.5;
  request.plan = PlanChoice::kObjectBased;
  const auto result = executor.Run(request).ValueOrDie();
  EXPECT_GT(result.stats.prune.objects_decided_early, 0u);
}

TEST(ExecutorTest, EmptyDatabase) {
  Database db;
  (void)db.AddChain(PaperChainV());
  QueryExecutor executor(&db);
  const auto window = QueryWindow::FromRanges(3, 0, 1, 2, 3).ValueOrDie();
  for (PredicateKind predicate :
       {PredicateKind::kExists, PredicateKind::kForAll,
        PredicateKind::kThresholdExists, PredicateKind::kTopKExists}) {
    QueryRequest request;
    request.predicate = predicate;
    request.window = window;
    EXPECT_TRUE(executor.Run(request).ValueOrDie().probabilities.empty());
  }
  QueryRequest ktimes;
  ktimes.predicate = PredicateKind::kKTimes;
  ktimes.window = window;
  EXPECT_TRUE(executor.Run(ktimes).ValueOrDie().distributions.empty());
}

TEST(ExecutorTest, KTimesDistributionsSumToOne) {
  Database db = MakeDb(1, 8, 912, 12);
  QueryExecutor executor(&db);
  QueryRequest request;
  request.predicate = PredicateKind::kKTimes;
  request.window = QueryWindow::FromRanges(12, 3, 6, 1, 4).ValueOrDie();
  const auto result = executor.Run(request).ValueOrDie();
  ASSERT_EQ(result.distributions.size(), 8u);
  for (const ObjectKTimes& r : result.distributions) {
    ASSERT_EQ(r.distribution.size(), request.window.num_times() + 1);
    const double total =
        std::accumulate(r.distribution.begin(), r.distribution.end(), 0.0);
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

}  // namespace
}  // namespace core
}  // namespace ustdb
