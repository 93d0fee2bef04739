// The threshold (PST∃Q ≥ τ) and top-k predicates through
// QueryExecutor::Run under every plan: object-based with τ-early
// termination, query-based, and the Section V-C cluster bound pass.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/executor.h"
#include "testing/random_models.h"
#include "util/rng.h"
#include "workload/synthetic.h"

namespace ustdb {
namespace core {
namespace {

using ::ustdb::testing::RandomChain;
using ::ustdb::testing::RandomDistribution;

/// Small shared-chain database plus a window for threshold experiments.
struct Fixture {
  Database db;
  QueryWindow window;
};

Fixture MakeSharedChainFixture(uint32_t n, uint32_t num_objects,
                               uint64_t seed) {
  util::Rng rng(seed);
  Fixture f{Database{},
            QueryWindow::FromRanges(n, n / 4, n / 2, 2, 6).ValueOrDie()};
  const ChainId c = f.db.AddChain(RandomChain(n, 3, &rng));
  for (uint32_t i = 0; i < num_objects; ++i) {
    (void)f.db.AddObjectAt(c, RandomDistribution(n, 3, &rng)).ValueOrDie();
  }
  return f;
}

/// Threshold answer of a fresh sequential executor under `plan`; `stats`
/// (optional) receives the run's prune counters.
std::vector<ObjectProbability> Threshold(const Database& db,
                                         const QueryWindow& window,
                                         double tau, PlanChoice plan,
                                         PruneStats* stats = nullptr) {
  QueryExecutor executor(&db, {.num_threads = 1});
  QueryResult result = executor
                           .Run({.predicate = PredicateKind::kThresholdExists,
                                 .window = window,
                                 .tau = tau,
                                 .plan = plan})
                           .ValueOrDie();
  if (stats != nullptr) *stats = result.stats.prune;
  return std::move(result.probabilities);
}

/// Top-k answer of a fresh sequential executor.
std::vector<ObjectProbability> TopK(const Database& db,
                                    const QueryWindow& window, uint32_t k) {
  QueryExecutor executor(&db, {.num_threads = 1});
  return executor
      .Run({.predicate = PredicateKind::kTopKExists, .window = window, .k = k})
      .ValueOrDie()
      .probabilities;
}

/// Ground truth by per-object QB evaluation.
std::map<ObjectId, double> AllProbabilities(const Database& db,
                                            const QueryWindow& window) {
  std::map<ObjectId, double> out;
  std::map<ChainId, std::unique_ptr<QueryBasedEngine>> engines;
  for (const UncertainObject& obj : db.objects()) {
    auto& e = engines[obj.chain];
    if (!e) {
      e = std::make_unique<QueryBasedEngine>(&db.chain(obj.chain), window);
    }
    out[obj.id] = e->ExistsProbability(obj.initial_pdf());
  }
  return out;
}

TEST(ThresholdTest, QueryBasedMatchesBruteForce) {
  Fixture f = MakeSharedChainFixture(30, 50, 101);
  const auto truth = AllProbabilities(f.db, f.window);
  for (double tau : {0.05, 0.3, 0.7}) {
    const auto got = Threshold(f.db, f.window, tau, PlanChoice::kQueryBased);
    std::vector<ObjectId> want_ids;
    for (const auto& [id, p] : truth) {
      if (p >= tau) want_ids.push_back(id);
    }
    ASSERT_EQ(got.size(), want_ids.size()) << "tau " << tau;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, want_ids[i]);
      EXPECT_NEAR(got[i].probability, truth.at(got[i].id), 1e-10);
    }
  }
}

TEST(ThresholdTest, ObjectBasedAgreesWithQueryBased) {
  Fixture f = MakeSharedChainFixture(25, 40, 202);
  for (double tau : {0.1, 0.5, 0.9}) {
    const auto qb = Threshold(f.db, f.window, tau, PlanChoice::kQueryBased);
    const auto ob = Threshold(f.db, f.window, tau, PlanChoice::kObjectBased);
    ASSERT_EQ(qb.size(), ob.size()) << "tau " << tau;
    for (size_t i = 0; i < qb.size(); ++i) {
      EXPECT_EQ(qb[i].id, ob[i].id);
      EXPECT_NEAR(qb[i].probability, ob[i].probability, 1e-10);
    }
  }
}

TEST(ThresholdTest, ObjectBasedEarlyTerminationTriggers) {
  // With a generous window many objects decide early (true hit before
  // t_end or residual collapse).
  Fixture f = MakeSharedChainFixture(20, 60, 303);
  PruneStats stats;
  (void)Threshold(f.db, f.window, 0.5, PlanChoice::kObjectBased, &stats);
  EXPECT_GT(stats.objects_decided_early, 0u);
}

/// The bound-pass accounting contract (see PruneStats): every evaluated
/// object was either dropped by the interval bounds or refined — exactly
/// once each — and every bounded cluster was either pruned wholesale or
/// refined.
void ExpectPruneAccounting(const PruneStats& stats, uint32_t num_objects) {
  EXPECT_EQ(stats.objects_decided_by_bounds + stats.objects_refined,
            num_objects);
  EXPECT_EQ(stats.clusters_pruned + stats.clusters_refined,
            stats.clusters_bounded);
  EXPECT_EQ(stats.clusters_bounded, stats.clusters_total);
  // Query-based refinement has no τ-early-termination, so refined objects
  // can never additionally count as early-decided.
  EXPECT_EQ(stats.objects_decided_early, 0u);
  EXPECT_EQ(stats.bound_fallbacks, 0u);
}

TEST(ThresholdTest, ClusteredMatchesBruteForceOnMultiChainDb) {
  workload::SyntheticConfig config;
  config.num_states = 30;
  config.num_objects = 60;
  config.state_spread = 3;
  config.max_step = 10;
  config.seed = 404;
  Database db =
      workload::GenerateMultiChainDatabase(config, /*num_chains=*/6,
                                           /*jitter=*/0.2)
          .ValueOrDie();
  auto window = QueryWindow::FromRanges(30, 8, 14, 2, 6).ValueOrDie();
  const auto truth = AllProbabilities(db, window);
  // All six chains are jittered copies of one base, so the similarity
  // registry folds them into a single cluster.
  ASSERT_EQ(db.chain_clusters().size(), 1u);

  for (double tau : {0.2, 0.6}) {
    PruneStats stats;
    const auto got =
        Threshold(db, window, tau, PlanChoice::kBoundsThenRefine, &stats);
    std::vector<ObjectId> want_ids;
    for (const auto& [id, p] : truth) {
      if (p >= tau) want_ids.push_back(id);
    }
    ASSERT_EQ(got.size(), want_ids.size()) << "tau " << tau;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, want_ids[i]) << "tau " << tau;
      EXPECT_NEAR(got[i].probability, truth.at(got[i].id), 1e-10);
    }
    EXPECT_EQ(stats.clusters_total, 1u);
    ExpectPruneAccounting(stats, db.num_objects());
  }
}

TEST(ThresholdTest, ClusteredAccountingOnMixedChainClasses) {
  // Two dissimilar chain families (independent random chains never land
  // inside the clustering radius) plus multi-observation objects, which
  // bypass the bound pass and must still be counted refined exactly once.
  util::Rng rng(906);
  Database db;
  const ChainId a = db.AddChain(RandomChain(20, 3, &rng));
  const ChainId b = db.AddChain(RandomChain(20, 3, &rng));
  ASSERT_NE(db.cluster_of(a), db.cluster_of(b));
  for (uint32_t i = 0; i < 12; ++i) {
    (void)db.AddObjectAt(i % 2 == 0 ? a : b, RandomDistribution(20, 3, &rng))
        .ValueOrDie();
  }
  // Two multi-observation objects (second observation after the window).
  for (uint32_t i = 0; i < 2; ++i) {
    std::vector<Observation> obs;
    obs.push_back({0, RandomDistribution(20, 3, &rng)});
    obs.push_back({9, RandomDistribution(20, 3, &rng)});
    (void)db.AddObject(a, std::move(obs)).ValueOrDie();
  }
  auto window = QueryWindow::FromRanges(20, 5, 10, 2, 5).ValueOrDie();
  // Ground truth through the pipeline's kExists path, which routes the
  // multi-observation objects through the Section VI engine.
  QueryExecutor executor(&db, {.num_threads = 1});
  const QueryResult all =
      executor.Run({.predicate = PredicateKind::kExists, .window = window})
          .ValueOrDie();

  for (double tau : {0.15, 0.5, 0.9}) {
    PruneStats stats;
    const auto got =
        Threshold(db, window, tau, PlanChoice::kBoundsThenRefine, &stats);
    EXPECT_EQ(stats.clusters_total, 2u) << "tau " << tau;
    ExpectPruneAccounting(stats, db.num_objects());
    // Multi-observation objects can never be decided by the t=0 bounds.
    EXPECT_GE(stats.objects_refined, 2u);
    for (const auto& op : got) {
      EXPECT_GE(op.probability, tau);
    }
    size_t want = 0;
    for (const auto& op : all.probabilities) want += op.probability >= tau;
    EXPECT_EQ(got.size(), want) << "tau " << tau;
  }
}

TEST(ThresholdTest, ClusteredPrunesAtExtremeTaus) {
  // τ > 1 means nothing qualifies: every cluster's upper bound is <= 1 so
  // all objects are dropped wholesale.
  workload::SyntheticConfig config;
  config.num_states = 25;
  config.num_objects = 30;
  config.state_spread = 3;
  config.max_step = 8;
  config.seed = 505;
  Database db =
      workload::GenerateMultiChainDatabase(config, 4, 0.1).ValueOrDie();
  auto window = QueryWindow::FromRanges(25, 5, 9, 2, 5).ValueOrDie();
  PruneStats stats;
  const auto got =
      Threshold(db, window, 1.1, PlanChoice::kBoundsThenRefine, &stats);
  EXPECT_TRUE(got.empty());
  EXPECT_GT(stats.clusters_total, 0u);
  EXPECT_EQ(stats.clusters_pruned, stats.clusters_total);
  EXPECT_EQ(stats.objects_refined, 0u);
  ExpectPruneAccounting(stats, db.num_objects());
}

TEST(ThresholdTest, ClusteredFallsBackObservablyOnNonContiguousWindow) {
  // A time set with holes cannot be bounded over [t_begin, t_end]; the
  // forced bound plan must fall back to per-chain planning — cost-based,
  // exactly as under kAuto — report it, and still answer exactly.
  Fixture f = MakeSharedChainFixture(25, 40, 808);
  const auto region = sparse::IndexSet::FromRange(25, 6, 12).ValueOrDie();
  const auto window =
      QueryWindow::Create(region, {2, 4, 7}).ValueOrDie();
  const auto truth = AllProbabilities(f.db, window);

  QueryExecutor executor(&f.db, {.num_threads = 1});
  QueryRequest request{.predicate = PredicateKind::kThresholdExists,
                       .window = window,
                       .tau = 0.3,
                       .plan = PlanChoice::kBoundsThenRefine};
  const QueryResult forced = executor.Run(request).ValueOrDie();
  request.plan = PlanChoice::kAuto;
  const QueryResult automatic = executor.Run(request).ValueOrDie();
  EXPECT_EQ(forced.stats.chains_object_based,
            automatic.stats.chains_object_based);
  EXPECT_EQ(forced.stats.chains_query_based,
            automatic.stats.chains_query_based);

  const PruneStats& stats = forced.stats.prune;
  const std::vector<ObjectProbability>& got = forced.probabilities;
  EXPECT_EQ(stats.bound_fallbacks, 1u);
  EXPECT_EQ(stats.clusters_bounded, 0u);
  EXPECT_EQ(stats.objects_decided_by_bounds, 0u);
  std::vector<ObjectId> want_ids;
  for (const auto& [id, p] : truth) {
    if (p >= 0.3) want_ids.push_back(id);
  }
  ASSERT_EQ(got.size(), want_ids.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want_ids[i]);
    EXPECT_NEAR(got[i].probability, truth.at(got[i].id), 1e-10);
  }
}

TEST(TopKTest, ReturnsHighestProbabilityObjects) {
  Fixture f = MakeSharedChainFixture(30, 40, 606);
  const auto truth = AllProbabilities(f.db, f.window);
  const auto top5 = TopK(f.db, f.window, 5);
  ASSERT_EQ(top5.size(), 5u);
  // Descending order.
  for (size_t i = 1; i < top5.size(); ++i) {
    EXPECT_GE(top5[i - 1].probability, top5[i].probability);
  }
  // No excluded object beats the k-th.
  const double kth = top5.back().probability;
  std::set<ObjectId> returned;
  for (const auto& r : top5) returned.insert(r.id);
  for (const auto& [id, p] : truth) {
    if (!returned.count(id)) EXPECT_LE(p, kth + 1e-10);
  }
}

TEST(TopKTest, KLargerThanDatabaseReturnsEverything) {
  Fixture f = MakeSharedChainFixture(10, 7, 707);
  const auto all = TopK(f.db, f.window, 100);
  EXPECT_EQ(all.size(), 7u);
}

}  // namespace
}  // namespace core
}  // namespace ustdb
