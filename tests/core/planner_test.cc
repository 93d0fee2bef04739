#include "core/planner.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "testing/random_models.h"
#include "util/rng.h"
#include "workload/synthetic.h"

namespace ustdb {
namespace core {
namespace {

using ::ustdb::testing::RandomChain;
using ::ustdb::testing::RandomDistribution;

Database MakeDb(uint32_t num_chains, uint32_t objects_per_chain,
                uint64_t seed) {
  util::Rng rng(seed);
  Database db;
  std::vector<ChainId> chains;
  for (uint32_t c = 0; c < num_chains; ++c) {
    chains.push_back(db.AddChain(RandomChain(25, 3, &rng)));
  }
  for (uint32_t c = 0; c < num_chains; ++c) {
    for (uint32_t i = 0; i < objects_per_chain; ++i) {
      (void)db.AddObjectAt(chains[c], RandomDistribution(25, 3, &rng))
          .ValueOrDie();
    }
  }
  return db;
}

QueryRequest ExistsRequest(uint32_t num_states = 25) {
  QueryRequest request;
  request.window =
      QueryWindow::FromRanges(num_states, 6, 12, 3, 8).ValueOrDie();
  return request;
}

/// The decision for one request evaluating `n` objects of chain 0: a
/// batch group of one member.
PlanDecision PlanOne(const QueryPlanner& planner, PredicateKind predicate,
                     uint32_t n) {
  const QueryRequest request = ExistsRequest();
  const MemberLoad load{predicate, n};
  return planner.PlanBatch(0, request.window, {&load, 1});
}

TEST(PlannerTest, SingleObjectChainPrefersObjectBased) {
  Database db = MakeDb(4, 1, 11);
  QueryPlanner planner(&db);
  const PlanDecision d = PlanOne(planner, PredicateKind::kExists, 1);
  EXPECT_EQ(d.plan, Plan::kObjectBased);
  EXPECT_FALSE(d.forced);
  EXPECT_LE(d.cost.object_based, d.cost.query_based);
}

TEST(PlannerTest, ManyObjectChainPrefersQueryBased) {
  Database db = MakeDb(1, 50, 12);
  QueryPlanner planner(&db);
  const PlanDecision d = PlanOne(planner, PredicateKind::kExists, 50);
  EXPECT_EQ(d.plan, Plan::kQueryBased);
  EXPECT_GT(d.cost.object_based, d.cost.query_based);
}

TEST(PlannerTest, ObjectBasedCostScalesLinearlyWithObjects) {
  Database db = MakeDb(1, 1, 13);
  QueryPlanner planner(&db);
  const CostEstimate one = PlanOne(planner, PredicateKind::kExists, 1).cost;
  const CostEstimate ten = PlanOne(planner, PredicateKind::kExists, 10).cost;
  EXPECT_NEAR(ten.object_based, 10.0 * one.object_based, 1e-9);
  // QB amortizes the pass: going 1 -> 10 objects adds only dot products.
  EXPECT_LT(ten.query_based - one.query_based, one.query_based);
}

TEST(PlannerTest, LongerReachRaisesPassCost) {
  Database db = MakeDb(1, 1, 16);
  const QueryWindow near_window =
      QueryWindow::FromRanges(25, 6, 12, 1, 3).ValueOrDie();
  const QueryWindow far_window =
      QueryWindow::FromRanges(25, 6, 12, 1, 30).ValueOrDie();
  EXPECT_GT(QueryPlanner::PassCost(db.chain(0), far_window),
            QueryPlanner::PassCost(db.chain(0), near_window));
}

TEST(PlannerTest, PlanBatchAmortizesThePassAcrossMembers) {
  // One object per chain: solo prefers OB, but a growing group shares the
  // backward pass, so at some group size QB must win.
  Database db = MakeDb(1, 1, 19);
  QueryPlanner planner(&db);
  const QueryRequest request = ExistsRequest();
  EXPECT_EQ(PlanOne(planner, PredicateKind::kExists, 1).plan,
            Plan::kObjectBased);

  std::vector<MemberLoad> members;
  Plan plan = Plan::kObjectBased;
  while (plan == Plan::kObjectBased && members.size() < 64) {
    members.push_back({PredicateKind::kExists, 1});
    plan = planner.PlanBatch(0, request.window, members).plan;
  }
  EXPECT_EQ(plan, Plan::kQueryBased);
  EXPECT_GT(members.size(), 1u);  // one member alone stays OB

  // The QB side grows only by dot products as the group grows.
  const CostEstimate big = planner.PlanBatch(0, request.window, members).cost;
  const MemberLoad one{PredicateKind::kExists, 1};
  const CostEstimate small =
      planner.PlanBatch(0, request.window, {&one, 1}).cost;
  EXPECT_NEAR(big.object_based,
              static_cast<double>(members.size()) * small.object_based,
              1e-9);
  EXPECT_LT(big.query_based - small.query_based, small.query_based);
}

TEST(PlannerTest, PlanBatchMixedPredicatesDiscountThresholdMembers) {
  Database db = MakeDb(1, 4, 20);
  QueryPlanner planner(&db);
  const QueryWindow window =
      QueryWindow::FromRanges(25, 6, 12, 3, 8).ValueOrDie();
  const std::vector<MemberLoad> plain = {{PredicateKind::kExists, 4},
                                         {PredicateKind::kExists, 4}};
  const std::vector<MemberLoad> mixed = {{PredicateKind::kExists, 4},
                                         {PredicateKind::kThresholdExists, 4}};
  const CostEstimate p = planner.PlanBatch(0, window, plain).cost;
  const CostEstimate m = planner.PlanBatch(0, window, mixed).cost;
  EXPECT_LT(m.object_based, p.object_based);
  EXPECT_DOUBLE_EQ(m.query_based, p.query_based);
}

TEST(PlannerTest, PlanBatchEmptyGroupIsObjectBasedAtZeroCost) {
  Database db = MakeDb(1, 1, 21);
  QueryPlanner planner(&db);
  const PlanDecision d = planner.PlanBatch(0, ExistsRequest().window, {});
  EXPECT_EQ(d.plan, Plan::kObjectBased);
  EXPECT_DOUBLE_EQ(d.cost.object_based, 0.0);
}

TEST(PlannerTest, ThresholdDiscountShiftsBreakEven) {
  // Early τ-termination makes OB cheaper per object, so the break-even
  // object count must be at least as high as for plain exists.
  Database db = MakeDb(1, 2, 17);
  QueryPlanner planner(&db);
  const CostEstimate e = PlanOne(planner, PredicateKind::kExists, 2).cost;
  const CostEstimate t =
      PlanOne(planner, PredicateKind::kThresholdExists, 2).cost;
  EXPECT_LT(t.object_based, e.object_based);
  EXPECT_DOUBLE_EQ(t.query_based, e.query_based);
}

/// Database of `num_chains` jittered copies of one base model — one
/// similarity cluster — with `objects_per_chain` objects each.
Database MakeClusteredDb(uint32_t num_chains, uint32_t objects_per_chain,
                         uint64_t seed) {
  workload::SyntheticConfig config;
  config.num_states = 25;
  config.num_objects = num_chains * objects_per_chain;
  config.state_spread = 3;
  config.max_step = 8;
  config.seed = seed;
  return workload::GenerateMultiChainDatabase(config, num_chains, 0.05)
      .ValueOrDie();
}

std::vector<ChainLoad> LoadsOf(const Database& db) {
  std::vector<ChainLoad> loads;
  for (ChainId c = 0; c < db.num_chains(); ++c) {
    loads.push_back(
        {c, static_cast<uint32_t>(db.objects_by_chain()[c].size())});
  }
  return loads;
}

TEST(PlannerTest, ThresholdPlanPicksBoundsForManySimilarChains) {
  // Many chain classes with few objects each defeat per-chain QB
  // amortization; one interval pass over their shared cluster plus a
  // fractional refine must win.
  Database db = MakeClusteredDb(/*num_chains=*/24, /*objects_per_chain=*/4,
                                22);
  ASSERT_EQ(db.chain_clusters().size(), 1u);
  QueryPlanner planner(&db);
  const QueryWindow window =
      QueryWindow::FromRanges(25, 6, 12, 3, 8).ValueOrDie();
  const PlanDecision d =
      planner.ChooseThresholdPlan(window, PlanChoice::kAuto, LoadsOf(db));
  EXPECT_EQ(d.plan, Plan::kBoundsThenRefine);
  EXPECT_FALSE(d.forced);
  EXPECT_LT(d.cost.bounds_then_refine,
            std::min(d.cost.object_based, d.cost.query_based));
}

TEST(PlannerTest, ThresholdPlanKeepsSingleChainWorkloadsPerChain) {
  // One shared chain: the QB pass is already fully amortized and the
  // bound pass (a costlier interval pass plus refines) cannot beat it.
  Database db = MakeClusteredDb(/*num_chains=*/1, /*objects_per_chain=*/64,
                                23);
  QueryPlanner planner(&db);
  const QueryWindow window =
      QueryWindow::FromRanges(25, 6, 12, 3, 8).ValueOrDie();
  const PlanDecision d =
      planner.ChooseThresholdPlan(window, PlanChoice::kAuto, LoadsOf(db));
  EXPECT_NE(d.plan, Plan::kBoundsThenRefine);
  EXPECT_GT(d.cost.bounds_then_refine, 0.0);
}

TEST(PlannerTest, ThresholdPlanHonorsForcedDirective) {
  Database db = MakeClusteredDb(1, 4, 24);
  QueryPlanner planner(&db);
  const QueryWindow window =
      QueryWindow::FromRanges(25, 6, 12, 3, 8).ValueOrDie();
  const PlanDecision d = planner.ChooseThresholdPlan(
      window, PlanChoice::kBoundsThenRefine, LoadsOf(db));
  EXPECT_EQ(d.plan, Plan::kBoundsThenRefine);
  EXPECT_TRUE(d.forced);
}

TEST(PlannerTest, ThresholdPlanEmptyLoadsNeverBounds) {
  Database db = MakeClusteredDb(2, 2, 25);
  QueryPlanner planner(&db);
  const QueryWindow window =
      QueryWindow::FromRanges(25, 6, 12, 3, 8).ValueOrDie();
  const PlanDecision d =
      planner.ChooseThresholdPlan(window, PlanChoice::kAuto, {});
  EXPECT_NE(d.plan, Plan::kBoundsThenRefine);
  EXPECT_DOUBLE_EQ(d.cost.bounds_then_refine, 0.0);
}

}  // namespace
}  // namespace core
}  // namespace ustdb
