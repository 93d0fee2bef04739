#include "core/planner.h"

#include <algorithm>
#include <map>

namespace ustdb {
namespace core {

namespace {

/// Expected nonzeros of one initial pdf — the per-object dot-product cost
/// of the query-based plan. Object spreads are small (Table I uses 5); the
/// constant only needs to keep the dot term from vanishing entirely.
constexpr double kDotCost = 8.0;

/// The object-based plan decides thresholds early (true hit / true drop
/// cuts, Section V-A): on average a τ-run stops well before t_end. The
/// discount keeps OB competitive for threshold queries on mid-size
/// classes, mirroring the paper's observation that early termination is
/// the OB plan's edge.
constexpr double kThresholdEarlyStopFactor = 0.5;

/// Relative cost of one interval bound pass over a cluster envelope vs. a
/// plain backward pass over one member: every step solves the
/// fractional-greedy LP per active row (the executor requests upper-only
/// passes, measured ~2.5x a member pass in bench_cluster_pruning steady
/// state). Deliberately kept higher than measured: it also absorbs the
/// per-query fixed costs outside any pass (cluster partition, bound dot
/// products, refine-engine setup), and the bench shows the plan is a
/// wash at the break-even this factor induces (~10-14 chains).
constexpr double kIntervalPassFactor = 5.0;

/// Envelope nnz relative to one member chain's nnz: the union support of
/// clustered (similar) chains is modestly wider than any single member's.
constexpr double kEnvelopeNnzFactor = 1.25;

/// Expected share of the query-based cost the refine stage still pays.
/// Dominated by chain fan-out, not object count: a handful of undecided
/// objects scattered across chains pays one backward pass per touched
/// chain, so the discount is deliberately conservative — it keeps the
/// bound pass from engaging on small chain counts where refinement
/// re-pays most per-chain passes anyway (measured on
/// bench_cluster_pruning: at 8 chains bounds loses, from ~16 it wins).
/// PruneStats.objects_refined reports the realized fraction.
constexpr double kExpectedRefineFraction = 0.5;

}  // namespace

double QueryPlanner::PassCost(const markov::MarkovChain& chain,
                              const QueryWindow& window) {
  // Temporal reach: every plan must propagate from t=0 to max(T□).
  const double transitions = std::max<double>(1.0, window.t_end());
  const double entries_per_step =
      std::max<double>(1.0, static_cast<double>(chain.matrix().nnz()));
  return transitions * entries_per_step;
}

PlanDecision QueryPlanner::PlanBatch(
    ChainId chain, const QueryWindow& window,
    std::span<const MemberLoad> members) const {
  PlanDecision decision;
  const double pass = PassCost(db_->chain(chain), window);

  // OB: one full pass per object per member — discounted when
  // τ-termination applies. QB: one backward pass shared by the whole
  // group, then a sparse dot product per object per member.
  double object_based = 0.0;
  double dots = 0.0;
  for (const MemberLoad& member : members) {
    const double n = static_cast<double>(member.num_objects);
    object_based +=
        n * pass *
        (member.predicate == PredicateKind::kThresholdExists
             ? kThresholdEarlyStopFactor
             : 1.0);
    dots += n * kDotCost;
  }
  decision.cost.object_based = object_based;
  decision.cost.query_based = pass + dots;

  decision.plan = decision.cost.object_based <= decision.cost.query_based
                      ? Plan::kObjectBased
                      : Plan::kQueryBased;
  return decision;
}

PlanDecision QueryPlanner::ChooseThresholdPlan(
    const QueryWindow& window, PlanChoice directive,
    std::span<const ChainLoad> loads) const {
  PlanDecision decision;

  // Aggregate the per-chain alternatives: each chain contributes its own
  // cheaper side to `best_single`, so the bound pass competes against the
  // plan mix the executor would otherwise run.
  double best_single = 0.0;
  double total_qb = 0.0;
  double bound_dots = 0.0;
  std::map<uint32_t, double> cluster_pass;  // cluster index -> bound cost
  for (const ChainLoad& load : loads) {
    const MemberLoad member{PredicateKind::kThresholdExists,
                            load.num_objects};
    const PlanDecision per_chain = PlanBatch(load.chain, window, {&member, 1});
    decision.cost.object_based += per_chain.cost.object_based;
    decision.cost.query_based += per_chain.cost.query_based;
    best_single += std::min(per_chain.cost.object_based,
                            per_chain.cost.query_based);
    total_qb += per_chain.cost.query_based;
    // One upper-bound dot per object: the executor requests upper-only
    // bound passes and its drop test never reads lo.
    bound_dots += kDotCost * load.num_objects;

    // One interval pass per cluster, priced from its widest member (the
    // envelope's union support is at least that wide).
    const uint32_t cluster = db_->cluster_of(load.chain);
    const double member_pass = PassCost(db_->chain(load.chain), window);
    double& pass = cluster_pass[cluster];
    pass = std::max(pass, kIntervalPassFactor * kEnvelopeNnzFactor *
                              member_pass);
  }
  double bound_passes = 0.0;
  for (const auto& [cluster, pass] : cluster_pass) bound_passes += pass;
  decision.cost.bounds_then_refine =
      bound_passes + bound_dots + kExpectedRefineFraction * total_qb;

  if (directive == PlanChoice::kBoundsThenRefine) {
    decision.plan = Plan::kBoundsThenRefine;
    decision.forced = true;
    return decision;
  }
  if (!loads.empty() && decision.cost.bounds_then_refine < best_single) {
    decision.plan = Plan::kBoundsThenRefine;
  } else {
    decision.plan =
        decision.cost.object_based <= decision.cost.query_based
            ? Plan::kObjectBased
            : Plan::kQueryBased;
  }
  return decision;
}

}  // namespace core
}  // namespace ustdb
