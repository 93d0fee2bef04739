// Copyright 2026 the ustdb authors.
//
// QueryPlanner — cost-based choice between the paper's two evaluation
// plans, decided per chain class. Section V gives the asymptotics: the
// object-based plan (V-A) pays one full forward pass per object, the
// query-based plan (V-B) pays one backward pass per chain class plus one
// sparse dot product per object. Which wins therefore depends on the
// database statistics (objects per chain) and the window's temporal reach
// (transitions per pass).
//
// A batch of requests sharing one window shifts the trade-off further:
// the backward pass is paid once for the whole group, so PlanBatch()
// amortizes it over every member request while the object-based side
// still pays per member and per object. A single request is a group of
// one. Plan directives (a pinned OB/QB plan) are
// honored by the executor, which leaves pinned members out of the loads.

#ifndef USTDB_CORE_PLANNER_H_
#define USTDB_CORE_PLANNER_H_

#include <span>

#include "core/database.h"
#include "core/query_request.h"

namespace ustdb {
namespace core {

/// \brief Estimated work, in transition-matrix-entry touches, for
/// answering one chain class's objects under each plan. Both figures are
/// proportional to t_end × nnz (the window's temporal reach times the
/// matrix entries touched per transition).
struct CostEstimate {
  /// n × t_end × nnz — one forward pass per object (× the τ-early-stop
  /// discount for threshold predicates).
  double object_based = 0.0;
  /// t_end × nnz + n × dot — one shared backward pass, then a sparse dot
  /// product per object (per member for batches).
  double query_based = 0.0;
  /// Section V-C bound pass: one upper-only interval backward pass per
  /// touched chain cluster (costed at kIntervalPassFactor × t_end ×
  /// envelope-nnz), one upper-bound dot product per object, plus the
  /// expected refine fraction of the query-based cost. Filled by
  /// ChooseThresholdPlan only; 0 elsewhere.
  double bounds_then_refine = 0.0;
};

/// The planner's verdict for one chain class (PlanBatch) or for a whole
/// threshold request (ChooseThresholdPlan).
struct PlanDecision {
  Plan plan = Plan::kQueryBased;
  CostEstimate cost;
  /// True when the request forced the bound plan (ChooseThresholdPlan).
  bool forced = false;
};

/// \brief The load one request of a batch group places on a chain class:
/// its predicate (threshold predicates discount the object-based side via
/// τ-early-termination) and how many single-observation objects of the
/// chain it evaluates after filtering.
struct MemberLoad {
  PredicateKind predicate = PredicateKind::kExists;
  uint32_t num_objects = 0;
};

/// \brief One chain class's share of a threshold request: the chain and how
/// many single-observation objects of it the request evaluates. Input of
/// ChooseThresholdPlan.
struct ChainLoad {
  ChainId chain = 0;
  uint32_t num_objects = 0;
};

/// \brief Chooses the evaluation plan per chain class from Database
/// statistics.
///
/// Stateless beyond the database pointer; cheap to construct and
/// thread-safe (all entry points are const and touch only immutable
/// database statistics). Every cost figure is O(1) to compute.
class QueryPlanner {
 public:
  /// \param db the database whose statistics feed the cost model; must
  ///        outlive the planner.
  explicit QueryPlanner(const Database* db) : db_(db) {}

  /// \brief Batch-aware plan decision for one chain class shared by every
  /// member of a RunBatch group (requests with identical effective window).
  ///
  /// Cost model: the object-based side pays one forward pass per object
  /// per member — sum over members of n_m × t_end × nnz, discounted for
  /// threshold predicates — while the query-based side pays a single
  /// backward pass (t_end × nnz) for the whole group plus one dot product
  /// per object per member. Amortization therefore tips the decision
  /// toward the query-based plan as the group grows; a single request is
  /// planned as a group of one member.
  ///
  /// \param chain the chain class being planned.
  /// \param window the group's effective window (only its temporal reach,
  ///        max T□, enters the cost).
  /// \param members per-member loads; only members that left plan choice
  ///        to the planner belong here (forced members bypass the model).
  ///        An empty span yields the object-based plan at zero cost.
  PlanDecision PlanBatch(ChainId chain, const QueryWindow& window,
                         std::span<const MemberLoad> members) const;

  /// \brief Whole-request decision for kThresholdExists: prices the
  /// Section V-C bounds-then-refine plan — one interval bound pass per
  /// chain cluster touched by `loads`, plus an expected refine fraction of
  /// the query-based cost — against the best per-chain OB/QB mix, using
  /// the database's cluster registry.
  ///
  /// Returns kBoundsThenRefine when the bound pass wins (or `directive`
  /// forces it, marking the decision forced); otherwise returns the
  /// cheaper of the aggregated per-chain plans so the caller can proceed
  /// with per-chain PlanBatch() decisions. Every cost field of the returned
  /// estimate is filled. An empty `loads` never chooses the bound pass.
  ///
  /// The caller remains responsible for window eligibility (contiguous,
  /// non-degenerate time range) — the cost model does not inspect it.
  ///
  /// \param window the request window (temporal reach enters every cost).
  /// \param directive the request's PlanChoice; kBoundsThenRefine forces.
  /// \param loads per-chain single-observation object counts.
  PlanDecision ChooseThresholdPlan(const QueryWindow& window,
                                   PlanChoice directive,
                                   std::span<const ChainLoad> loads) const;

  /// \brief Cost of one forward or backward pass over `chain` for
  /// `window`: transitions (the window's temporal reach, max T□) times the
  /// matrix entries touched per transition — t_end × nnz.
  static double PassCost(const markov::MarkovChain& chain,
                         const QueryWindow& window);

  /// The database whose statistics feed the cost model.
  const Database& db() const { return *db_; }

 private:
  const Database* db_;
};

}  // namespace core
}  // namespace ustdb

#endif  // USTDB_CORE_PLANNER_H_
