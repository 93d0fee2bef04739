// Copyright 2026 the ustdb authors.
//
// QueryRequest / QueryResult — the single request type understood by the
// planner/executor pipeline. One struct describes every predicate of the
// paper (PST∃Q, PST∀Q, PSTkQ of Section III plus the threshold/top-k
// variants of Section V) so that plan selection, parallel execution,
// engine caching, and pruning apply uniformly instead of living in
// per-predicate entry points.

#ifndef USTDB_CORE_QUERY_REQUEST_H_
#define USTDB_CORE_QUERY_REQUEST_H_

#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/query_window.h"
#include "obs/trace.h"
#include "sparse/types.h"
#include "util/cancellation.h"
#include "util/status.h"

namespace ustdb {
namespace core {

/// Which query evaluation plan to run.
enum class Plan {
  /// Forward per-object evaluation (Section V-A).
  kObjectBased,
  /// Backward per-chain evaluation, amortized over objects (Section V-B).
  kQueryBased,
  /// Section V-C cluster pruning: bound whole chain clusters with an
  /// IntervalMarkovChain envelope, drop every object whose upper bound
  /// falls below τ, and refine only the undecided remainder (query-based,
  /// per chain). Only meaningful for kThresholdExists over a window whose
  /// time set is a contiguous range.
  kBoundsThenRefine,
};

/// Plan selection directive carried by a request. kAuto defers to the
/// QueryPlanner's cost model, decided independently per chain class —
/// except for kThresholdExists, where the planner may first choose the
/// whole-request kBoundsThenRefine plan from the database's cluster
/// registry. kBoundsThenRefine forces that plan; when the window is not
/// eligible (non-contiguous or degenerate time range) the executor falls
/// back to per-chain cost-based planning and counts the fallback in
/// PruneStats::bound_fallbacks.
enum class PlanChoice {
  kAuto,
  /// Cost-based per-chain selection that never considers the
  /// whole-request kBoundsThenRefine plan. The shard router pins this on
  /// threshold sub-requests after deciding bound-vs-per-chain globally:
  /// the bound plan's break-even sums over every chain of the request,
  /// so re-deciding it per shard could diverge from the unsharded
  /// pipeline. For every other predicate it behaves exactly like kAuto.
  kAutoPerChain,
  kObjectBased,
  kQueryBased,
  kBoundsThenRefine,
};

/// The predicate a request evaluates.
enum class PredicateKind {
  /// PST∃Q (Definition 2): P(object intersects S□ × T□), every object.
  kExists,
  /// PST∀Q (Definition 3): P(object inside S□ at all t ∈ T□), every
  /// object, via the complement reduction of Section VII.
  kForAll,
  /// PSTkQ (Definition 4): full visit-count distribution per object.
  kKTimes,
  /// Objects with P∃ >= tau, ascending by id (Section V's query mode).
  kThresholdExists,
  /// The k objects with the highest P∃, descending (ties broken by id).
  kTopKExists,
};

/// Per-object query answer: one object id and its window probability.
struct ObjectProbability {
  ObjectId id = 0;
  double probability = 0.0;

  bool operator==(const ObjectProbability&) const = default;
};

/// Degradation directive carried by a request (see docs/RESILIENCE.md).
enum class DegradeMode {
  /// Full-precision answers only (default; behavior unchanged).
  kNever,
  /// The caller accepts a bounds-only answer when the service is shedding
  /// load or a shard is quarantined. The executor itself treats this like
  /// kNever — only the service downgrades it to kBoundsOnly.
  kUnderPressure,
  /// Answer kThresholdExists from the Section V-C interval bounds alone:
  /// certainly-qualifying objects are returned (with their lower bound as
  /// the reported probability), certainly-failing objects are dropped, and
  /// everything else lands in QueryResult::undecided with its [lo, hi]
  /// interval. The result carries degraded_bounds = true. Other predicates
  /// (and non-contiguous windows, multi-observation objects) cannot be
  /// bounded and report every object as undecided over [0, 1].
  kBoundsOnly,
};

/// Retry directive for transient (kUnavailable) sub-request failures,
/// honored by the QueryService dispatcher. The budget is per ticket:
/// every retried sub-request draws from the same budget, backoff grows
/// exponentially per attempt with ±jitter, and a retry never outlives the
/// request's deadline or cancellation token. Default: no retries.
struct RetryPolicy {
  uint32_t max_retries = 0;
  std::chrono::milliseconds initial_backoff{5};
  std::chrono::milliseconds max_backoff{1000};
  double multiplier = 2.0;
  /// Backoff is scaled by a deterministic factor in [1-jitter, 1+jitter].
  double jitter = 0.2;
};

/// Distribution over visit counts for one object (PSTkQ answer).
struct ObjectKTimes {
  ObjectId id = 0;
  /// Element k = P(object inside S□ at exactly k timestamps of T□).
  std::vector<double> distribution;
};

/// \brief Statistics describing how much work pruning avoided.
///
/// Bound-pass accounting invariants (kBoundsThenRefine runs): every object
/// the request evaluates is either dropped by the interval bounds or
/// refined exactly once, so objects_decided_by_bounds + objects_refined
/// equals the evaluated object count; likewise clusters_pruned +
/// clusters_refined == clusters_bounded. objects_decided_early counts only
/// τ-cuts inside object-based refinement and is therefore a subset of —
/// never additive with — objects_refined.
struct PruneStats {
  uint32_t clusters_total = 0;    ///< clusters holding evaluated objects
  uint32_t clusters_bounded = 0;  ///< clusters whose bound pass ran
  uint32_t clusters_pruned = 0;   ///< decided wholesale by interval bounds
  uint32_t clusters_refined = 0;  ///< had >= 1 object needing refinement
  /// Objects dropped by the cluster bound pass (upper bound below τ)
  /// without any individual evaluation.
  uint32_t objects_decided_by_bounds = 0;
  uint32_t objects_refined = 0;   ///< needed an individual evaluation
  uint32_t objects_decided_early = 0;  ///< OB runs cut short by τ-decision
  /// Times a requested/chosen bound pass could not run (non-contiguous or
  /// degenerate window time range) and the run fell back to per-chain
  /// plans. Previously this fallback was silent.
  uint32_t bound_fallbacks = 0;
};

/// \brief One query against a Database, complete with predicate
/// parameters and execution directives. Aggregate-initializable:
///
///   executor.Run({.predicate = PredicateKind::kThresholdExists,
///                 .window = window, .tau = 0.3});
struct QueryRequest {
  PredicateKind predicate = PredicateKind::kExists;
  QueryWindow window;

  /// Probability threshold; only read by kThresholdExists.
  double tau = 0.0;
  /// Result count; only read by kTopKExists.
  uint32_t k = 0;

  /// Plan directive; kAuto lets the planner decide per chain class (and,
  /// for kThresholdExists, consider the whole-request cluster-bound plan).
  PlanChoice plan = PlanChoice::kAuto;

  /// Restricts evaluation to these object ids (any order, no duplicates).
  /// nullopt evaluates the whole database; an empty vector evaluates
  /// nothing. Used by cluster pruning to refine only undecided objects.
  std::optional<std::vector<ObjectId>> object_filter;

  /// Cooperative cancellation: the executor polls this token between
  /// kStopCheckStride-object sub-chunks of its parallel loop and resolves
  /// the run with Status::Cancelled once it trips, leaving the remaining
  /// objects unevaluated. The default token never stops. The QueryService
  /// links its per-ticket source below a caller-supplied token, so both
  /// QueryTicket::Cancel() and the caller's own source can stop the run.
  util::CancellationToken cancel;

  /// Absolute deadline; past it the executor stops at the next cooperative
  /// check and resolves with Status::DeadlineExceeded (a request whose
  /// deadline has already passed at submission fails without evaluating
  /// anything, and an answer is never returned after the deadline).
  /// nullopt = no deadline.
  std::optional<std::chrono::steady_clock::time_point> deadline;

  /// Per-query stage trace. When set, the executor (and, above it, the
  /// QueryService) records steady_clock-stamped spans for every pipeline
  /// stage this request passes through; null requests pay nothing beyond
  /// a pointer check. The QueryService attaches one automatically to every
  /// ObsOptions::trace_sample_every-th submission; callers may attach
  /// their own to trace a specific request end to end. Shared: a scattered
  /// request's sub-requests all append to the same trace.
  std::shared_ptr<obs::QueryTrace> trace;

  /// Degradation directive (resilience layer; see DegradeMode).
  DegradeMode degrade = DegradeMode::kNever;

  /// Retry budget for transient sub-request failures (service only; the
  /// executor never retries). Default: no retries.
  RetryPolicy retry;
};

/// \brief Execution telemetry of one member request of
/// QueryExecutor::RunBatch (a Run is a batch of one). Kept whether the
/// member answers, fails or stops; cache counters are attributed to the
/// first successfully answered member of each batch group to avoid
/// double counting.
struct ExecStats {
  /// Chain classes evaluated with the object-based plan.
  uint32_t chains_object_based = 0;
  /// Chain classes evaluated with the query-based plan.
  uint32_t chains_query_based = 0;
  /// Objects answered by the single-observation engines. Counted as the
  /// parallel loop answers them, so a run stopped mid-flight by a
  /// cancellation or deadline reports only the objects it actually
  /// evaluated (observable via QueryExecutor::last_run_stats()).
  uint32_t objects_evaluated = 0;
  /// Multi-observation objects answered by Section VI, by either path:
  /// α · head or the doubled-state engine (counted as answered, like
  /// objects_evaluated; the evaluate trace span splits the two).
  uint32_t objects_multi_observation = 0;
  /// Worker threads the executor's pool had available for this run.
  unsigned threads_used = 1;
  /// Engine-cache hits/misses of the group's lookups, reported on the
  /// group's first successfully answered member only; other members read
  /// 0. Evictions are not attributed to requests at all: passes are
  /// admitted after every member is answered, so they show only in the
  /// executor-level cache_stats() (and ServiceStats.cache).
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  /// Stale-epoch cache entries this run's lookups dropped (the lazy
  /// per-chain invalidation of the ingest path). Batch attribution
  /// follows cache_hits/cache_misses.
  uint64_t cache_invalidations = 0;
  /// Backward passes this run obtained by extending a cached
  /// shifted-window base instead of a cold rebuild (standing-query
  /// window slides). Batch attribution follows cache_hits/cache_misses.
  uint64_t cache_shift_extends = 0;
  /// Requests sharing this request's RunBatch group — every member of a
  /// group reuses the same per-chain engines, so a group of size g pays
  /// one backward pass where g separate runs on a cold cache pay g. 1 for
  /// a plain Run; 0 only for a request that never joined a group
  /// (rejected filter, stopped before execution, degraded answer).
  uint32_t batch_group_members = 0;
  /// Object-range subtasks this request's evaluation was split into by the
  /// intra-group batch scheduler (the parallel unit of RunBatch's
  /// execution phase; splitting never changes results, every object's
  /// output is written independently). Zero for a member stopped before
  /// evaluating anything; a member with objects — a plain Run included —
  /// reports >= 1 even on a single-threaded executor, where the subtasks
  /// simply run in order on one worker.
  uint32_t group_subtasks = 0;
  /// τ-pruning counters (threshold predicates only).
  PruneStats prune;
};

/// One failed sub-request of a partial scatter-gather answer.
struct ShardError {
  uint32_t shard = 0;
  util::StatusCode code = util::StatusCode::kUnavailable;
  std::string message;
};

/// One object a degraded (bounds-only) run could not decide: its window
/// probability is somewhere in [lo, hi]. lo = 0 and hi = 1 when no bound
/// applies (multi-observation object, unbounded predicate/window).
struct ObjectInterval {
  ObjectId id = 0;
  double lo = 0.0;
  double hi = 1.0;

  bool operator==(const ObjectInterval&) const = default;
};

/// \brief The answer to one QueryRequest.
///
/// kExists / kForAll / kThresholdExists / kTopKExists fill `probabilities`
/// (ordering per predicate: request order, request order, ascending id,
/// descending probability). kKTimes fills `distributions` in request order.
///
/// Resilience annotations (see docs/RESILIENCE.md): `partial` marks a
/// scatter-gather answer missing >= 1 shard (per-shard detail in
/// `shard_errors`, the unanswered object ids in `missing_objects`; the
/// ticket still resolves OK and is classified kPartial by the service).
/// `degraded_bounds` marks a bounds-only threshold answer: entries in
/// `probabilities` are certainly above τ (reported probability = their
/// lower bound), absent objects are certainly below, and `undecided`
/// lists the borderline objects with their [lo, hi] intervals. A result
/// without these flags is a full-precision answer — degraded or partial
/// answers are never returned unlabeled.
struct QueryResult {
  std::vector<ObjectProbability> probabilities;
  std::vector<ObjectKTimes> distributions;
  ExecStats stats;

  bool partial = false;
  bool degraded_bounds = false;
  std::vector<ShardError> shard_errors;
  std::vector<ObjectId> missing_objects;
  std::vector<ObjectInterval> undecided;

  /// Data epoch this answer was computed against: the executor stamps
  /// its database's data_version() at run start; scatter-gather merges
  /// take the max over answering shards (shards share one global
  /// version sequence). 0 = a frozen, never-mutated database. A partial
  /// answer thereby names the newest epoch it reflects even when some
  /// shards failed.
  DataVersion epoch = 0;
};

}  // namespace core
}  // namespace ustdb

#endif  // USTDB_CORE_QUERY_REQUEST_H_
