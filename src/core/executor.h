// Copyright 2026 the ustdb authors.
//
// QueryExecutor — the single execution pipeline behind every query entry
// point. RunBatch() evaluates any mix of predicates (∃ / ∀ / k-times /
// threshold-τ / top-k) with:
//
//   * cost-based plan selection per chain class (QueryPlanner),
//   * object-level parallelism on a persistent thread pool,
//   * an LRU cache of query-based backward passes (EngineCache) that turns
//     repeated monitoring windows into pure dot products,
//   * τ-early-termination on object-based threshold runs,
//   * Section V-C cluster pruning as a first-class plan: threshold
//     requests may bound whole chain clusters with cached interval
//     envelopes and refine only the undecided objects (kBoundsThenRefine,
//     chosen cost-based or forced),
//   * Section VI multi-observation objects answered by one dot product
//     α(t_begin) · head when all their observations precede the window
//     (the head is the backward pass's vector at the window's first
//     time), and by the doubled-state engine otherwise.
//
// Requests are grouped by effective window, each group shares one
// backward pass (and one engine of every other kind it needs) across all
// of its members, and groups execute in parallel on the pool.
// The amortization the paper's query-based plan promises across *objects*
// thus extends across *requests*. Run() is a RunBatch() of one member:
// there is one path to plan, cache, trace and fault-inject.

#ifndef USTDB_CORE_EXECUTOR_H_
#define USTDB_CORE_EXECUTOR_H_

#include <map>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "core/database.h"
#include "core/engine_cache.h"
#include "core/planner.h"
#include "core/query_request.h"
#include "obs/metrics.h"
#include "util/parallel_for.h"
#include "util/result.h"

namespace ustdb {
namespace core {

/// Configuration of one executor instance.
struct ExecutorOptions {
  /// Worker threads for per-object evaluation; 0 = one per hardware
  /// context, 1 = fully sequential (no threads spawned — bit-identical to
  /// any other thread count, since per-object arithmetic is independent
  /// either way).
  unsigned num_threads = 0;
  /// Capacity of the query-based engine cache. Sized for the number of
  /// distinct (chain, window) pairs a monitoring deployment keeps hot.
  size_t cache_capacity = 32;
  /// Observability wiring: with obs.enabled the executor times its stages
  /// and registers a collector with obs.registry that exports them with
  /// its run totals and cache_stats(), labeled with obs.labels (e.g. the
  /// owning service's shard). Disabled: no collector is registered and no
  /// extra clock is read. Requests carrying a QueryTrace get executor
  /// spans either way.
  obs::ObsOptions obs;
};

/// \brief kInvalidArgument unless `window` is over `chain`'s state space:
/// every engine requires window.region().domain_size() ==
/// chain.num_states(), and asserts it only in debug builds. The executor
/// and the service's admission apply it to every chain a request
/// evaluates, before any engine runs.
util::Status CheckWindowDomain(const QueryWindow& window,
                               const markov::MarkovChain& chain);

/// \brief Plans and executes QueryRequests over one Database.
///
/// Owns the thread pool and the engine cache; create one executor per
/// serving thread and reuse it across queries so cached backward passes
/// amortize. Not internally synchronized: Run() and RunBatch() must not
/// be called concurrently on the same instance, and the Database must not
/// be mutated while a run is in flight (the service layer serializes
/// ingest against dispatch with a per-shard lock). The Database must
/// outlive the executor. Between runs, Database::AppendObservation is
/// safe without ClearCache(): every cache entry is tagged with the epoch
/// of the data it derives from, and a lookup at a newer epoch lazily
/// drops exactly the stale entry (EngineCacheStats::invalidations) —
/// untouched chains keep their passes. ClearCache() remains for chain
/// replacement, which reuses chain storage addresses.
class QueryExecutor {
 public:
  /// \param db the database to serve; must outlive the executor.
  /// \param options thread-pool size and engine-cache capacity.
  explicit QueryExecutor(const Database* db, ExecutorOptions options = {});

  /// The registered collector holds `this`.
  QueryExecutor(const QueryExecutor&) = delete;
  QueryExecutor& operator=(const QueryExecutor&) = delete;

  ~QueryExecutor();

  /// \brief Evaluates `request`: the single result of RunBatch() over that
  /// one request, so every rule below applies to it. See QueryResult for
  /// per-predicate output conventions. Fails with kInvalidArgument on
  /// out-of-range filter ids or a window over another state count than a
  /// chain the request evaluates (CheckWindowDomain), and with
  /// kUnimplemented for PSTkQ over multi-observation objects (outside the
  /// paper's framework). Its stats
  /// report batch_group_members == 1 and, once it evaluated any object,
  /// group_subtasks >= 1.
  ///
  /// Cooperative stops: evaluation polls request.cancel and checks
  /// request.deadline before every kStopCheckStride-object subtask (the
  /// bound pass, before every cluster); a tripped token resolves the run
  /// with Status::Cancelled, a passed deadline with
  /// Status::DeadlineExceeded, in both cases leaving the remaining objects
  /// unevaluated (last_run_stats() shows the partial progress).
  ///
  /// Complexity per chain class: one pass is O(t_end × nnz); the
  /// object-based plan pays one pass per object, the query-based plan one
  /// pass per chain plus one sparse dot product per object (zero passes
  /// when the engine cache holds the window). Objects run in parallel on
  /// the executor's pool; results are bit-identical across thread counts.
  util::Result<QueryResult> Run(const QueryRequest& request);

  /// \brief Evaluates a batch of requests, amortizing shared work, and
  /// returns one result per request in request order.
  ///
  /// Requests are grouped by effective window — the complemented region
  /// for PST∀Q members, so a ∀-request never shares a backward pass with
  /// an ∃-request on the same region. Each group builds at most one engine
  /// per (chain, kind): one query-based backward pass serves every member
  /// that evaluates the chain query-based, one object-based engine every
  /// forward member, one k-times engine every PSTkQ member. Plan choice is
  /// made once per (group, chain) by QueryPlanner::PlanBatch, whose cost
  /// model amortizes the backward pass over the whole group; requests that
  /// pin `plan` keep their pinned plan.
  ///
  /// Parallelism is two-phase. First every missing engine — above all the
  /// expensive query-based backward passes — is built, one pool task per
  /// (group, chain) build. Then evaluation: where some member evaluates
  /// the whole database and resolves a chain query-based, the group
  /// computes each of the chain's objects' P∃ once (the group pass) and
  /// every member resolving that chain query-based reads it; then the
  /// per-object evaluation of *all* members of *all* groups is flattened
  /// into object-range subtasks of util::kStopCheckStride objects each
  /// and spread across the pool, so a batch concentrated on a single
  /// window (one group) still saturates every worker instead of one.
  /// Members are evaluated in waves whose combined object count is
  /// bounded, so scratch peaks at the wave budget rather than
  /// O(batch × objects). Each subtask re-checks its member's cancellation
  /// token and deadline before running, and each group-pass task stops
  /// once every member reading it has stopped;
  /// ExecStats::group_subtasks reports the splits taken per member. Cached
  /// backward passes are borrowed with EngineCache::Lookup(), which never
  /// evicts, and newly built ones are admitted only after evaluation, so
  /// no borrowed pass can be evicted mid-run, and repeated refreshes of
  /// the same dashboard hit a warm cache. A member whose deadline passes
  /// before the batch returns (admission may stall) resolves
  /// DeadlineExceeded: no answer is returned after its deadline.
  ///
  /// Each member's result is the same as a Run() of that request alone —
  /// bit-identical whenever both pick the same plan (always true for
  /// pinned plans; for kAuto the batch cost model may upgrade an
  /// object-based chain to the shared query-based pass, which changes the
  /// result only within floating-point rounding of the same exact value).
  /// Failures are per member: one invalid request does not poison the
  /// batch. Every member's ExecStats is kept whatever its outcome: it is
  /// the answered member's QueryResult::stats, is added to the run totals
  /// the metrics collector exports, and (for the last member) becomes
  /// last_run_stats(). An empty span yields an empty vector.
  ///
  /// Fault boundary: a FaultInjectedError or std::bad_alloc escaping the
  /// controlling thread (engine build, cache admission) is caught here and
  /// fails every member with kUnavailable — transient and retryable,
  /// never a crash. Requests with degrade == kBoundsOnly answer from the
  /// Section V-C interval bounds alone (see DegradeMode).
  std::vector<util::Result<QueryResult>> RunBatch(
      std::span<const QueryRequest> requests);

  /// \brief Cumulative engine-cache statistics as of the end of the most
  /// recent run (the cache changes only inside one). Safe from any
  /// thread, also while a run is in flight.
  EngineCacheStats cache_stats() const;

  /// \brief Telemetry of the most recent Run(), including runs that failed
  /// or were stopped mid-flight — whose Result carries no QueryResult to
  /// hold stats. A cancelled run's objects_evaluated counts only the
  /// objects answered before the stop (and its prune counters only the
  /// clusters bounded before it), so a caller can prove the loop quit
  /// early by comparing against an uncancelled twin. After a multi-member
  /// RunBatch it holds the last member's stats; answered members also
  /// report through their own QueryResult::stats.
  ///
  /// Thread contract: `last_stats_` is plain data written by RunBatch()
  /// with no synchronization — valid only from the Run-calling thread,
  /// after Run returns. Reading it while another thread is inside Run() is
  /// a data race; concurrent observers get the run totals race-free from
  /// the metrics the executor exports.
  const ExecStats& last_run_stats() const { return last_stats_; }

  /// Drops every cached engine. Not needed after AppendObservation
  /// (epoch tags invalidate lazily, per chain); required only when chain
  /// storage itself is replaced.
  void ClearCache() { cache_.Clear(); }

  /// The planner whose cost model drives OB/QB selection.
  const QueryPlanner& planner() const { return planner_; }
  /// The database this executor serves.
  const Database& db() const { return *db_; }

  /// Worker threads available to this executor (>= 1).
  unsigned num_threads() const { return threads_; }

 private:
  struct ChainPlan;   // per-group, per-chain engine bundle
  struct BatchGroup;  // requests sharing one effective window
  class Selection;    // non-allocating view of the ids a request evaluates
  struct ExistsEval;  // shared stop/error/counter state of one evaluation
  struct KTimesEval;  // ditto for the k-times evaluation loop

  /// α(t_b) per (object, t_b): the filtered distribution of every
  /// multi-observation object whose observations all lie at or before a
  /// batch window's first time t_b, or the status of the observation that
  /// rules out every world. Built once per batch, read by every member.
  using FilteredStates =
      std::map<std::pair<ObjectId, Timestamp>,
               util::Result<sparse::ProbVector>>;

  /// ExecStats counters summed over every member of every run (answered,
  /// failed or stopped), and the cache's counters after the latest run.
  struct RunTotals {
    uint64_t runs = 0;
    uint64_t chains_object_based = 0;
    uint64_t chains_query_based = 0;
    uint64_t objects_evaluated = 0;
    uint64_t objects_multi_observation = 0;
    uint64_t clusters_bounded = 0;
    uint64_t clusters_pruned = 0;
    uint64_t clusters_refined = 0;
    uint64_t objects_decided_by_bounds = 0;
    uint64_t objects_refined = 0;
    uint64_t objects_decided_early = 0;
    uint64_t bound_fallbacks = 0;
    EngineCacheStats cache;
  };

  /// The registered metrics collector: every series, read as of now.
  void CollectMetrics(obs::MetricsWriter* out) const;

  /// The admission check of every member: filter ids in range, and the
  /// window over the state space of every chain the request evaluates —
  /// each chain holding objects without a filter (O(chains)), each
  /// filtered object's chain with one (O(filter)).
  util::Status ValidateRequest(const QueryRequest& request) const;

  /// RunBatch body; the public wrapper adds the fault boundary and the one
  /// use of `stats` (one entry per request, filled whatever the member's
  /// outcome) in results, run totals and last_run_stats().
  std::vector<util::Result<QueryResult>> RunBatchImpl(
      std::span<const QueryRequest> requests, std::vector<ExecStats>* stats);

  /// \brief Bounds-only degraded answer (degrade == kBoundsOnly): decides
  /// kThresholdExists objects from the cluster interval bounds alone —
  /// certainly-in objects (lower bound clears τ) are returned with their
  /// lower bound, certainly-out objects dropped, the borderline reported
  /// in QueryResult::undecided. Objects (or whole requests) the bound
  /// pass cannot reach are undecided over [0, 1]. Never refines, so the
  /// cost is one cached envelope sweep per cluster. Prune counters go to
  /// `stats`, partial ones included when the request stops mid-pass.
  util::Result<QueryResult> RunDegradedBounds(const QueryRequest& request,
                                              const Selection& ids,
                                              ExecStats* stats);

  /// \brief Splits a selection for the bound pass: single-observation
  /// objects (observed at t=0) are bucketed by registry cluster, every
  /// other object — outside the t=0 bound pass's reach — goes straight to
  /// `refine`. Shared by the refining and the degraded bound passes so the
  /// partition rule cannot drift between the two.
  void PartitionByCluster(
      const Selection& ids,
      std::map<uint32_t, std::vector<ObjectId>>* cluster_objects,
      std::vector<ObjectId>* refine) const;

  /// \brief The one cluster-bound fetch: the cached bound pass of cluster
  /// `cluster_index` over `window`, else one computed from the cluster's
  /// cached (or freshly built) interval envelope and admitted. A cache
  /// hit is returned as stored, whatever `with_lower` says: an upper-only
  /// pass then reads lo = 0, which is sound for every caller.
  util::Result<const std::vector<markov::ProbBound>*> ClusterBounds(
      uint32_t cluster_index, const QueryWindow& window, bool with_lower);

  /// \brief The bound → decide step of kBoundsThenRefine: for every
  /// (cluster index → evaluated object ids) entry, fetches the cluster's
  /// upper-only bound pass, drops objects whose exists upper bound is
  /// below request.tau, and appends the rest to `refine`. Polls the
  /// request's cancellation token and deadline between clusters and
  /// returns the stop status (with `prune` reflecting the clusters bounded
  /// so far).
  util::Status BoundClusters(
      const QueryRequest& request, const QueryWindow& window,
      const std::map<uint32_t, std::vector<ObjectId>>& cluster_objects,
      std::vector<ObjectId>* refine, PruneStats* prune);

  // Per-object evaluation cores, driven by RunBatch's flat subtask
  // scheduler: evaluate objects [begin, end) of `ids` (thread-safe across
  // disjoint ranges, results written independently per object). An
  // exists member reads the group pass's value for every object of a
  // chain the pass covers and it resolves query-based.
  void EvaluateExistsRange(const QueryRequest& request,
                           const BatchGroup& group, const Selection& ids,
                           const FilteredStates& filtered, size_t begin,
                           size_t end, std::vector<double>* probs,
                           std::vector<uint8_t>* keep, ExistsEval* ev);
  void EvaluateKTimesRange(const Selection& ids,
                           const std::vector<ChainPlan>& plans,
                           size_t begin, size_t end,
                           std::vector<ObjectKTimes>* distributions,
                           KTimesEval* ev);
  static void AssembleExistsResult(const QueryRequest& request,
                                   const Selection& ids,
                                   const std::vector<double>& probs,
                                   const std::vector<uint8_t>& keep,
                                   QueryResult* result);

  const Database* db_;
  ExecutorOptions options_;
  unsigned threads_;
  QueryPlanner planner_;
  EngineCache cache_;
  util::ThreadPool pool_;
  ExecStats last_stats_;
  /// Shard of executor-side trace spans: the "shard" label, else -1.
  int32_t trace_shard_ = -1;

  /// Stage durations, observed only with options_.obs.enabled.
  obs::Histogram stage_plan_;
  obs::Histogram stage_bound_;
  obs::Histogram stage_build_;
  obs::Histogram stage_evaluate_;

  mutable std::mutex totals_mu_;  // guards totals_; updated once per run
  RunTotals totals_;
};

}  // namespace core
}  // namespace ustdb

#endif  // USTDB_CORE_EXECUTOR_H_
