// Copyright 2026 the ustdb authors.
//
// QueryService — the asynchronous admission layer in front of the
// executor tier. Callers Submit() a QueryRequest and immediately get a
// QueryTicket (a future for the Result); per-shard dispatcher threads
// drain bounded two-lane submission queues and hand whole drains to
// QueryExecutor::RunBatch, so compatible requests that happen to be
// queued together automatically coalesce into shared-backward-pass
// groups — a bursty dashboard refresh pays one pass per (window, chain)
// without any caller-side batching.
//
// The service serves a ShardedDatabase and is a router: one QueryExecutor
// per shard (own EngineCache, own worker slice), each fed by its own
// two-lane queue and dispatcher. A request touching a single shard
// routes to that shard's lane; a request spanning shards scatters one
// sub-request per target shard and gathers — position/heap/sort merges
// per predicate, ExecStats summed — with results bit-identical to the
// single-executor pipeline (global ids, global plan decisions; see
// Submit()). A one-shard ShardedDatabase is the single-executor service.
//
// The service owns the request lifecycle the bare executor does not:
// backpressure (reject-when-full or block), a priority lane for
// interactive traffic ahead of bulk jobs, per-request deadlines,
// cancellation that reaches into the executor's parallel loop mid-flight,
// drain-on-shutdown, and latency/coalescing telemetry (ServiceStats).
//
// Constructed over a MUTABLE database, the service additionally serves as
// the ingest front door (AppendObservation routes to the owning shard,
// serialized against that shard's dispatch only) and as the subscription
// layer for standing queries: Subscribe() registers a QueryRequest with a
// WindowPolicy, ingest and window ticks mark affected subscriptions
// dirty, and RefreshSubscriptions() flushes every dirty subscription
// through ONE SubmitBurst — so a refresh round coalesces into the fewest
// RunBatch dispatches and sliding windows hit the engine cache's
// shift-extension path — delivering answer-set deltas (entered / left /
// changed) with monotonic sequence numbers.

#ifndef USTDB_SERVICE_QUERY_SERVICE_H_
#define USTDB_SERVICE_QUERY_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "core/engine_cache.h"
#include "core/executor.h"
#include "core/query_request.h"
#include "core/shard_router.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/resilience.h"
#include "util/result.h"

namespace ustdb {
namespace service {

/// Which submission lane a request joins. Every dispatch serves the
/// kInteractive lane whenever it has work — kBulk drains only when no
/// interactive request is queued, and coalescing never crosses lanes, so
/// dashboard widgets neither queue behind a bulk re-scoring job nor share
/// a dispatch with one. On a sharded service the two lanes exist per
/// shard, with the same precedence on every dispatcher.
enum class Priority {
  kInteractive = 0,  ///< latency-sensitive traffic (dashboards, alerts)
  kBulk = 1,         ///< throughput traffic (backfills, re-scoring)
};

/// What Submit() does when a chosen lane is at capacity. A scattered
/// request is admitted all-or-nothing: every target shard's lane must
/// have a slot, otherwise the whole request rejects (or blocks until all
/// of them do) — partial fan-outs never enter the queues.
enum class BackpressurePolicy {
  /// Resolve the ticket immediately with Status::Unavailable. The default:
  /// a serving layer should shed load, not buffer unboundedly.
  kReject,
  /// Block the submitting thread until the dispatcher frees a slot (or the
  /// service shuts down, which rejects the waiting submission).
  kBlock,
};

/// Configuration of one QueryService instance.
struct ServiceOptions {
  /// Capacity of each priority lane (>= 1 enforced), per shard; the bound
  /// that makes backpressure meaningful.
  size_t queue_capacity = 256;
  /// Behavior when a lane is full.
  BackpressurePolicy backpressure = BackpressurePolicy::kReject;
  /// Most requests one dispatch may drain into one RunBatch (>= 1
  /// enforced); 1 is strict one-request-at-a-time dispatch, the
  /// uncoalesced baseline the service benchmark compares against.
  size_t max_batch = 64;
  /// Forwarded to each service-owned QueryExecutor. On a sharded service
  /// num_threads is the TOTAL worker budget: it is resolved (0 = one per
  /// hardware context) and divided evenly across the shard executors, at
  /// least one worker each.
  core::ExecutorOptions executor;
  /// Observability knobs: which MetricsRegistry collects the service's
  /// metrics (and, with a {"shard": "<s>"} label stamped on, each shard
  /// executor's), the QueryTrace sampling rate, and the slow-query ring
  /// capacity. With enabled=false the service registers no collector,
  /// reads no extra clocks, samples no traces, and keeps no slow-query
  /// ring — the overhead contract bench_service_throughput --tracing
  /// gates. This field overrides whatever `executor.obs` carries, so the
  /// shard label is always stamped consistently.
  obs::ObsOptions obs;
  /// Health state machine thresholds for the per-shard trackers (failure
  /// counts, probe backoff, dispatcher watchdog). See docs/RESILIENCE.md.
  HealthPolicy health;
  /// Admission-control thresholds; disabled by default, in which case the
  /// service sheds nothing and behaves exactly as before this layer.
  OverloadPolicy overload;
  /// Allow a scattered request to resolve with a flagged partial answer
  /// (QueryResult::partial + shard_errors + missing_objects) when some —
  /// but not all — target shards fail transiently or sit in quarantine.
  /// With false every sub failure fails the whole parent, exactly the
  /// pre-resilience behavior.
  bool partial_results = true;
};

/// Snapshot of the service's counters. Counts are cumulative since
/// construction; queue_depth is sampled at the stats() call; latency
/// percentiles cover the most recent completed requests (bounded
/// per-shard reservoirs, so a long-lived service reports recent behavior,
/// not its whole history).
///
/// Snapshot consistency model (what stats() guarantees under concurrent
/// Submit/dispatch): every counter field below is mutated and read under
/// one service-wide stats mutex, so a snapshot's counter fields are
/// mutually consistent — e.g. completed + failed + cancelled +
/// deadline_expired + rejected never exceeds submitted, and the cache /
/// latency aggregates come from the same locked read. queue_depth and
/// queue_peak are sampled under the separate queue mutex an instant
/// apart, so they can lag the counters by in-flight requests but are
/// never torn. These counters have no other store: the metrics registry
/// reads them at snapshot time (see obs/metrics.h).
struct ServiceStats {
  uint64_t submitted = 0;         ///< tickets handed out
  uint64_t completed = 0;         ///< resolved OK
  uint64_t failed = 0;            ///< resolved with a non-stop error
  uint64_t cancelled = 0;         ///< resolved Status::Cancelled
  uint64_t deadline_expired = 0;  ///< resolved Status::DeadlineExceeded
  uint64_t rejected = 0;          ///< resolved Status::Unavailable
  /// Dispatches that coalesced >= 2 queued entries into one RunBatch, and
  /// the total entries those dispatches carried. Counted per shard
  /// dispatcher; on a sharded service one scattered request can appear in
  /// several dispatches (one per target shard). coalesced_requests /
  /// completed is the coalesce rate a capacity model needs.
  uint64_t coalesced_batches = 0;
  uint64_t coalesced_requests = 0;
  /// Dispatches that carried exactly one queued entry.
  uint64_t solo_dispatches = 0;
  /// Requests the router scattered across >= 2 shard lanes, and the total
  /// per-shard sub-requests those scatters enqueued. Always 0 on a
  /// one-shard service.
  uint64_t scatter_requests = 0;
  uint64_t scatter_subtasks = 0;
  /// Sum of ExecStats::group_subtasks over completed requests: how many
  /// object-range subtasks the executor's intra-group batch scheduler
  /// split coalesced work into. A high ratio of group_subtasks to
  /// completed means large same-window groups are being spread across the
  /// pool rather than serialized on one worker.
  uint64_t group_subtasks = 0;
  /// Section V-C bound-pass totals over completed requests (see
  /// PruneStats): clusters whose interval bound pass ran, clusters whose
  /// objects were all dropped by it, and clusters that needed per-object
  /// refinement. clusters_pruned / clusters_bounded is the wholesale-prune
  /// rate of the serving mix. Shard co-location keeps every cluster's
  /// bound pass on one executor, so the sharded sums equal the unsharded
  /// ones.
  uint64_t clusters_bounded = 0;
  uint64_t clusters_pruned = 0;
  uint64_t clusters_refined = 0;
  /// Resilience counters. Partial/degraded requests are ALSO counted in
  /// `completed` (their tickets resolve OK, flagged on the QueryResult),
  /// so the snapshot invariant completed + failed + cancelled +
  /// deadline_expired + rejected <= submitted still holds.
  uint64_t shed_bulk = 0;         ///< bulk submissions shed by overload
  uint64_t shed_interactive = 0;  ///< interactive submissions shed
  uint64_t retries = 0;           ///< sub-request retry attempts scheduled
  uint64_t partial = 0;           ///< requests resolved with partial=true
  uint64_t degraded = 0;          ///< requests answered bounds-only
  uint64_t quarantines = 0;       ///< kHealthy/kDegraded -> kQuarantined
  uint64_t probes = 0;            ///< probe sub-requests admitted
  uint64_t watchdog_trips = 0;    ///< dispatcher-stall quarantines
  /// Continuous-query counters: observations applied through
  /// AppendObservation, appends rejected (validation or injected fault),
  /// refresh rounds that ran >= 1 standing query, and deltas delivered to
  /// subscription callbacks (empty deltas are counted too — a delivered
  /// sequence number is a delivery).
  uint64_t ingested = 0;
  uint64_t ingest_rejected = 0;
  uint64_t subscription_refreshes = 0;
  uint64_t subscription_deltas = 0;
  /// Registered, not-yet-cancelled subscriptions at the stats() call.
  size_t subscriptions_active = 0;
  size_t queue_depth = 0;  ///< queued entries across all lanes and shards
  size_t queue_peak = 0;   ///< high-water mark of queue_depth
  /// Completed-request latency percentiles, computed over the MERGED
  /// per-shard reservoirs — one pooled sample, never an average of
  /// per-shard percentiles (averaging would let one skewed shard's tail
  /// vanish into the others' medians).
  double latency_p50_ms = 0.0;  ///< median completed-request latency
  double latency_p99_ms = 0.0;  ///< tail completed-request latency
  /// Engine-cache counters summed over every shard executor (hits,
  /// misses, evictions, stale-epoch invalidations, shift-extension
  /// reuses), as of each executor's most recent run (cache_stats()).
  core::EngineCacheStats cache;
};

/// How a standing query's window advances and when it refreshes.
struct WindowPolicy {
  /// Timestamps the window slides forward per TickWindows(1) unit. The
  /// default 1 is the classic sliding window; 0 pins the window (the
  /// subscription then refreshes on ingest only).
  Timestamp slide = 1;
  /// Mark the subscription dirty when an appended observation can affect
  /// its answer (its object_filter contains the object, or it has no
  /// filter). With false only window ticks dirty it.
  bool refresh_on_ingest = true;
};

/// \brief One delivered update of a standing query: the difference
/// between this refresh's answer set and the previously delivered one.
/// `entered` lists objects newly in the answer (with their current
/// probabilities), `left` lists objects that dropped out, `changed`
/// lists objects that stayed but whose probability changed. The first
/// delivery of a subscription reports the full answer as `entered`.
struct SubscriptionDelta {
  uint64_t subscription_id = 0;
  /// Monotonic per subscription, starting at 1; a failed refresh round
  /// never consumes a sequence number, so callbacks can detect loss-free
  /// delivery by checking consecutiveness.
  uint64_t sequence = 0;
  /// Data epoch the answer reflects (QueryResult::epoch of the refresh).
  DataVersion epoch = 0;
  std::vector<core::ObjectProbability> entered;
  std::vector<core::ObjectProbability> changed;
  std::vector<ObjectId> left;
  /// The refresh resolved with a partial scatter-gather answer (some
  /// shards failed); the delta covers only the answering shards.
  bool partial = false;
};

/// Invoked on the RefreshSubscriptions() caller's thread, one delta per
/// refreshed subscription. Must not call back into the service.
using SubscriptionCallback = std::function<void(const SubscriptionDelta&)>;

/// \brief One retained record of the slow-query ring: the N slowest
/// requests that carried a QueryTrace (sampled or caller-attached),
/// with their full span breakdowns. Retrieved via
/// QueryService::slow_queries(); capacity set by
/// ObsOptions::slow_query_ring.
struct SlowQuery {
  double latency_ms = 0.0;  ///< end-to-end submit-to-resolve latency
  core::PredicateKind predicate = core::PredicateKind::kExists;
  Priority priority = Priority::kInteractive;
  /// Status code the ticket resolved with (kOk for answered requests;
  /// slow cancellations and deadline expiries are retained too — they
  /// are exactly the requests worth explaining).
  util::StatusCode code = util::StatusCode::kOk;
  /// The trace's spans, sorted by begin time (see obs::QueryTrace).
  std::vector<obs::TraceSpan> spans;
  /// Resilience annotations: sub-request retries this ticket consumed,
  /// whether it resolved with a subset of shards, and whether it was
  /// answered from interval bounds alone.
  uint32_t retries = 0;
  bool partial = false;
  bool degraded = false;
};

namespace internal {
struct TicketState;
struct GatherState;
struct SubscriptionState;

/// p50/p99 read off one pooled latency sample.
struct LatencyPercentiles {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

/// \brief Merges per-shard latency reservoirs into one pooled sample and
/// reads the percentiles off the sorted pool. This is the only correct
/// merge: percentiles do not compose, so averaging per-shard p50/p99
/// (the tempting shortcut) misreports any service whose shards see
/// skewed distributions — a slow shard's tail dilutes into the fast
/// shards' medians. Empty reservoirs contribute nothing; an all-empty
/// input yields zeros.
LatencyPercentiles MergeLatencyPercentiles(
    const std::vector<std::vector<double>>& reservoirs);
}  // namespace internal

/// \brief Caller-side handle for one submitted request: a one-shot future
/// for the Result plus the cancellation trigger. Cheap to move and copy
/// (copies share the same underlying request).
class QueryTicket {
 public:
  /// An invalid ticket; Get() fails with kFailedPrecondition.
  QueryTicket() = default;

  /// True when connected to a submitted request.
  bool valid() const { return state_ != nullptr; }

  /// \brief Requests cancellation. If the request is still queued it
  /// resolves with Status::Cancelled without executing; if it is
  /// mid-flight the executor's loop stops at its next cooperative check.
  /// On a scattered request the trigger reaches every shard's sub-run.
  /// Idempotent; a request that already finished is unaffected.
  void Cancel();

  /// True once the request has resolved (non-blocking).
  bool resolved() const;

  /// Blocks until resolved or `timeout` elapses; true when resolved.
  bool WaitFor(std::chrono::milliseconds timeout) const;

  /// \brief Blocks until the request resolves and moves the Result out.
  /// One-shot: a second Get() (from any copy of the ticket) fails with
  /// kFailedPrecondition.
  util::Result<core::QueryResult> Get();

 private:
  friend class QueryService;
  explicit QueryTicket(std::shared_ptr<internal::TicketState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<internal::TicketState> state_;
};

/// \brief Caller-side handle for one standing query. Cheap to copy
/// (copies share the subscription). Cancel() is the only mutation:
/// idempotent, takes effect before the next delivery — a refresh round
/// already in flight skips a subscription cancelled mid-round.
class Subscription {
 public:
  /// An invalid handle; id() is 0 and Cancel() is a no-op.
  Subscription() = default;

  bool valid() const { return state_ != nullptr; }

  /// Stable id (1-based) naming this subscription in deltas and metrics.
  uint64_t id() const;

  /// Stops future deliveries and releases the registry slot at the next
  /// refresh sweep. Idempotent, callable from any thread.
  void Cancel();
  bool cancelled() const;

  /// Sequence number of the last delivered delta (0 before the first).
  uint64_t last_sequence() const;

  /// \brief OK while the subscription is live (or cancelled). Once a
  /// refresh fails for a reason no retry cures (any code but kUnavailable
  /// and kInternal, e.g. kDeadlineExceeded for a passed deadline), the
  /// subscription is closed: it leaves the registry, is never submitted
  /// again, delivers no further delta, and this returns that failure.
  util::Status status() const;

 private:
  friend class QueryService;
  explicit Subscription(std::shared_ptr<internal::SubscriptionState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<internal::SubscriptionState> state_;
};

/// \brief Asynchronous query admission in front of one executor per
/// shard.
///
/// Thread-safe: any number of threads may Submit()/Cancel()/stats()
/// concurrently. Exactly one dispatcher thread talks to each shard's
/// executor, so the executor's no-concurrent-Run contract holds by
/// construction. Every ticket resolves exactly once — including under
/// Shutdown(), which stops admitting, drains the queues through the
/// executors, and only then joins the dispatchers. The ShardedDatabase
/// must outlive the service. Structural mutation (AddChain/AddObject)
/// while the service is running remains unsupported; AppendObservation
/// is the one serving-time mutation, and only through the service's own
/// ingest path (which serializes it against the owning shard's dispatch)
/// — it requires construction over a mutable database pointer.
class QueryService {
 public:
  /// \brief One executor + dispatcher + two-lane queue per shard of `db`
  /// (a one-shard database gives the single-executor service). Requests
  /// and results speak GLOBAL ids; the router translates to shard-local
  /// ids on the way in and back on the way out. Results are
  /// bit-identical to a QueryExecutor over the unsharded database: for
  /// kThresholdExists under kAuto the router makes the whole-request
  /// bounds-vs-per-chain decision once, globally, against
  /// db->routing_db(), and pins the outcome (kBoundsThenRefine or
  /// kAutoPerChain) on every sub-request, so no shard re-decides from a
  /// partial view.
  /// \param db the sharded database to serve; must outlive the service.
  /// \param options queue, backpressure, coalescing, and executor knobs.
  explicit QueryService(const core::ShardedDatabase* db,
                        ServiceOptions options = {});

  /// \brief Mutable-database overload: identical serving behavior, plus
  /// the ingest path (AppendObservation) is enabled. The const overload
  /// keeps ingest disabled (kFailedPrecondition), preserving the frozen
  /// snapshot guarantee for callers that rely on it.
  explicit QueryService(core::ShardedDatabase* db,
                        ServiceOptions options = {});

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Shuts down (draining queued requests) if Shutdown() was not called.
  ~QueryService();

  /// \brief Enqueues `request` and returns its ticket. The request's own
  /// cancel token (if any) is linked beneath the ticket's, so either can
  /// stop it. A request whose deadline has already passed resolves
  /// immediately with Status::DeadlineExceeded; a full lane either rejects
  /// (Status::Unavailable) or blocks, per BackpressurePolicy; after
  /// Shutdown() every submission resolves with Status::Unavailable. An
  /// object_filter referencing an id outside the database (the router
  /// cannot translate it), or a window over another state count than a
  /// chain the request evaluates, resolves with Status::InvalidArgument
  /// at submission.
  QueryTicket Submit(core::QueryRequest request,
                     Priority priority = Priority::kInteractive);

  /// \brief Enqueues a whole burst under one queue lock — the dispatchers
  /// observe all-or-nothing, so an idle (or paused) service coalesces the
  /// burst into the fewest possible RunBatch dispatches. To keep that
  /// atomicity (and to stay deadlock-free on a paused service), a burst
  /// never blocks: requests beyond a target lane's remaining capacity
  /// resolve with Status::Unavailable even under
  /// BackpressurePolicy::kBlock. Other per-request failure semantics
  /// match Submit().
  std::vector<QueryTicket> SubmitBurst(
      std::vector<core::QueryRequest> requests,
      Priority priority = Priority::kInteractive);

  /// \brief Appends an observation to object `id` (a global id),
  /// returning the DataVersion the mutation was stamped with. The
  /// serving-time ingest path: validation and epoch bookkeeping happen in
  /// ShardedDatabase::AppendObservation under the owning shard's ingest
  /// lock — only that shard's dispatch serializes against the append,
  /// every other shard keeps serving untouched. On success the affected
  /// standing subscriptions (WindowPolicy::refresh_on_ingest) are marked
  /// dirty for the next refresh round. Fails with kFailedPrecondition on
  /// a service constructed over a const database, kNotFound for an
  /// unknown object, kInvalidArgument for an out-of-order or
  /// duplicate-timestamp observation (the history is never corrupted),
  /// and kUnavailable after Shutdown() or under an injected `ingest`
  /// fault. An optional trace records the kIngest span.
  util::Result<DataVersion> AppendObservation(
      ObjectId id, core::Observation obs,
      const std::shared_ptr<obs::QueryTrace>& trace = nullptr);

  /// \brief Registers a standing query. Every refresh re-evaluates
  /// `request` (with its current window) through the normal submit
  /// pipeline — answers are bit-identical to a one-shot Submit() at the
  /// same epoch — and delivers the answer-set delta to `callback`.
  /// kKTimes requests are rejected (kInvalidArgument): distribution
  /// answers have no set-delta form. So is a request Submit() would
  /// refuse at routing (out-of-range filter id, window over another state
  /// count), which no refresh could ever answer; a rejected request
  /// registers nothing. The request's own trace/cancel fields are ignored;
  /// refresh sub-requests get service-sampled traces like any submission.
  util::Result<Subscription> Subscribe(core::QueryRequest request,
                                       WindowPolicy policy,
                                       SubscriptionCallback callback);

  /// \brief Advances every sliding subscription's window forward by
  /// `steps` x WindowPolicy::slide timestamps and marks it dirty. The
  /// caller owns the clock — the service runs no timer thread, so tests
  /// and replay drivers stay deterministic.
  void TickWindows(Timestamp steps = 1);

  /// \brief Runs one refresh round: flushes every dirty, live
  /// subscription through ONE SubmitBurst (coalescing into shared
  /// RunBatch groups), waits for the answers, and delivers deltas on the
  /// calling thread in subscription order. A subscription whose refresh
  /// fails transiently (kUnavailable or kInternal: backpressure
  /// rejection, quarantined shards with partial answers disabled, an
  /// injected fault) stays dirty and is retried next round; any other
  /// failure closes it (Subscription::status()). Either way its sequence
  /// number does not advance. Returns the number of deltas
  /// delivered. Rounds are serialized — concurrent callers queue behind
  /// one another.
  size_t RefreshSubscriptions();

  /// Registered, not-yet-cancelled subscriptions.
  size_t num_subscriptions() const;

  /// \brief Stops admitting, drains every queued request through the
  /// executors (cancelled/expired ones resolve without executing), then
  /// joins the dispatchers. Idempotent and safe to call concurrently.
  void Shutdown();

  /// Holds every dispatcher after its current drain; queued and newly
  /// submitted requests wait until Resume(), while requests whose subs
  /// all ran still merge and resolve. Shutdown() overrides a pause.
  void Pause();
  /// Releases a Pause().
  void Resume();

  /// Current counters; see ServiceStats for sampling semantics.
  ServiceStats stats() const;

  /// \brief The N slowest traced requests so far (descending latency),
  /// each with its full span breakdown — N is
  /// ObsOptions::slow_query_ring. Only requests that carried a
  /// QueryTrace (every trace_sample_every-th submission, plus any with
  /// a caller-attached trace) are candidates. Empty when observability
  /// is disabled or the ring capacity is 0. Thread-safe.
  std::vector<SlowQuery> slow_queries() const;

  /// Queued entries across all lanes and shards right now.
  size_t queue_depth() const;

  /// The executor options actually in effect (after sanitization).
  const ServiceOptions& options() const { return options_; }

  /// Shard executors this service runs.
  uint32_t num_shards() const {
    return static_cast<uint32_t>(shards_.size());
  }

  /// Current health of shard `shard`'s lane (see ShardHealth). Driven by
  /// dispatch outcomes: transient failures degrade then quarantine, any
  /// success recovers, a stalled dispatcher trips the watchdog straight
  /// to quarantine. Thread-safe, lock-free.
  ShardHealth shard_health(uint32_t shard) const;

 private:
  struct ShardTask;  // one queued sub-request (gather handle + index)
  struct ShardLane;  // executor + two-lane queue + dispatcher of a shard

  /// The admission path behind Submit (one request, `allow_block`) and
  /// SubmitBurst (never blocks): prepares a ticket per request, then
  /// decides each in a fixed order — shutdown, deadline, injected
  /// admission fault, routing error, health gate, shed/degrade, enqueue —
  /// with the whole set enqueued under one queue-lock hold, and resolves
  /// every refused request before returning.
  std::vector<QueryTicket> Admit(std::vector<core::QueryRequest> requests,
                                 Priority priority, bool allow_block);
  /// The admission check shared by BuildRoute and Subscribe: every
  /// object_filter id is in range, and the window is over the state space
  /// of every chain the request evaluates (core::CheckWindowDomain) —
  /// each chain holding objects without a filter (O(chains)), each
  /// filtered object's chain with one (O(filter)).
  util::Status ValidateRequest(const core::QueryRequest& request) const;
  /// Builds the gather (sub-requests, merge metadata, plan pinning) for
  /// one prepared parent. Returns non-OK — without touching any queue —
  /// when the request cannot be routed (ValidateRequest).
  util::Status BuildRoute(const std::shared_ptr<internal::TicketState>& state,
                          std::shared_ptr<internal::GatherState>* out) const;
  /// Appends every sub of `gather` to its target lane under `lock`,
  /// honoring capacity/backpressure all-or-nothing. Returns non-OK
  /// (enqueueing nothing) when the submission must be rejected. With
  /// `allow_block` (Submit under kBlock) it may release and reacquire
  /// `lock` while waiting for space on every target; bursts pass false
  /// so the whole burst stays under one uninterrupted hold.
  util::Status TryEnqueueLocked(
      const std::shared_ptr<internal::GatherState>& gather, Priority priority,
      std::unique_lock<std::mutex>* lock, bool allow_block);

  void DispatcherLoop(uint32_t shard);
  /// Executes one drained set on shard `shard`: resolves stale entries,
  /// runs the rest as one RunBatch (of one entry or many), completes
  /// every sub.
  void Dispatch(uint32_t shard, std::vector<ShardTask> taken);
  /// Records sub `sub_index`'s outcome; the last sub to land puts the
  /// gather on the ready list for any dispatcher to merge.
  void CompleteSub(const std::shared_ptr<internal::GatherState>& gather,
                   size_t sub_index, util::Result<core::QueryResult> outcome,
                   uint32_t shard);
  /// Merges ready gathers on shard `shard`'s dispatcher until the list is
  /// empty. Finding more than one waiting, it wakes the other dispatchers
  /// once, so they merge beside it.
  void RunMerges(uint32_t shard);
  /// Merges sub-results (translation, per-predicate merge, summed stats)
  /// into the parent outcome and resolves it.
  void MergeAndResolve(const std::shared_ptr<internal::GatherState>& gather,
                       uint32_t shard);
  /// Resolves `state` with `outcome`, classifying it into the stats
  /// counters and recording latency in shard `latency_shard`'s reservoir.
  /// Every ticket passes through here exactly once.
  void Resolve(const std::shared_ptr<internal::TicketState>& state,
               util::Result<core::QueryResult> outcome,
               uint32_t latency_shard);
  /// Builds the ticket state for one submission (links cancel tokens,
  /// stamps the clock, counts it submitted).
  std::shared_ptr<internal::TicketState> PrepareState(
      core::QueryRequest request, Priority priority);
  size_t QueueDepthLocked() const;

  /// Admission control. Returns non-OK (with a retry-after hint in the
  /// message) when `priority` traffic must be shed under the current
  /// queue depth; may instead downgrade a willing (degrade ==
  /// kUnderPressure) threshold request to a bounds-only answer, setting
  /// `*degrade_instead`. Called under queue_mu_.
  util::Status MaybeShedLocked(const internal::GatherState& gather,
                               Priority priority, bool* degrade_instead);
  /// Drops sub-routes targeting quarantined shards (recording their
  /// objects as missing), marks and counts the subs admitted as their
  /// shard's probe. Returns non-OK when every target is quarantined with
  /// no probe due, or when the request cannot tolerate a partial answer.
  util::Status ApplyHealthGate(
      const std::shared_ptr<internal::GatherState>& gather);
  /// Schedules a retry of sub `sub_index` when `outcome` is a transient
  /// failure within the request's retry budget (deadline allowing, not
  /// shutting down). Returns true when the retry was enqueued — the sub
  /// is NOT complete and the caller must not record the outcome.
  bool MaybeScheduleRetry(
      const std::shared_ptr<internal::GatherState>& gather, size_t sub_index,
      const util::Result<core::QueryResult>& outcome, uint32_t shard);
  /// Feeds a sub outcome into shard `shard`'s health tracker, counting
  /// quarantines. A caller-attributable outcome releases the probe slot
  /// only when `probe` (the sub holds it).
  void RecordShardOutcome(uint32_t shard, const util::Status& status,
                          bool probe);
  /// Watchdog sweep over every shard from a submitting thread.
  void CheckWatchdogs(std::chrono::steady_clock::time_point now);
  /// Moves every retry entry of `lane` whose due time has passed `now`
  /// back into its priority lane. Called under queue_mu_.
  void PromoteRetriesLocked(ShardLane& lane,
                            std::chrono::steady_clock::time_point now);
  /// Marks dirty every live subscription whose answer the freshly
  /// ingested object `id` can affect (refresh_on_ingest, filter match).
  void MarkDirtyForIngest(ObjectId id);
  /// Computes one subscription's delta against its last delivered answer
  /// and advances the delivered state. Called only from the serialized
  /// refresh round.
  SubscriptionDelta BuildDelta(internal::SubscriptionState& sub,
                               const core::QueryResult& result);
  /// The registered metrics collector: every series, read as of now.
  void CollectMetrics(obs::MetricsWriter* out) const;

  const core::ShardedDatabase* sharded_ = nullptr;
  /// Ingest-capable alias of sharded_; null when constructed over a const
  /// database (ingest then fails with kFailedPrecondition).
  core::ShardedDatabase* mutable_sharded_ = nullptr;
  ServiceOptions options_;

  mutable std::mutex queue_mu_;
  std::condition_variable space_cv_;  // wakes blocked producers
  std::vector<std::unique_ptr<ShardLane>> shards_;
  /// Gathers whose last sub landed, waiting for a merge (RunMerges).
  std::deque<std::shared_ptr<internal::GatherState>> ready_;
  size_t queue_peak_ = 0;  ///< high-water mark, all lanes and shards
  bool paused_ = false;
  bool stopping_ = false;

  std::mutex shutdown_mu_;  // serializes Shutdown() callers around join

  mutable std::mutex stats_mu_;  // guards stats_ + per-shard telemetry
  ServiceStats stats_;  // service-wide counters; the rest: lanes, stats()
  std::vector<SlowQuery> slow_ring_;  // descending latency; stats_mu_

  obs::Histogram ingest_latency_;  // append apply time; obs.enabled only
  std::atomic<uint64_t> submit_seq_{0};  // trace sampling counter

  /// Subscription registry. subs_mu_ guards the vector and each entry's
  /// dirty flag + request window (ingest marks dirty, ticks slide
  /// windows); refresh_mu_ serializes refresh rounds and alone guards the
  /// delivered state (last_answer, sequence advancement).
  mutable std::mutex subs_mu_;
  std::mutex refresh_mu_;
  std::vector<std::shared_ptr<internal::SubscriptionState>> subscriptions_;
  uint64_t next_subscription_id_ = 1;  // subs_mu_
};

}  // namespace service
}  // namespace ustdb

#endif  // USTDB_SERVICE_QUERY_SERVICE_H_
