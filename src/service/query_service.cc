#include "service/query_service.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <deque>
#include <map>
#include <optional>
#include <span>
#include <thread>
#include <utility>

#include "core/planner.h"
#include "util/cancellation.h"
#include "util/fault_injector.h"
#include "util/parallel_for.h"

namespace ustdb {
namespace service {

namespace {

/// Completed-request latencies kept per shard for the percentile
/// estimates: large enough that p99 is meaningful, small enough that a
/// long-lived service never grows.
constexpr size_t kLatencyReservoir = 4096;

using Clock = std::chrono::steady_clock;

/// The failures a later attempt may cure: shard health, partial merges
/// and subscription refreshes treat these alone as transient.
bool IsTransient(util::StatusCode code) {
  return code == util::StatusCode::kUnavailable ||
         code == util::StatusCode::kInternal;
}

/// Draws one fault decision at a service-owned injection point. The
/// service's submit/merge paths speak Status, so a `throw` rule is
/// converted here — a fault must resolve the ticket, never unwind into
/// the caller's frame. Inactive injector = one relaxed atomic load.
util::Status InjectServicePoint(util::FaultPoint point, int32_t shard = -1) {
  util::FaultInjector* injector = util::FaultInjector::Active();
  if (injector == nullptr) return util::Status::OK();
  try {
    return injector->Inject(point, shard);
  } catch (const util::FaultInjectedError& e) {
    return util::Status::Unavailable(e.what());
  }
}

}  // namespace

namespace internal {

/// Shared state behind one ticket: the pending request, its cancellation
/// source, and the one-shot outcome slot. `mu` guards outcome/resolved/
/// taken; the request itself is written at submit and only read
/// afterwards — routing copies it into the per-shard subs, dispatchers
/// read its trace, retry budget and deadline, the merge its predicate and
/// object_filter.
struct TicketState {
  std::mutex mu;
  std::condition_variable cv;
  bool resolved = false;
  bool taken = false;
  std::optional<util::Result<core::QueryResult>> outcome;
  /// First-resolution-wins claim, taken before any side effect of
  /// Resolve(). Shutdown can race a shed/retry path to the same ticket;
  /// whoever exchanges this first owns the resolution, the loser returns
  /// without touching stats or the outcome slot.
  std::atomic<bool> claimed{false};
  /// Sub-request retry attempts consumed by this ticket (slow-ring
  /// annotation; incremented by dispatcher threads).
  std::atomic<uint32_t> retries{0};

  util::CancellationSource cancel;
  /// request.trace is the sampled or caller-attached trace (null for the
  /// untraced majority); request.cancel is the ticket-linked token.
  core::QueryRequest request;
  Priority priority = Priority::kInteractive;
  Clock::time_point submitted_at;
};

/// One per-shard sub-request of a routed parent plus the metadata its
/// result needs to merge back.
struct SubRoute {
  uint32_t shard = 0;
  core::QueryRequest request;  // moved out by the dispatcher that runs it
                               // (copied instead when retries are budgeted)
  /// Parent result position of each sub entry, in the sub's evaluation
  /// order. The position predicates (kExists / kForAll / kKTimes) scatter
  /// through it at merge; every predicate reads it to name a failed sub's
  /// missing objects in a partial answer. An unfiltered sub views its
  /// shard's id table, a filtered one its gather's filtered_positions.
  std::span<const ObjectId> positions;
  /// Retry attempts consumed by this sub; guarded by queue_mu_.
  uint32_t attempts = 0;
  /// The health gate admitted this sub as its quarantined shard's one
  /// probe: it alone may release the probe slot without an outcome
  /// (admission refused, or cancelled/expired before running). Cleared
  /// once the sub's first outcome reaches the tracker.
  bool probe = false;
};

/// Scatter-gather state of one parent request: one slot per sub, filled
/// by shard dispatchers; the dispatcher completing the last sub puts the
/// gather on the service's ready list, and whichever dispatcher takes it
/// from there merges and resolves the parent (the slot writes
/// happen-before the merge via the acq_rel countdown and queue_mu_).
struct GatherState {
  std::shared_ptr<TicketState> parent;
  /// The router pinned kAutoPerChain because a forced kBoundsThenRefine
  /// request had an ineligible (non-contiguous) window; the merge adds
  /// the single bound_fallbacks increment the unsharded executor would
  /// have recorded.
  bool add_bound_fallback = false;
  std::vector<SubRoute> subs;
  /// A filtered request's parent positions, one list per shard.
  std::vector<std::vector<ObjectId>> filtered_positions;
  std::vector<std::optional<util::Result<core::QueryResult>>> results;
  std::atomic<size_t> remaining{0};
};

/// Shared state behind one standing query. Locking split (see the
/// members in query_service.h): `dirty` and `request.window` are guarded
/// by the service's subs_mu_; `last_answer` and sequence advancement are
/// touched only inside the refresh_mu_-serialized refresh round;
/// `cancelled` is atomic so the handle's Cancel() never takes a service
/// lock.
struct SubscriptionState {
  uint64_t id = 0;
  core::QueryRequest request;  // current (possibly slid) window
  WindowPolicy policy;
  SubscriptionCallback callback;
  std::atomic<bool> cancelled{false};
  /// Set once a refresh failed for good; `status` is written before it.
  std::atomic<bool> closed{false};
  util::Status status = util::Status::OK();
  std::atomic<uint64_t> sequence{0};  ///< last delivered; 0 = none yet
  bool dirty = true;  ///< first refresh delivers the full set as entered
  /// Last delivered answer set, ascending by object id.
  std::vector<core::ObjectProbability> last_answer;
};

LatencyPercentiles MergeLatencyPercentiles(
    const std::vector<std::vector<double>>& reservoirs) {
  std::vector<double> pool;
  for (const std::vector<double>& reservoir : reservoirs) {
    pool.insert(pool.end(), reservoir.begin(), reservoir.end());
  }
  LatencyPercentiles out;
  if (pool.empty()) return out;
  std::sort(pool.begin(), pool.end());
  const auto at = [&pool](double q) {
    return pool[static_cast<size_t>(q * (pool.size() - 1))];
  };
  out.p50_ms = at(0.50);
  out.p99_ms = at(0.99);
  return out;
}

}  // namespace internal

using internal::GatherState;
using internal::SubRoute;
using internal::SubscriptionState;
using internal::TicketState;

// ---------------------------------------------------------------------------
// QueryTicket
// ---------------------------------------------------------------------------

void QueryTicket::Cancel() {
  if (state_ != nullptr) state_->cancel.RequestStop();
}

bool QueryTicket::resolved() const {
  if (state_ == nullptr) return false;
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->resolved;
}

bool QueryTicket::WaitFor(std::chrono::milliseconds timeout) const {
  if (state_ == nullptr) return false;
  std::unique_lock<std::mutex> lock(state_->mu);
  return state_->cv.wait_for(lock, timeout,
                             [this] { return state_->resolved; });
}

util::Result<core::QueryResult> QueryTicket::Get() {
  if (state_ == nullptr) {
    return util::Status::FailedPrecondition("ticket is not valid");
  }
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [this] { return state_->resolved; });
  if (state_->taken) {
    return util::Status::FailedPrecondition(
        "ticket result was already taken");
  }
  state_->taken = true;
  return std::move(*state_->outcome);
}

// ---------------------------------------------------------------------------
// Subscription
// ---------------------------------------------------------------------------

uint64_t Subscription::id() const {
  return state_ != nullptr ? state_->id : 0;
}

void Subscription::Cancel() {
  if (state_ != nullptr) {
    state_->cancelled.store(true, std::memory_order_release);
  }
}

bool Subscription::cancelled() const {
  return state_ != nullptr &&
         state_->cancelled.load(std::memory_order_acquire);
}

util::Status Subscription::status() const {
  if (state_ == nullptr || !state_->closed.load(std::memory_order_acquire)) {
    return util::Status::OK();
  }
  return state_->status;
}

uint64_t Subscription::last_sequence() const {
  return state_ != nullptr
             ? state_->sequence.load(std::memory_order_acquire)
             : 0;
}

// ---------------------------------------------------------------------------
// QueryService internals
// ---------------------------------------------------------------------------

/// One queued entry of a shard lane: which sub of which gather to run.
struct QueryService::ShardTask {
  std::shared_ptr<GatherState> gather;
  size_t sub_index = 0;
};

/// Everything one shard owns: its executor (cache + worker slice), its
/// two-lane queue (guarded by the service-wide queue_mu_), its dispatcher
/// thread, and its telemetry.
struct QueryService::ShardLane {
  core::QueryExecutor executor;  // dispatcher thread only
  std::condition_variable work_cv;
  std::deque<ShardTask> lanes[2];
  std::thread dispatcher;

  /// Serializes this shard's executor runs against its ingest appends:
  /// the dispatcher holds it across Run/RunBatch, AppendObservation holds
  /// it while mutating this shard's Database. Per shard — an append stalls
  /// only the owning shard's dispatch, and the executor's start-of-run
  /// epoch stamp is exact because the database cannot advance mid-run.
  std::mutex db_mu;

  /// Health state machine of this shard (lock-free; see resilience.h).
  ShardHealthTracker health;

  /// Sub-requests waiting out a retry backoff; guarded by queue_mu_.
  /// Promoted back into their priority lane once due (immediately on
  /// shutdown). Retries bypass the capacity check — they were admitted
  /// once already.
  struct RetryEntry {
    Clock::time_point due;
    ShardTask task;
  };
  std::vector<RetryEntry> retries;

  /// The only store of this shard's dispatch and health counters (summed
  /// into ServiceStats); guarded by stats_mu_ like the latency reservoir.
  uint64_t solo_dispatches = 0;
  uint64_t coalesced_batches = 0;
  uint64_t coalesced_requests = 0;
  uint64_t quarantines = 0;
  uint64_t probes = 0;
  uint64_t watchdog_trips = 0;
  std::vector<double> latencies_ms;  // bounded reservoir, ring-indexed
  size_t latency_next = 0;

  /// Lock-free; observed only with ObsOptions::enabled.
  obs::Histogram queue_wait;  ///< submit -> dequeued by the dispatcher
  obs::Histogram dispatch;    ///< dequeue -> executor run returned
  obs::Histogram latency;     ///< submit -> resolve, OK outcomes only

  ShardLane(const core::Database* db, core::ExecutorOptions options,
            const HealthPolicy& policy)
      : executor(db, options), health(policy) {}
};

namespace {

ServiceOptions Sanitize(ServiceOptions options) {
  if (options.queue_capacity == 0) options.queue_capacity = 1;
  if (options.max_batch == 0) options.max_batch = 1;
  return options;
}

/// Field-wise merge of per-shard ExecStats into the parent's: counters
/// sum (each shard's work is disjoint — co-located clusters make even the
/// PruneStats sums equal the unsharded run's), threads_used sums the
/// shard slices, batch_group_members takes the max (groups never span
/// shards, so "largest group this request shared" is the honest global
/// reading).
void AccumulateStats(const core::ExecStats& in, core::ExecStats* out) {
  out->chains_object_based += in.chains_object_based;
  out->chains_query_based += in.chains_query_based;
  out->objects_evaluated += in.objects_evaluated;
  out->objects_multi_observation += in.objects_multi_observation;
  out->threads_used += in.threads_used;
  out->cache_hits += in.cache_hits;
  out->cache_misses += in.cache_misses;
  out->cache_invalidations += in.cache_invalidations;
  out->cache_shift_extends += in.cache_shift_extends;
  out->batch_group_members =
      std::max(out->batch_group_members, in.batch_group_members);
  out->group_subtasks += in.group_subtasks;
  out->prune.clusters_total += in.prune.clusters_total;
  out->prune.clusters_bounded += in.prune.clusters_bounded;
  out->prune.clusters_pruned += in.prune.clusters_pruned;
  out->prune.clusters_refined += in.prune.clusters_refined;
  out->prune.objects_decided_by_bounds += in.prune.objects_decided_by_bounds;
  out->prune.objects_refined += in.prune.objects_refined;
  out->prune.objects_decided_early += in.prune.objects_decided_early;
  out->prune.bound_fallbacks += in.prune.bound_fallbacks;
}

/// The parent's id at result position `position`: its filter entry, or —
/// without a filter — the global id `position` itself.
ObjectId ParentId(const core::QueryRequest& request, ObjectId position) {
  return request.object_filter.has_value()
             ? (*request.object_filter)[position]
             : position;
}

/// Position scatter of the kExists / kForAll / kKTimes answers: entry j of
/// each answering sub lands at its recorded parent position, under the
/// parent's id there. With `compact`, positions no sub filled (a failed
/// shard's, or every one of a bounds-only answer) are dropped and the
/// rest keep parent order.
template <typename Entry>
std::vector<Entry> ScatterByPosition(
    GatherState* gather, std::vector<Entry> core::QueryResult::*entries,
    bool compact) {
  const core::QueryRequest& request = gather->parent->request;
  size_t total = 0;
  for (const SubRoute& sub : gather->subs) total += sub.positions.size();
  std::vector<Entry> out(total);
  std::vector<char> filled(compact ? total : 0, 0);
  for (size_t i = 0; i < gather->subs.size(); ++i) {
    if (!gather->results[i]->ok()) continue;
    std::vector<Entry>& answer = gather->results[i]->value().*entries;
    const std::span<const ObjectId> positions = gather->subs[i].positions;
    for (size_t j = 0; j < answer.size(); ++j) {
      Entry& slot = out[positions[j]];
      slot = std::move(answer[j]);
      slot.id = ParentId(request, positions[j]);
      if (compact) filled[positions[j]] = 1;
    }
  }
  if (compact) {
    size_t kept = 0;
    for (size_t p = 0; p < total; ++p) {
      if (!filled[p]) continue;
      // Never self-move: a moved-onto-itself vector may come out empty.
      if (kept != p) out[kept] = std::move(out[p]);
      ++kept;
    }
    out.resize(kept);
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// QueryService
// ---------------------------------------------------------------------------

QueryService::QueryService(const core::ShardedDatabase* db,
                           ServiceOptions options)
    : sharded_(db), options_(Sanitize(options)) {
  // Slice the worker budget evenly: ExecutorOptions::num_threads is the
  // TOTAL (0 = hardware default), each shard executor gets its share,
  // never less than one worker.
  core::ExecutorOptions per_shard = options_.executor;
  const unsigned total = util::ResolveThreadCount(per_shard.num_threads);
  const uint32_t num_shards = std::max(1u, db->num_shards());
  per_shard.num_threads = std::max(1u, total / num_shards);
  shards_.reserve(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    core::ExecutorOptions exec = per_shard;
    exec.obs = options_.obs;
    exec.obs.labels["shard"] = std::to_string(s);
    shards_.push_back(
        std::make_unique<ShardLane>(&db->shard(s), exec, options_.health));
  }
  if (options_.obs.enabled) {
    options_.obs.ResolvedRegistry()->AddCollector(
        this, [this](obs::MetricsWriter* out) { CollectMetrics(out); });
  }
  for (uint32_t s = 0; s < num_shards; ++s) {
    shards_[s]->dispatcher = std::thread([this, s] { DispatcherLoop(s); });
  }
}

QueryService::QueryService(core::ShardedDatabase* db, ServiceOptions options)
    : QueryService(static_cast<const core::ShardedDatabase*>(db),
                   std::move(options)) {
  mutable_sharded_ = db;
}

QueryService::~QueryService() {
  Shutdown();
  if (options_.obs.enabled) {
    options_.obs.ResolvedRegistry()->RemoveCollector(this);
  }
}

std::shared_ptr<TicketState> QueryService::PrepareState(
    core::QueryRequest request, Priority priority) {
  auto state = std::make_shared<TicketState>();
  state->priority = priority;
  state->submitted_at = Clock::now();
  // Trace attachment: honor a caller-supplied trace always; otherwise
  // sample every Nth submission (epoch = the submission instant just
  // stamped, so span offsets read as time-since-submit).
  if (request.trace == nullptr && options_.obs.enabled &&
      options_.obs.trace_sample_every > 0) {
    const uint64_t seq =
        submit_seq_.fetch_add(1, std::memory_order_relaxed);
    if (seq % options_.obs.trace_sample_every == 0) {
      request.trace = std::make_shared<obs::QueryTrace>(state->submitted_at);
    }
  }
  // Link the ticket's source beneath any caller-supplied token: both
  // QueryTicket::Cancel() and the caller's own source stop the run.
  state->cancel = util::CancellationSource(request.cancel);
  request.cancel = state->cancel.token();
  state->request = std::move(request);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.submitted;
  }
  return state;
}

util::Status QueryService::ValidateRequest(
    const core::QueryRequest& request) const {
  // The executor's own check (QueryExecutor::ValidateRequest) over global
  // ids, with the same messages. Reading an object's chain races no
  // append: appends touch only its observation history.
  if (!request.object_filter.has_value()) {
    for (uint32_t s = 0; s < sharded_->num_shards(); ++s) {
      const core::Database& db = sharded_->shard(s);
      for (ChainId c = 0; c < db.num_chains(); ++c) {
        if (db.objects_by_chain()[c].empty()) continue;
        USTDB_RETURN_NOT_OK(core::CheckWindowDomain(request.window,
                                                    db.chain(c)));
      }
    }
    return util::Status::OK();
  }
  for (ObjectId global : *request.object_filter) {
    if (global >= sharded_->num_objects()) {
      return util::Status::InvalidArgument(
          "object_filter references an id outside the database");
    }
    const core::Database& db =
        sharded_->shard(sharded_->shard_of_object(global));
    USTDB_RETURN_NOT_OK(core::CheckWindowDomain(
        request.window,
        db.chain(db.object(sharded_->local_object(global)).chain)));
  }
  return util::Status::OK();
}

util::Status QueryService::BuildRoute(
    const std::shared_ptr<TicketState>& state,
    std::shared_ptr<GatherState>* out) const {
  const core::QueryRequest& req = state->request;
  USTDB_RETURN_NOT_OK(ValidateRequest(req));
  auto gather = std::make_shared<GatherState>();
  gather->parent = state;

  const uint32_t num_shards = sharded_->num_shards();
  const bool filtered = req.object_filter.has_value();

  // Bucket the evaluated set per shard, translating global object ids
  // to shard-local ones and remembering each entry's parent result
  // position. Without a filter every shard evaluates its whole local
  // database, whose local order IS ascending global order, so the
  // shard's id table is the positions list and nothing is copied.
  std::vector<std::vector<ObjectId>> filters(num_shards);
  if (filtered) {
    gather->filtered_positions.resize(num_shards);
    for (size_t p = 0; p < req.object_filter->size(); ++p) {
      const ObjectId global = (*req.object_filter)[p];
      const uint32_t s = sharded_->shard_of_object(global);
      filters[s].push_back(sharded_->local_object(global));
      gather->filtered_positions[s].push_back(static_cast<ObjectId>(p));
    }
  }

  // Whole-request plan decision for kThresholdExists, made ONCE from
  // the global view: ChooseThresholdPlan's break-even sums over every
  // chain of the request, so per-shard re-decisions could diverge from
  // the unsharded pipeline. Sub-requests get the outcome pinned —
  // kBoundsThenRefine (forced; each shard bounds its own co-located
  // clusters) or kAutoPerChain (per-chain cost model, never the
  // whole-request bound plan).
  core::PlanChoice pinned = req.plan;
  bool add_fallback = false;
  if (req.predicate == core::PredicateKind::kThresholdExists &&
      (req.plan == core::PlanChoice::kAuto ||
       req.plan == core::PlanChoice::kBoundsThenRefine)) {
    if (!req.window.has_contiguous_times()) {
      // The executor would fall back to per-chain planning; a forced
      // bound plan records the fallback exactly once at merge.
      add_fallback = req.plan == core::PlanChoice::kBoundsThenRefine;
      pinned = core::PlanChoice::kAutoPerChain;
    } else if (req.plan == core::PlanChoice::kAuto) {
      // Census via the lock-free mirrors: this submit-path loop runs
      // without the shard's ingest lock, and reading an object's history
      // directly would race a concurrent append. Without a filter it
      // reads per-chain counts, O(chains).
      std::map<ChainId, uint32_t> load_map;
      for (uint32_t s = 0; s < num_shards; ++s) {
        const core::Database& shard_db = sharded_->shard(s);
        for (ChainId c = 0; !filtered && c < shard_db.num_chains(); ++c) {
          if (const uint32_t n = shard_db.single_observation_count(c)) {
            load_map[sharded_->global_chain(s, c)] += n;
          }
        }
        for (ObjectId local : filters[s]) {  // empty without a filter
          if (shard_db.object_needs_multi_engine(local)) continue;
          ++load_map[sharded_->global_chain(s, shard_db.object(local).chain)];
        }
      }
      std::vector<core::ChainLoad> loads;
      loads.reserve(load_map.size());
      for (const auto& [chain, count] : load_map) {
        loads.push_back({chain, count});
      }
      const core::QueryPlanner planner(&sharded_->routing_db());
      const core::PlanDecision decision =
          planner.ChooseThresholdPlan(req.window, req.plan, loads);
      pinned = decision.plan == core::Plan::kBoundsThenRefine
                   ? core::PlanChoice::kBoundsThenRefine
                   : core::PlanChoice::kAutoPerChain;
    }
  }
  gather->add_bound_fallback = add_fallback;

  const auto make_sub = [&](uint32_t s) {
    SubRoute sub;
    sub.shard = s;
    sub.request.predicate = req.predicate;
    sub.request.window = req.window;
    sub.request.tau = req.tau;
    sub.request.k = req.k;
    sub.request.plan = pinned;
    sub.request.degrade = req.degrade;
    if (filtered) {
      sub.request.object_filter = std::move(filters[s]);
      sub.positions = gather->filtered_positions[s];
    } else {
      sub.positions = sharded_->global_objects(s);
    }
    sub.request.cancel = req.cancel;  // the parent-linked token
    sub.request.deadline = req.deadline;
    sub.request.trace = req.trace;  // shared: all subs append to it
    return sub;
  };
  for (uint32_t s = 0; s < num_shards; ++s) {
    const bool has_work =
        filtered ? !filters[s].empty() : sharded_->shard(s).num_objects() > 0;
    if (has_work) gather->subs.push_back(make_sub(s));
  }
  if (gather->subs.empty()) {
    // Empty database or empty filter: one empty sub against shard 0
    // produces the executor's empty result (and its stats) verbatim.
    gather->subs.push_back(make_sub(0));
  }

  gather->results.resize(gather->subs.size());
  gather->remaining.store(gather->subs.size(), std::memory_order_relaxed);
  *out = std::move(gather);
  return util::Status::OK();
}

util::Status QueryService::TryEnqueueLocked(
    const std::shared_ptr<GatherState>& gather, Priority priority,
    std::unique_lock<std::mutex>* lock, bool allow_block) {
  const int lane = static_cast<int>(priority);
  // All-or-nothing admission: every target shard's lane needs a slot (at
  // most one sub per shard), or the whole request rejects/blocks. Subs
  // pre-resolved by the health gate (quarantined targets) never enqueue.
  const auto has_space = [this, &gather, lane] {
    for (size_t i = 0; i < gather->subs.size(); ++i) {
      if (gather->results[i].has_value()) continue;
      const SubRoute& sub = gather->subs[i];
      if (shards_[sub.shard]->lanes[lane].size() >= options_.queue_capacity) {
        return false;
      }
    }
    return true;
  };
  if (!has_space()) {
    if (options_.backpressure == BackpressurePolicy::kReject ||
        !allow_block) {
      return util::Status::Unavailable("submission queue full");
    }
    space_cv_.wait(*lock, [this, &has_space] {
      return stopping_ || has_space();
    });
    if (stopping_) {
      return util::Status::Unavailable("query service is shut down");
    }
  }
  for (size_t i = 0; i < gather->subs.size(); ++i) {
    if (gather->results[i].has_value()) continue;
    shards_[gather->subs[i].shard]->lanes[lane].push_back(
        ShardTask{gather, i});
  }
  queue_peak_ = std::max(queue_peak_, QueueDepthLocked());
  return util::Status::OK();
}

ShardHealth QueryService::shard_health(uint32_t shard) const {
  return shards_[shard]->health.health();
}

void QueryService::CheckWatchdogs(Clock::time_point now) {
  for (uint32_t s = 0; s < shards_.size(); ++s) {
    if (shards_[s]->health.CheckWatchdog(now)) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++shards_[s]->watchdog_trips;
      ++shards_[s]->quarantines;
    }
  }
}

void QueryService::RecordShardOutcome(uint32_t shard,
                                      const util::Status& status,
                                      bool probe) {
  ShardHealthTracker& tracker = shards_[shard]->health;
  if (status.ok()) {
    tracker.RecordSuccess();
    return;
  }
  if (IsTransient(status.code())) {
    const ShardHealth before = tracker.health();
    const ShardHealth after = tracker.RecordFailure(Clock::now());
    if (after == ShardHealth::kQuarantined &&
        before != ShardHealth::kQuarantined) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++shards_[shard]->quarantines;
    }
    return;
  }
  // Caller-attributable outcomes (cancel, deadline, invalid argument) say
  // nothing about the shard — but a probe that ends this way must free
  // the probe slot or a quarantined shard would never re-probe. Any other
  // sub must not: the slot belongs to another request's probe.
  if (probe) tracker.ProbeAborted();
}

util::Status QueryService::ApplyHealthGate(
    const std::shared_ptr<GatherState>& gather) {
  const Clock::time_point now = Clock::now();
  size_t live = 0;
  bool any_probe = false;
  std::vector<size_t> dropped;
  for (size_t i = 0; i < gather->subs.size(); ++i) {
    SubRoute& sub = gather->subs[i];
    if (shards_[sub.shard]->health.AdmitToShard(now, &sub.probe)) {
      any_probe = any_probe || sub.probe;
      ++live;
    } else {
      dropped.push_back(i);
    }
  }
  if (live == 0) {
    return util::Status::Unavailable(
        "all target shards are quarantined; retry after the probe backoff");
  }
  if (!dropped.empty()) {
    if (!options_.partial_results) {
      return util::Status::Unavailable(
          "shard " + std::to_string(gather->subs[dropped.front()].shard) +
          " is quarantined and partial results are disabled");
    }
    // Pre-resolve the quarantined subs: they never enqueue, the merge
    // sees their slots as transient failures and answers partially.
    for (size_t i : dropped) {
      gather->results[i].emplace(util::Status::Unavailable(
          "shard " + std::to_string(gather->subs[i].shard) +
          " is quarantined"));
    }
    gather->remaining.store(live, std::memory_order_relaxed);
  }
  if (any_probe) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    for (const SubRoute& sub : gather->subs) {
      if (sub.probe) ++shards_[sub.shard]->probes;
    }
  }
  return util::Status::OK();
}

util::Status QueryService::MaybeShedLocked(const GatherState& gather,
                                           Priority priority,
                                           bool* degrade_instead) {
  *degrade_instead = false;
  const OverloadPolicy& policy = options_.overload;
  if (!policy.enabled) return util::Status::OK();
  const size_t capacity =
      shards_.size() * 2 * options_.queue_capacity;
  const double fraction =
      capacity == 0 ? 0.0
                    : static_cast<double>(QueueDepthLocked()) /
                          static_cast<double>(capacity);
  const auto retry_hint = [&policy] {
    return "; retry after " + std::to_string(policy.retry_after.count()) +
           "ms";
  };
  if (priority == Priority::kBulk) {
    if (fraction >= policy.shed_bulk_at) {
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.shed_bulk;
      }
      return util::Status::Unavailable(
          "overloaded: bulk submission shed" + retry_hint());
    }
    return util::Status::OK();
  }
  if (fraction >= policy.shed_interactive_at) {
    // A threshold query that opted into degradation answers from interval
    // bounds alone instead of being shed: certain objects decided, the
    // borderline reported as [lo, hi] (see QueryResult::undecided).
    const core::QueryRequest& request = gather.parent->request;
    if (request.degrade == core::DegradeMode::kUnderPressure &&
        request.predicate == core::PredicateKind::kThresholdExists) {
      *degrade_instead = true;
      return util::Status::OK();
    }
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.shed_interactive;
    }
    return util::Status::Unavailable(
        "overloaded: interactive submission shed" + retry_hint());
  }
  return util::Status::OK();
}

bool QueryService::MaybeScheduleRetry(
    const std::shared_ptr<GatherState>& gather, size_t sub_index,
    const util::Result<core::QueryResult>& outcome, uint32_t shard) {
  TicketState& parent = *gather->parent;
  const core::RetryPolicy& retry = parent.request.retry;
  if (retry.max_retries == 0) return false;
  if (outcome.ok() ||
      outcome.status().code() != util::StatusCode::kUnavailable) {
    return false;
  }
  if (parent.cancel.stop_requested()) return false;
  std::lock_guard<std::mutex> lock(queue_mu_);
  // Shutdown wins: a retry scheduled now would outlive the dispatcher
  // drain. The sub completes with its error instead (exactly-once).
  if (stopping_) return false;
  SubRoute& sub = gather->subs[sub_index];
  if (sub.attempts >= retry.max_retries) return false;
  const uint32_t attempt = sub.attempts++;
  // Per-ticket jitter seed: decorrelates concurrent tickets' backoffs
  // while staying reproducible for a pinned clock in tests.
  const uint64_t seed =
      static_cast<uint64_t>(parent.submitted_at.time_since_epoch().count()) ^
      (0x9E3779B97f4A7C15ULL * (sub_index + 1));
  const Clock::time_point due =
      Clock::now() + RetryBackoff(retry, attempt, seed);
  // A retry that cannot finish before the deadline is pointless: let the
  // current failure stand rather than burn backoff into a sure expiry.
  const std::optional<Clock::time_point>& deadline = parent.request.deadline;
  if (deadline.has_value() && due >= *deadline) return false;
  ShardLane& lane = *shards_[shard];
  lane.retries.push_back(
      ShardLane::RetryEntry{due, ShardTask{gather, sub_index}});
  parent.retries.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    ++stats_.retries;
  }
  lane.work_cv.notify_one();
  return true;
}

void QueryService::PromoteRetriesLocked(ShardLane& lane,
                                        Clock::time_point now) {
  for (size_t i = 0; i < lane.retries.size();) {
    if (lane.retries[i].due <= now) {
      ShardTask task = std::move(lane.retries[i].task);
      const int priority = static_cast<int>(task.gather->parent->priority);
      lane.lanes[priority].push_back(std::move(task));
      lane.retries[i] = std::move(lane.retries.back());
      lane.retries.pop_back();
    } else {
      ++i;
    }
  }
}

QueryTicket QueryService::Submit(core::QueryRequest request,
                                 Priority priority) {
  std::vector<core::QueryRequest> one;
  one.push_back(std::move(request));
  return Admit(std::move(one), priority, /*allow_block=*/true).front();
}

std::vector<QueryTicket> QueryService::SubmitBurst(
    std::vector<core::QueryRequest> requests, Priority priority) {
  return Admit(std::move(requests), priority, /*allow_block=*/false);
}

std::vector<QueryTicket> QueryService::Admit(
    std::vector<core::QueryRequest> requests, Priority priority,
    bool allow_block) {
  // Ticket preparation, queue-admission fault draws, routing and the
  // watchdog sweep all run outside the lock: a stall rule delays these
  // submissions, not the lock; translation and plan pinning are pure;
  // submitting threads are the ones guaranteed to keep arriving while a
  // dispatcher is wedged. `verdicts` holds each request's first failure.
  const size_t n = requests.size();
  std::vector<std::shared_ptr<TicketState>> states(n);
  std::vector<QueryTicket> tickets;
  tickets.reserve(n);
  std::vector<util::Status> verdicts(n);
  std::vector<std::shared_ptr<GatherState>> gathers(n);
  for (size_t i = 0; i < n; ++i) {
    states[i] = PrepareState(std::move(requests[i]), priority);
    tickets.push_back(QueryTicket{states[i]});
  }
  for (size_t i = 0; i < n; ++i) {
    verdicts[i] = InjectServicePoint(util::FaultPoint::kQueueAdmission);
    if (verdicts[i].ok()) verdicts[i] = BuildRoute(states[i], &gathers[i]);
  }
  CheckWatchdogs(Clock::now());

  // One queue-lock hold for the whole set: the dispatchers see none or
  // all of it, so an idle service drains a burst as one coalesced batch
  // per shard. Shutdown outranks the deadline check, which outranks
  // injected admission faults and routing errors: after Shutdown()
  // *every* submission resolves Unavailable, even one that is also
  // expired or unroutable.
  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    for (size_t i = 0; i < n; ++i) {
      const std::optional<Clock::time_point>& deadline =
          states[i]->request.deadline;
      util::Status& verdict = verdicts[i];
      if (stopping_) {
        verdict = util::Status::Unavailable("query service is shut down");
      } else if (deadline.has_value() && Clock::now() >= *deadline) {
        verdict = util::Status::DeadlineExceeded(
            "deadline already passed at submission");
      }
      if (!verdict.ok()) continue;
      verdict = ApplyHealthGate(gathers[i]);
      bool degrade_instead = false;
      if (verdict.ok()) {
        verdict = MaybeShedLocked(*gathers[i], priority, &degrade_instead);
      }
      if (!verdict.ok()) continue;
      if (degrade_instead) {
        for (SubRoute& sub : gathers[i]->subs) {
          sub.request.degrade = core::DegradeMode::kBoundsOnly;
        }
      }
      verdict = TryEnqueueLocked(gathers[i], priority, &lock, allow_block);
    }
  }

  uint64_t scattered = 0;
  uint64_t subtasks = 0;
  for (size_t i = 0; i < n; ++i) {
    if (!verdicts[i].ok()) {
      // A probe slot this request took at the health gate is released;
      // no other sub ever held one.
      if (gathers[i] != nullptr) {
        for (const SubRoute& sub : gathers[i]->subs) {
          if (sub.probe) shards_[sub.shard]->health.ProbeAborted();
        }
      }
      Resolve(states[i], std::move(verdicts[i]), /*latency_shard=*/0);
      continue;
    }
    if (gathers[i]->subs.size() >= 2) {
      ++scattered;
      subtasks += gathers[i]->subs.size();
    }
    for (const SubRoute& sub : gathers[i]->subs) {
      shards_[sub.shard]->work_cv.notify_one();
    }
  }
  if (scattered > 0) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.scatter_requests += scattered;
    stats_.scatter_subtasks += subtasks;
  }
  return tickets;
}

void QueryService::DispatcherLoop(uint32_t shard) {
  ShardLane& lane = *shards_[shard];
  for (;;) {
    std::vector<ShardTask> taken;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      bool work = false;
      for (;;) {
        // Retries whose backoff elapsed rejoin their lane; on shutdown
        // every pending retry promotes immediately — drain semantics,
        // the backoff no longer buys anything.
        PromoteRetriesLocked(lane, stopping_ ? Clock::time_point::max()
                                             : Clock::now());
        work = (stopping_ || !paused_) &&
               (!lane.lanes[0].empty() || !lane.lanes[1].empty());
        // Waiting merges wake a paused or stopping dispatcher too: their
        // subs already ran, so only the merge stands between them and
        // their tickets.
        if (work || !ready_.empty()) break;
        if (stopping_) return;
        if (!paused_ && !lane.retries.empty()) {
          Clock::time_point due = lane.retries.front().due;
          for (const ShardLane::RetryEntry& entry : lane.retries) {
            due = std::min(due, entry.due);
          }
          lane.work_cv.wait_until(lock, due);
        } else {
          lane.work_cv.wait(lock);
        }
      }
      // One lane per drain, interactive whenever it has work — coalescing
      // never crosses lanes, so a batched dispatch cannot make an
      // interactive ticket wait on bulk members' engines. Shutdown drains
      // the same way, iterating until both lanes are empty.
      auto& queue = lane.lanes[0].empty() ? lane.lanes[1] : lane.lanes[0];
      while (work && taken.size() < options_.max_batch && !queue.empty()) {
        taken.push_back(std::move(queue.front()));
        queue.pop_front();
      }
    }
    if (!taken.empty()) {
      space_cv_.notify_all();
      Dispatch(shard, std::move(taken));
    }
    RunMerges(shard);
  }
}

void QueryService::Dispatch(uint32_t shard, std::vector<ShardTask> taken) {
  // Dispatch fault point (the `shardN` spec sites): a firing fail/throw
  // rule fails this whole drain — every taken sub completes with the
  // injected status and flows through the usual retry/merge machinery.
  if (util::FaultInjector::Active() != nullptr) {
    util::Status injected = InjectServicePoint(
        util::FaultPoint::kDispatch, static_cast<int32_t>(shard));
    if (!injected.ok()) {
      for (ShardTask& task : taken) {
        CompleteSub(task.gather, task.sub_index, injected, shard);
      }
      return;
    }
  }
  // Resolve entries that went stale while queued without paying for
  // engines: cancel-before-dequeue and expire-in-queue land here.
  const Clock::time_point now = Clock::now();
  std::vector<ShardTask> runnable;
  runnable.reserve(taken.size());
  for (ShardTask& task : taken) {
    const TicketState& parent = *task.gather->parent;
    const core::QueryRequest& sub =
        task.gather->subs[task.sub_index].request;
    if (parent.cancel.stop_requested()) {
      CompleteSub(task.gather, task.sub_index,
                  util::Status::Cancelled("query cancelled while queued"),
                  shard);
      continue;
    }
    if (sub.deadline.has_value() && now >= *sub.deadline) {
      CompleteSub(task.gather, task.sub_index,
                  util::Status::DeadlineExceeded(
                      "query deadline passed while queued"),
                  shard);
      continue;
    }
    runnable.push_back(std::move(task));
  }
  if (runnable.empty()) return;

  // Queue-wait accounting per runnable entry, reusing the staleness
  // check's clock read: aggregate histogram, exact kQueue span for the
  // traced few.
  ShardLane& lane = *shards_[shard];
  bool any_traced = false;
  for (const ShardTask& task : runnable) {
    const TicketState& parent = *task.gather->parent;
    if (options_.obs.enabled) {
      lane.queue_wait.Observe(
          std::chrono::duration<double>(now - parent.submitted_at).count());
    }
    if (const auto& trace = parent.request.trace; trace != nullptr) {
      any_traced = true;
      trace->Record(obs::Stage::kQueue, parent.submitted_at, now,
                    static_cast<int32_t>(shard));
    }
  }
  const bool timing = options_.obs.enabled || any_traced;

  // One RunBatch per drain, whether it holds one entry or many. The
  // executor groups members by effective window internally, so every
  // same-window subset shares one backward pass per chain.
  std::vector<core::QueryRequest> requests;
  requests.reserve(runnable.size());
  for (ShardTask& task : runnable) {
    core::QueryRequest& sub = task.gather->subs[task.sub_index].request;
    if (task.gather->parent->request.retry.max_retries > 0) {
      // Keep the sub request intact: a transient failure re-runs it after
      // backoff. Without a retry budget the move stays free.
      requests.push_back(sub);
    } else {
      requests.push_back(std::move(sub));
    }
  }
  lane.health.MarkDispatchStart(now);
  std::vector<util::Result<core::QueryResult>> results;
  {
    // Ingest serialization: the run sees a frozen shard database, so the
    // executor's start-of-run epoch stamp names the exact data the whole
    // answer derives from.
    std::lock_guard<std::mutex> db_lock(lane.db_mu);
    results = lane.executor.RunBatch(requests);
  }
  lane.health.MarkDispatchEnd();
  const Clock::time_point run_end =
      timing ? Clock::now() : Clock::time_point();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    if (runnable.size() > 1) {
      ++lane.coalesced_batches;
      lane.coalesced_requests += runnable.size();
    } else {
      ++lane.solo_dispatches;
    }
  }
  if (options_.obs.enabled) {
    lane.dispatch.Observe(
        std::chrono::duration<double>(run_end - now).count());
  }
  if (any_traced) {
    const std::string detail = "batch=" + std::to_string(runnable.size());
    for (const ShardTask& task : runnable) {
      if (const auto& trace = task.gather->parent->request.trace;
          trace != nullptr) {
        trace->Record(obs::Stage::kDispatch, now, run_end,
                      static_cast<int32_t>(shard), detail);
      }
    }
  }
  for (size_t i = 0; i < runnable.size(); ++i) {
    CompleteSub(runnable[i].gather, runnable[i].sub_index,
                std::move(results[i]), shard);
  }
}

void QueryService::CompleteSub(const std::shared_ptr<GatherState>& gather,
                               size_t sub_index,
                               util::Result<core::QueryResult> outcome,
                               uint32_t shard) {
  SubRoute& sub = gather->subs[sub_index];
  RecordShardOutcome(shard,
                     outcome.ok() ? util::Status::OK() : outcome.status(),
                     sub.probe);
  sub.probe = false;
  // A transient failure within the retry budget re-queues the sub after
  // backoff instead of completing it; the countdown is untouched, so the
  // parent cannot resolve while a retry is pending.
  if (MaybeScheduleRetry(gather, sub_index, outcome, shard)) return;
  gather->results[sub_index].emplace(std::move(outcome));
  // acq_rel: the slot write above happens-before this thread's push, and
  // queue_mu_ hands every slot to the merging thread.
  if (gather->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> lock(queue_mu_);
    ready_.push_back(gather);
  }
}

void QueryService::RunMerges(uint32_t shard) {
  bool woke_others = false;
  for (;;) {
    std::shared_ptr<GatherState> gather;
    bool wake = false;
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      if (ready_.empty()) return;
      gather = std::move(ready_.front());
      ready_.pop_front();
      wake = !woke_others && !ready_.empty();
    }
    if (wake) {
      // Once per drain: a burst's merges spread over every dispatcher,
      // while a round of tiny merges pays one round of wake-ups at most.
      woke_others = true;
      for (uint32_t s = 0; s < shards_.size(); ++s) {
        if (s != shard) shards_[s]->work_cv.notify_one();
      }
    }
    MergeAndResolve(gather, shard);
  }
}

void QueryService::MergeAndResolve(
    const std::shared_ptr<GatherState>& gather, uint32_t shard) {
  const std::shared_ptr<obs::QueryTrace>& trace =
      gather->parent->request.trace;
  const Clock::time_point m0 =
      trace != nullptr ? Clock::now() : Clock::time_point();
  const auto finish = [&](util::Result<core::QueryResult> outcome) {
    if (trace != nullptr) {
      trace->Record(obs::Stage::kMerge, m0, Clock::now(),
                    static_cast<int32_t>(shard));
    }
    Resolve(gather->parent, std::move(outcome), shard);
  };
  // Merge fault point: a firing fail/throw rule fails the whole parent
  // (a stall just delays the merge).
  if (util::Status injected = InjectServicePoint(util::FaultPoint::kMerge);
      !injected.ok()) {
    return finish(std::move(injected));
  }

  // Classify sub outcomes. Stop codes and non-transient errors fail the
  // whole parent — the lowest sub index (= lowest target shard) wins so
  // concurrent failures resolve deterministically, exactly as before the
  // resilience layer. Transient failures (kUnavailable / kInternal, post
  // retry budget) tolerate a flagged partial answer when enabled and at
  // least one shard answered.
  size_t ok_count = 0;
  std::optional<size_t> first_fatal;
  std::optional<size_t> first_transient;
  for (size_t i = 0; i < gather->results.size(); ++i) {
    const util::Result<core::QueryResult>& slot = *gather->results[i];
    if (slot.ok()) {
      ++ok_count;
      continue;
    }
    if (!IsTransient(slot.status().code())) {
      if (!first_fatal.has_value()) first_fatal = i;
    } else if (!first_transient.has_value()) {
      first_transient = i;
    }
  }
  if (first_fatal.has_value()) {
    return finish(std::move(*gather->results[*first_fatal]));
  }
  const bool partial = first_transient.has_value();
  if (partial && (!options_.partial_results || ok_count == 0)) {
    return finish(std::move(*gather->results[*first_transient]));
  }
  core::QueryResult merged;
  merged.stats.threads_used = 0;  // summed below
  for (const std::optional<util::Result<core::QueryResult>>& slot :
       gather->results) {
    if (!slot->ok()) continue;
    AccumulateStats(slot->value().stats, &merged.stats);
    if (slot->value().degraded_bounds) merged.degraded_bounds = true;
    // Epoch max-merge: shards share one global version sequence, so the
    // newest answering shard's epoch names the data the merged (possibly
    // partial) answer reflects.
    merged.epoch = std::max(merged.epoch, slot->value().epoch);
  }
  if (gather->add_bound_fallback) ++merged.stats.prune.bound_fallbacks;

  const core::QueryRequest& req = gather->parent->request;
  const auto by_id = [](const auto& a, const auto& b) { return a.id < b.id; };
  // Bounds-only (degraded) sub answers of any predicate carry their
  // undecided intervals under shard-local ids.
  for (size_t i = 0; i < gather->subs.size(); ++i) {
    if (!gather->results[i]->ok()) continue;
    for (const core::ObjectInterval& entry :
         gather->results[i]->value().undecided) {
      merged.undecided.push_back(
          {sharded_->global_object(gather->subs[i].shard, entry.id),
           entry.lo, entry.hi});
    }
  }
  std::sort(merged.undecided.begin(), merged.undecided.end(), by_id);
  // A degraded position answer leaves every position unfilled, exactly
  // like a failed shard's; both are compacted away.
  const bool compact = partial || merged.degraded_bounds;
  switch (req.predicate) {
    case core::PredicateKind::kExists:
    case core::PredicateKind::kForAll:
      merged.probabilities = ScatterByPosition(
          gather.get(), &core::QueryResult::probabilities, compact);
      break;
    case core::PredicateKind::kKTimes:
      merged.distributions = ScatterByPosition(
          gather.get(), &core::QueryResult::distributions, compact);
      break;
    case core::PredicateKind::kThresholdExists:
    case core::PredicateKind::kTopKExists: {
      // Id translation: these answers carry shard-local ids in local
      // order. Translate, then restore the executor's order over GLOBAL
      // ids — ascending for threshold (after a rebalance migration local
      // order need not be a contiguous global range, so concatenation is
      // not enough), and for top-k the comparator (probability desc,
      // global id asc), a strict total order over unique ids, so the
      // truncated prefix is bit-identical to the unsharded partial_sort
      // no matter how objects were placed.
      for (size_t i = 0; i < gather->subs.size(); ++i) {
        if (!gather->results[i]->ok()) continue;
        for (const core::ObjectProbability& entry :
             gather->results[i]->value().probabilities) {
          merged.probabilities.push_back(
              {sharded_->global_object(gather->subs[i].shard, entry.id),
               entry.probability});
        }
      }
      std::vector<core::ObjectProbability>& answer = merged.probabilities;
      if (req.predicate == core::PredicateKind::kThresholdExists) {
        std::sort(answer.begin(), answer.end(), by_id);
      } else {
        std::sort(answer.begin(), answer.end(),
                  [](const core::ObjectProbability& a,
                     const core::ObjectProbability& b) {
                    if (a.probability != b.probability) {
                      return a.probability > b.probability;
                    }
                    return a.id < b.id;
                  });
        answer.resize(std::min<size_t>(req.k, answer.size()));
      }
      break;
    }
  }
  if (partial) {
    // Label the answer: which shards failed with what, and which objects
    // therefore went unanswered. Per-shard positions name the parent's
    // objects directly (filter entries or global ids).
    merged.partial = true;
    for (size_t i = 0; i < gather->results.size(); ++i) {
      if (gather->results[i]->ok()) continue;
      const SubRoute& sub = gather->subs[i];
      const util::Status& status = gather->results[i]->status();
      merged.shard_errors.push_back(
          {sub.shard, status.code(), status.message()});
      for (const ObjectId position : sub.positions) {
        merged.missing_objects.push_back(ParentId(req, position));
      }
    }
    std::sort(merged.missing_objects.begin(), merged.missing_objects.end());
  }
  finish(std::move(merged));
}

void QueryService::Resolve(const std::shared_ptr<TicketState>& state,
                           util::Result<core::QueryResult> outcome,
                           uint32_t latency_shard) {
  // First resolution wins. Shutdown can race a shed/retry path to the
  // same ticket (see shutdown_shed_race_test); whoever exchanges the
  // claim first owns stats and the outcome slot — the loser leaves
  // without a trace, so every ticket resolves exactly once.
  if (state->claimed.exchange(true, std::memory_order_acq_rel)) return;
  const double latency_ms =
      std::chrono::duration<double, std::milli>(Clock::now() -
                                                state->submitted_at)
          .count();
  const bool is_partial = outcome.ok() && outcome->partial;
  const bool is_degraded = outcome.ok() && outcome->degraded_bounds;
  const util::StatusCode code =
      !outcome.ok() ? outcome.status().code()
                    : (is_partial ? util::StatusCode::kPartial
                                  : util::StatusCode::kOk);
  uint64_t ServiceStats::*counter = &ServiceStats::failed;
  switch (code) {
    case util::StatusCode::kOk:
    case util::StatusCode::kPartial:
      counter = &ServiceStats::completed;
      break;
    case util::StatusCode::kCancelled:
      counter = &ServiceStats::cancelled;
      break;
    case util::StatusCode::kDeadlineExceeded:
      counter = &ServiceStats::deadline_expired;
      break;
    case util::StatusCode::kUnavailable:
      counter = &ServiceStats::rejected;
      break;
    default:
      break;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    if (is_partial) ++stats_.partial;
    if (is_degraded) ++stats_.degraded;
    ++(stats_.*counter);
    if (outcome.ok()) {
      stats_.group_subtasks += outcome->stats.group_subtasks;
      stats_.clusters_bounded += outcome->stats.prune.clusters_bounded;
      stats_.clusters_pruned += outcome->stats.prune.clusters_pruned;
      stats_.clusters_refined += outcome->stats.prune.clusters_refined;
      ShardLane& lane = *shards_[latency_shard];
      if (lane.latencies_ms.size() < kLatencyReservoir) {
        lane.latencies_ms.push_back(latency_ms);
      } else {
        lane.latencies_ms[lane.latency_next] = latency_ms;
      }
      lane.latency_next = (lane.latency_next + 1) % kLatencyReservoir;
    }
    // Slow-query ring: every traced request competes on latency; the
    // ring keeps the N slowest with their full span breakdowns.
    if (options_.obs.enabled && state->request.trace != nullptr &&
        options_.obs.slow_query_ring > 0) {
      SlowQuery record;
      record.latency_ms = latency_ms;
      record.predicate = state->request.predicate;
      record.priority = state->priority;
      record.code = code;
      record.spans = state->request.trace->spans();
      record.retries = state->retries.load(std::memory_order_relaxed);
      record.partial = is_partial;
      record.degraded = is_degraded;
      slow_ring_.push_back(std::move(record));
      std::sort(slow_ring_.begin(), slow_ring_.end(),
                [](const SlowQuery& a, const SlowQuery& b) {
                  return a.latency_ms > b.latency_ms;
                });
      if (slow_ring_.size() > options_.obs.slow_query_ring) {
        slow_ring_.resize(options_.obs.slow_query_ring);
      }
    }
  }
  if (options_.obs.enabled && outcome.ok()) {
    shards_[latency_shard]->latency.Observe(latency_ms / 1e3);
  }
  {
    std::lock_guard<std::mutex> lock(state->mu);
    assert(!state->resolved && "ticket resolved twice");
    state->outcome = std::move(outcome);
    state->resolved = true;
  }
  state->cv.notify_all();
}

// ---------------------------------------------------------------------------
// Ingest + subscriptions
// ---------------------------------------------------------------------------

util::Result<DataVersion> QueryService::AppendObservation(
    ObjectId id, core::Observation obs,
    const std::shared_ptr<obs::QueryTrace>& trace) {
  if (mutable_sharded_ == nullptr) {
    return util::Status::FailedPrecondition(
        "service was constructed over a const database; ingest is disabled");
  }
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stopping_) {
      return util::Status::Unavailable("query service is shut down");
    }
  }
  const bool timing = options_.obs.enabled || trace != nullptr;
  const Clock::time_point t0 = timing ? Clock::now() : Clock::time_point();
  const auto finish = [&](util::Result<DataVersion> outcome) {
    const Clock::time_point t1 = timing ? Clock::now() : Clock::time_point();
    if (trace != nullptr) {
      trace->Record(obs::Stage::kIngest, t0, t1, /*shard=*/-1,
                    outcome.ok() ? "applied" : "rejected");
    }
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++(outcome.ok() ? stats_.ingested : stats_.ingest_rejected);
    }
    if (options_.obs.enabled) {
      ingest_latency_.Observe(std::chrono::duration<double>(t1 - t0).count());
    }
    return outcome;
  };
  // Ingest fault point: a firing fail/throw rule rejects the append
  // before any state changes (a stall just delays the apply).
  if (util::Status injected = InjectServicePoint(util::FaultPoint::kIngest);
      !injected.ok()) {
    return finish(std::move(injected));
  }

  util::Result<DataVersion> version = [&]() -> util::Result<DataVersion> {
    if (id >= mutable_sharded_->num_objects()) {
      // Bounds check BEFORE the shard lookup: the router's own check
      // sits behind shard_of_object, which indexes unconditionally.
      return util::Status::NotFound("object " + std::to_string(id) +
                                    " does not exist");
    }
    const uint32_t s = mutable_sharded_->shard_of_object(id);
    // The shard's ingest lock serializes the whole allocate+apply
    // against that shard's dispatch AND against concurrent appends to
    // the same shard, so per-shard versions apply in increasing order.
    std::lock_guard<std::mutex> db_lock(shards_[s]->db_mu);
    return mutable_sharded_->AppendObservation(id, std::move(obs));
  }();
  if (version.ok()) MarkDirtyForIngest(id);
  return finish(std::move(version));
}

void QueryService::MarkDirtyForIngest(ObjectId id) {
  std::lock_guard<std::mutex> lock(subs_mu_);
  for (const std::shared_ptr<SubscriptionState>& sub : subscriptions_) {
    if (sub->cancelled.load(std::memory_order_acquire)) continue;
    if (!sub->policy.refresh_on_ingest) continue;
    const std::optional<std::vector<ObjectId>>& filter =
        sub->request.object_filter;
    if (filter.has_value() &&
        std::find(filter->begin(), filter->end(), id) == filter->end()) {
      continue;
    }
    sub->dirty = true;
  }
}

util::Result<Subscription> QueryService::Subscribe(
    core::QueryRequest request, WindowPolicy policy,
    SubscriptionCallback callback) {
  if (request.predicate == core::PredicateKind::kKTimes) {
    return util::Status::InvalidArgument(
        "kKTimes has no answer-set delta form; poll Submit() instead");
  }
  if (callback == nullptr) {
    return util::Status::InvalidArgument("subscription callback is null");
  }
  USTDB_RETURN_NOT_OK(ValidateRequest(request));
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stopping_) {
      return util::Status::Unavailable("query service is shut down");
    }
  }
  auto state = std::make_shared<SubscriptionState>();
  // Per-refresh submissions manage their own cancellation and tracing;
  // a caller-attached trace would accumulate spans forever.
  request.trace = nullptr;
  request.cancel = util::CancellationToken();
  state->request = std::move(request);
  state->policy = policy;
  state->callback = std::move(callback);
  {
    std::lock_guard<std::mutex> lock(subs_mu_);
    state->id = next_subscription_id_++;
    subscriptions_.push_back(state);
  }
  return Subscription(std::move(state));
}

void QueryService::TickWindows(Timestamp steps) {
  if (steps == 0) return;
  std::lock_guard<std::mutex> lock(subs_mu_);
  for (const std::shared_ptr<SubscriptionState>& sub : subscriptions_) {
    if (sub->cancelled.load(std::memory_order_acquire)) continue;
    if (sub->policy.slide == 0) continue;
    sub->request.window =
        sub->request.window.ShiftedBy(sub->policy.slide * steps);
    sub->dirty = true;
  }
}

size_t QueryService::num_subscriptions() const {
  std::lock_guard<std::mutex> lock(subs_mu_);
  size_t active = 0;
  for (const std::shared_ptr<SubscriptionState>& sub : subscriptions_) {
    if (!sub->cancelled.load(std::memory_order_acquire)) ++active;
  }
  return active;
}

SubscriptionDelta QueryService::BuildDelta(SubscriptionState& sub,
                                           const core::QueryResult& result) {
  SubscriptionDelta delta;
  delta.subscription_id = sub.id;
  delta.epoch = result.epoch;
  delta.partial = result.partial;
  std::vector<core::ObjectProbability> now = result.probabilities;
  std::sort(now.begin(), now.end(),
            [](const core::ObjectProbability& a,
               const core::ObjectProbability& b) { return a.id < b.id; });
  // Merge-walk the id-sorted answer sets. Exact probability comparison:
  // the refresh pipeline is bit-identical to a one-shot query, so any
  // difference is a real data change, never evaluation noise.
  size_t i = 0;
  size_t j = 0;
  const std::vector<core::ObjectProbability>& prev = sub.last_answer;
  while (i < now.size() || j < prev.size()) {
    if (j == prev.size() || (i < now.size() && now[i].id < prev[j].id)) {
      delta.entered.push_back(now[i]);
      ++i;
    } else if (i == now.size() || prev[j].id < now[i].id) {
      delta.left.push_back(prev[j].id);
      ++j;
    } else {
      if (now[i].probability != prev[j].probability) {
        delta.changed.push_back(now[i]);
      }
      ++i;
      ++j;
    }
  }
  delta.sequence = sub.sequence.load(std::memory_order_relaxed) + 1;
  sub.last_answer = std::move(now);
  sub.sequence.store(delta.sequence, std::memory_order_release);
  return delta;
}

size_t QueryService::RefreshSubscriptions() {
  // One round at a time: refresh_mu_ alone guards the delivered state
  // (last_answer, sequences), and serialized rounds keep sequence
  // numbers monotonic per subscription by construction.
  std::lock_guard<std::mutex> round_lock(refresh_mu_);
  std::vector<std::shared_ptr<SubscriptionState>> round;
  std::vector<core::QueryRequest> requests;
  {
    std::lock_guard<std::mutex> lock(subs_mu_);
    // Sweep cancelled subscriptions out of the registry while here.
    std::erase_if(subscriptions_,
                  [](const std::shared_ptr<SubscriptionState>& sub) {
                    return sub->cancelled.load(std::memory_order_acquire);
                  });
    for (const std::shared_ptr<SubscriptionState>& sub : subscriptions_) {
      if (!sub->dirty) continue;
      sub->dirty = false;
      round.push_back(sub);
      requests.push_back(sub->request);  // window snapshot
    }
  }
  if (round.empty()) return 0;

  // ONE burst for the whole round: the dispatchers observe it atomically,
  // so same-window standing queries coalesce into shared RunBatch groups
  // (and slid windows hit the cache's shift-extension path).
  std::vector<QueryTicket> tickets =
      SubmitBurst(std::move(requests), Priority::kInteractive);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.subscription_refreshes;
  }

  size_t delivered = 0;
  for (size_t i = 0; i < round.size(); ++i) {
    SubscriptionState& sub = *round[i];
    util::Result<core::QueryResult> result = tickets[i].Get();
    if (!result.ok()) {
      std::lock_guard<std::mutex> lock(subs_mu_);
      if (IsTransient(result.status().code())) {
        // Backpressure rejection, quarantine, injected fault: stay dirty
        // and retry next round.
        sub.dirty = true;
      } else {
        // No retry can cure it (a passed deadline, a window before an
        // object's first observation, an inconsistent history): close.
        sub.status = result.status();
        sub.closed.store(true, std::memory_order_release);
        std::erase(subscriptions_, round[i]);
      }
      continue;
    }
    if (sub.cancelled.load(std::memory_order_acquire)) continue;
    const std::shared_ptr<obs::QueryTrace>& trace =
        tickets[i].state_->request.trace;  // sampled like any submission
    const Clock::time_point n0 =
        trace != nullptr ? Clock::now() : Clock::time_point();
    SubscriptionDelta delta = BuildDelta(sub, result.value());
    sub.callback(delta);
    ++delivered;
    if (trace != nullptr) {
      trace->Record(obs::Stage::kNotify, n0, Clock::now(), /*shard=*/-1,
                    "entered=" + std::to_string(delta.entered.size()) +
                        " left=" + std::to_string(delta.left.size()) +
                        " changed=" + std::to_string(delta.changed.size()));
    }
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.subscription_deltas += delivered;
  }
  return delivered;
}

void QueryService::Shutdown() {
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mu_);
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stopping_ = true;
    paused_ = false;
  }
  for (std::unique_ptr<ShardLane>& lane : shards_) {
    lane->work_cv.notify_all();
  }
  space_cv_.notify_all();
  for (std::unique_ptr<ShardLane>& lane : shards_) {
    if (lane->dispatcher.joinable()) lane->dispatcher.join();
  }
}

void QueryService::Pause() {
  std::lock_guard<std::mutex> lock(queue_mu_);
  paused_ = true;
}

void QueryService::Resume() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    paused_ = false;
  }
  for (std::unique_ptr<ShardLane>& lane : shards_) {
    lane->work_cv.notify_one();
  }
}

size_t QueryService::QueueDepthLocked() const {
  size_t depth = 0;
  for (const std::unique_ptr<ShardLane>& lane : shards_) {
    depth += lane->lanes[0].size() + lane->lanes[1].size();
  }
  return depth;
}

size_t QueryService::queue_depth() const {
  std::lock_guard<std::mutex> lock(queue_mu_);
  return QueueDepthLocked();
}

std::vector<SlowQuery> QueryService::slow_queries() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return slow_ring_;
}

ServiceStats QueryService::stats() const {
  size_t depth = 0;
  size_t peak = 0;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    depth = QueueDepthLocked();
    peak = queue_peak_;
  }
  ServiceStats out;
  std::vector<std::vector<double>> reservoirs;
  reservoirs.reserve(shards_.size());
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    out = stats_;
    for (const std::unique_ptr<ShardLane>& lane : shards_) {
      out.solo_dispatches += lane->solo_dispatches;
      out.coalesced_batches += lane->coalesced_batches;
      out.coalesced_requests += lane->coalesced_requests;
      out.quarantines += lane->quarantines;
      out.probes += lane->probes;
      out.watchdog_trips += lane->watchdog_trips;
      reservoirs.push_back(lane->latencies_ms);
      const core::EngineCacheStats cache = lane->executor.cache_stats();
      out.cache.hits += cache.hits;
      out.cache.misses += cache.misses;
      out.cache.evictions += cache.evictions;
      out.cache.bound_hits += cache.bound_hits;
      out.cache.bound_misses += cache.bound_misses;
      out.cache.bound_evictions += cache.bound_evictions;
      out.cache.invalidations += cache.invalidations;
      out.cache.shift_extends += cache.shift_extends;
    }
  }
  out.subscriptions_active = num_subscriptions();
  const internal::LatencyPercentiles percentiles =
      internal::MergeLatencyPercentiles(reservoirs);
  out.latency_p50_ms = percentiles.p50_ms;
  out.latency_p99_ms = percentiles.p99_ms;
  out.queue_depth = depth;
  out.queue_peak = peak;
  return out;
}

void QueryService::CollectMetrics(obs::MetricsWriter* out) const {
  const obs::Labels& base = options_.obs.labels;
  // Gauges read the state they describe, exact at the snapshot instant.
  out->AddGauge("ustdb_service_queue_depth", base,
                static_cast<double>(queue_depth()),
                "Queued entries across all lanes and shards", "requests");
  out->AddGauge("ustdb_subscriptions_active", base,
                static_cast<double>(num_subscriptions()),
                "Registered, not-yet-cancelled standing queries",
                "subscriptions");
  // PrepareState samples submission seq when seq % every == 0.
  const uint64_t every = options_.obs.trace_sample_every;
  const uint64_t seq = submit_seq_.load(std::memory_order_relaxed);
  out->AddCounter("ustdb_service_traces_sampled_total", base,
                  every == 0 ? 0 : (seq + every - 1) / every,
                  "Submissions that got a rate-sampled QueryTrace attached",
                  "requests");
  out->AddHistogram("ustdb_ingest_seconds", base, ingest_latency_.Snapshot(),
                    "Apply + invalidation-bookkeeping time of each append",
                    "seconds");

  std::lock_guard<std::mutex> lock(stats_mu_);
  const ServiceStats& st = stats_;
  out->AddCounter("ustdb_service_submitted_total", base, st.submitted,
                  "Tickets handed out by Submit/SubmitBurst", "requests");
  out->AddCounters("ustdb_service_requests_total", base, "outcome",
                   {{"ok", st.completed - st.partial},
                    {"cancelled", st.cancelled},
                    {"deadline", st.deadline_expired},
                    {"rejected", st.rejected},
                    {"failed", st.failed},
                    {"partial", st.partial}},
                   "Tickets resolved, by outcome", "requests");
  out->AddCounters("ustdb_service_shed_total", base, "shed_reason",
                   {{"bulk_overload", st.shed_bulk},
                    {"interactive_overload", st.shed_interactive}},
                   "Submissions shed by admission control", "requests");
  out->AddCounter("ustdb_service_retries_total", base, st.retries,
                  "Sub-request retry attempts scheduled", "retries");
  out->AddCounter("ustdb_service_degraded_total", base, st.degraded,
                  "Requests answered from interval bounds alone",
                  "requests");
  out->AddCounters("ustdb_ingest_total", base, "outcome",
                   {{"applied", st.ingested}, {"rejected", st.ingest_rejected}},
                   "Observations ingested, by outcome", "observations");
  out->AddCounter("ustdb_subscription_refreshes_total", base,
                  st.subscription_refreshes,
                  "Refresh rounds that ran >= 1 standing query", "rounds");
  out->AddCounter("ustdb_subscription_deltas_total", base,
                  st.subscription_deltas,
                  "Answer-set deltas delivered to subscription callbacks",
                  "deltas");
  out->AddCounter("ustdb_service_scatter_requests_total", base,
                  st.scatter_requests,
                  "Requests the router scattered across >= 2 shard lanes",
                  "requests");
  out->AddCounter("ustdb_service_scatter_subtasks_total", base,
                  st.scatter_subtasks,
                  "Per-shard sub-requests enqueued by scattered requests",
                  "requests");

  for (size_t s = 0; s < shards_.size(); ++s) {
    const ShardLane& lane = *shards_[s];
    obs::Labels labels = base;
    labels["shard"] = std::to_string(s);
    out->AddHistogram("ustdb_service_queue_wait_seconds", labels,
                      lane.queue_wait.Snapshot(),
                      "Submit-to-dequeue wait of each dispatched entry",
                      "seconds");
    out->AddHistogram("ustdb_service_dispatch_seconds", labels,
                      lane.dispatch.Snapshot(),
                      "Dequeue-to-run-returned time of each dispatch",
                      "seconds");
    out->AddHistogram("ustdb_service_request_latency_seconds", labels,
                      lane.latency.Snapshot(),
                      "End-to-end latency of OK requests (matches the "
                      "reservoir percentiles' population)",
                      "seconds");
    out->AddCounters("ustdb_service_dispatches_total", labels, "kind",
                     {{"solo", lane.solo_dispatches},
                      {"coalesced", lane.coalesced_batches}},
                     "Dispatches, by single-entry vs coalesced drain",
                     "dispatches");
    out->AddCounter("ustdb_service_coalesced_requests_total", labels,
                    lane.coalesced_requests,
                    "Queued entries carried by coalesced dispatches",
                    "requests");
    out->AddGauge("ustdb_service_shard_health", labels,
                  static_cast<double>(lane.health.health()),
                  "Shard health state: 0=healthy, 1=degraded, 2=quarantined",
                  "state");
    out->AddCounter(
        "ustdb_service_quarantines_total", labels, lane.quarantines,
        "Transitions into kQuarantined (failures + watchdog trips)",
        "transitions");
    out->AddCounter("ustdb_service_probes_total", labels, lane.probes,
                    "Probe sub-requests admitted to a quarantined shard",
                    "probes");
    out->AddCounter("ustdb_service_watchdog_trips_total", labels,
                    lane.watchdog_trips, "Dispatcher-stall watchdog trips",
                    "trips");
  }
}

}  // namespace service
}  // namespace ustdb
