#include "core/executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "core/k_times.h"
#include "core/multi_observation.h"
#include "obs/trace.h"
#include "util/fault_injector.h"
#include "util/string_util.h"

namespace ustdb {
namespace core {

namespace {

/// Multi-observation objects (or single observations not at t=0) bypass
/// both single-observation plans; Section VI answers them. The rule lives
/// on UncertainObject so the shard router's census matches exactly.
bool NeedsMultiObservation(const UncertainObject& obj) {
  return obj.needs_multi_observation_engine();
}

/// Whether a multi-observation object reads its chain's head: when every
/// observation lies at or before the window's first time t_b, the Markov
/// property gives P∃ = α(t_b) · head. Every other one — an observation
/// after t_b (time-interpolation, or a window that starts before the first
/// observation: Unimplemented) — runs the doubled-state
/// MultiObservationEngine. The census and the evaluation loop share this
/// rule, so an object's path depends on the request alone, never on what
/// the cache holds.
bool ReadsHead(const UncertainObject& obj, const QueryWindow& window) {
  return obj.observations.back().time <= window.t_begin();
}

/// Groups of a batch are keyed by the content of the effective window
/// (region elements + time set): requests with equal keys share every
/// per-chain engine.
using GroupKey = std::pair<std::vector<uint32_t>, std::vector<Timestamp>>;

/// Soundness margin of every bound decision. The envelope sweep
/// accumulates strictly sequentially, but the exact engines a refine (or
/// the full-precision twin a degraded answer must never contradict) runs
/// reassociating dense kernels that only promise ≤1e-12 of that order — so
/// a slack-free bound can sit a few ulps on the wrong side of the exact
/// value. Certainty on either side of τ therefore requires clearing it by
/// this margin; knife-edge objects (τ pinned exactly at a probability)
/// stay in the refine set, which is always sound.
constexpr double kKernelParityMargin = 1e-12;

/// Which cooperative stop fired. Workers race to record the first one they
/// observe; when a cancellation and a deadline trip simultaneously either
/// status is a faithful answer.
enum class StopReason : int { kNone = 0, kCancelled = 1, kDeadline = 2 };

util::Status StopStatus(StopReason reason) {
  return reason == StopReason::kCancelled
             ? util::Status::Cancelled("query cancelled by caller")
             : util::Status::DeadlineExceeded("query deadline exceeded");
}

/// Submission-time stop check of the RunBatch census: a request that is
/// already cancelled or past its deadline fails before any engine is built
/// or object evaluated.
util::Status CheckNotStopped(const QueryRequest& request) {
  if (request.cancel.stop_requested()) {
    return util::Status::Cancelled("query cancelled before execution");
  }
  if (request.deadline.has_value() &&
      std::chrono::steady_clock::now() >= *request.deadline) {
    return util::Status::DeadlineExceeded(
        "query deadline passed before execution");
  }
  return util::Status::OK();
}

/// The cooperative stop predicate of every evaluation loop: polls
/// the request's token and deadline, latching which reason fired first.
/// Thread-safe; workers racing the latch may each record a reason, any
/// single observed one is a faithful answer.
class StopPoller {
 public:
  explicit StopPoller(const QueryRequest& request)
      : request_(request), has_deadline_(request.deadline.has_value()) {}

  bool ShouldStop() {
    if (reason_.load(std::memory_order_relaxed) !=
        static_cast<int>(StopReason::kNone)) {
      return true;
    }
    if (request_.cancel.stop_requested()) {
      reason_.store(static_cast<int>(StopReason::kCancelled),
                    std::memory_order_relaxed);
      return true;
    }
    if (has_deadline_ &&
        std::chrono::steady_clock::now() >= *request_.deadline) {
      reason_.store(static_cast<int>(StopReason::kDeadline),
                    std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  /// Status of the observed stop, or OK when no stop fired.
  util::Status ToStatus() const {
    const auto reason = static_cast<StopReason>(reason_.load());
    if (reason == StopReason::kNone) return util::Status::OK();
    return StopStatus(reason);
  }

  /// Whether a stop was observed, without polling again.
  bool stopped() const {
    return reason_.load(std::memory_order_relaxed) !=
           static_cast<int>(StopReason::kNone);
  }

 private:
  const QueryRequest& request_;
  const bool has_deadline_;
  std::atomic<int> reason_{static_cast<int>(StopReason::kNone)};
};

/// The group pass's view of a backward pass's start vector v: v's own
/// array when dense, else v's support scattered into a worker-local buffer
/// that holds zeros between views, cleared again when the view ends — so
/// a view costs O(support), never O(states). Dot(pdf) reads v by index
/// (ProbVector::DotDense), bit-identical to the engine's pdf.Dot(v).
class DenseView {
 public:
  explicit DenseView(const sparse::ProbVector& v)
      : v_(v), data_(v.dense_data()) {
    if (data_ != nullptr) return;
    if (buffer_.size() < v.size()) buffer_.resize(v.size(), 0.0);
    v.ForEachNonZero([](uint32_t i, double x) { buffer_[i] = x; });
    data_ = buffer_.data();
  }
  ~DenseView() {
    if (data_ != buffer_.data()) return;
    v_.ForEachNonZero([](uint32_t i, double) { buffer_[i] = 0.0; });
  }
  DenseView(const DenseView&) = delete;
  DenseView& operator=(const DenseView&) = delete;

  double Dot(const sparse::ProbVector& pdf) const {
    return pdf.DotDense(v_, data_);
  }

 private:
  static thread_local std::vector<double> buffer_;
  const sparse::ProbVector& v_;
  const double* data_;
};

thread_local std::vector<double> DenseView::buffer_;

}  // namespace

/// Per-group, per-chain engine bundle: the decided plan plus the engines
/// realizing it. QB engines are borrowed from the cache on a hit, owned
/// when built by this batch (admitted to the cache after evaluation). The
/// want_* flags are filled by the batch planner so the build phase knows
/// which engines to construct.
struct QueryExecutor::ChainPlan {
  Plan plan = Plan::kQueryBased;
  bool want_qb = false;
  bool want_ob = false;
  bool want_ktimes = false;
  const QueryBasedEngine* qb = nullptr;
  std::unique_ptr<QueryBasedEngine> qb_owned;
  std::unique_ptr<ObjectBasedEngine> ob;
  std::unique_ptr<KTimesEngine> ktimes;
  /// A cache-borrowed same-epoch pass for this window shifted backward by
  /// qb_shift_delta. The build phase extends it in
  /// delta steps instead of building cold; the borrow stays valid through
  /// the parallel phase because cache bookkeeping (which alone can evict)
  /// happens only on the submitting thread, before and after it.
  const QueryBasedEngine* qb_shift_base = nullptr;
  Timestamp qb_shift_delta = 0;
  /// Some member has objects that read this chain's head (ReadsHead). A
  /// pass this batch builds keeps one (or shares its shift base's);
  /// otherwise the head is `head_owned`.
  bool want_head = false;
  /// QueryBasedEngine::HeadPass of the window, built by this batch when
  /// the chain has no backward pass (its single-observation objects run
  /// object-based, or it has none) or its borrowed pass kept no head.
  /// Never cached: cache contents and counts stay independent of which
  /// objects a batch holds.
  std::optional<sparse::ProbVector> head_owned;

  /// The members resolving the chain query-based. When one of them
  /// evaluates every object, the chain is `shared`: the group pass
  /// computes each single-observation object's P∃ once, into
  /// BatchGroup::shared, and all of them read it there.
  std::vector<ExistsEval*> readers;
  bool shared = false;

  /// The window's head; valid after the build phase when want_head.
  const sparse::ProbVector& head() const {
    return head_owned.has_value() ? *head_owned : *qb->head();
  }

  /// The plan this request evaluates the chain with: its pinned plan if
  /// any, the planner's decision otherwise.
  Plan Resolve(const QueryRequest& request) const {
    if (request.plan == PlanChoice::kObjectBased) return Plan::kObjectBased;
    if (request.plan == PlanChoice::kQueryBased) return Plan::kQueryBased;
    return plan;
  }
};

/// One RunBatch group: every member request shares the effective window,
/// and therefore every engine in `plans`.
struct QueryExecutor::BatchGroup {
  QueryWindow window;  // effective (complemented region for ∀ members)

  /// Census of one member request, taken on the submitting thread.
  struct Member {
    size_t request_index = 0;
    std::map<ChainId, uint32_t> single_obs_per_chain;
    /// Multi-observation objects that read their chain's head (ReadsHead);
    /// every one is in the refine set too, so bounds members keep it.
    std::vector<ObjectId> head_ids;
    /// True once the member's result slot is already filled (stopped
    /// during the bound phase); later phases skip it.
    bool resolved = false;
    /// kBoundsThenRefine members: the bound pass ran and `refine_ids` is
    /// the member's evaluated id set (undecided objects only, refined
    /// query-based); its counters are in the member's ExecStats::prune.
    /// The census fields above are re-taken over the refine set.
    bool bounds = false;
    std::vector<ObjectId> refine_ids;
    /// The member's bound pass, stamped when timing is on: its trace gets
    /// a `bound` span here and `plan` spans around it.
    std::chrono::steady_clock::time_point bound_begin;
    std::chrono::steady_clock::time_point bound_end;
  };
  std::vector<Member> members;

  std::vector<ChainPlan> plans;  // indexed by ChainId
  /// Some chain has ChainPlan::shared. The pass's values, indexed by
  /// ObjectId, live from the group's first member's wave to its last
  /// member's assembly.
  bool pass = false;
  std::unique_ptr<double[]> shared;
  /// Chains whose QB engine missed the cache and is built inside the
  /// group task; the builds are inserted into the cache after the
  /// parallel phase.
  std::vector<ChainId> qb_to_build;
  /// Cache-stat deltas of this group's lookups, reported on the first
  /// successfully answered member so aggregating over members never
  /// double-counts (a member that then fails would drop them, and the
  /// answers would no longer reconcile with cache_stats()).
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_invalidations = 0;
  uint64_t cache_shift_extends = 0;
  bool cache_stats_attributed = false;
};

/// Shared state of one exists-family evaluation: the cooperative-stop
/// poller, the first-error latch, and the progress counters. One instance
/// per batch member; workers touching disjoint object ranges share it
/// through atomics only.
struct QueryExecutor::ExistsEval {
  explicit ExistsEval(const QueryRequest& request) : poller(request) {}

  bool ShouldStop() {
    return failed.load(std::memory_order_relaxed) || poller.ShouldStop();
  }

  /// Resolution status: the first evaluation error, else the stop status,
  /// else OK. Call after all workers finished.
  util::Status Finish() {
    if (failed.load()) return first_error;
    return poller.ToStatus();
  }

  /// A stop or an error was observed, without polling again.
  bool stopped() const {
    return failed.load(std::memory_order_relaxed) || poller.stopped();
  }

  StopPoller poller;
  /// True for the refine stage of a bounds-then-refine evaluation: every
  /// single-observation object resolves query-based regardless of the
  /// chain's decided plan (kept probabilities thereby stay bit-identical
  /// to the pure query-based plan's), even when the plans table is shared
  /// with differently planned members.
  bool force_query_based = false;
  /// The member evaluates every object (no filter, no refine set): the
  /// group pass adds the objects it computes while the member is live to
  /// `singles`, so the member's own reads of it do not count.
  bool pass_counts = false;
  std::atomic<bool> failed{false};
  std::atomic<uint32_t> early{0};
  std::atomic<uint32_t> singles{0};
  std::atomic<uint32_t> multis{0};
  /// Of `multis`, those answered α · head (trace detail only).
  std::atomic<uint32_t> via_head{0};
  /// Objects read from the group pass (trace detail only).
  std::atomic<uint32_t> shared{0};
  std::mutex error_mu;
  util::Status first_error = util::Status::OK();
};

/// ExistsEval's k-times counterpart (k-times evaluation cannot fail).
struct QueryExecutor::KTimesEval {
  explicit KTimesEval(const QueryRequest& request) : poller(request) {}

  StopPoller poller;
  std::atomic<uint32_t> done{0};
};

/// Either the caller's filter (borrowed — the request outlives the run) or
/// the implicit identity range [0, num_objects); never materializes ids.
class QueryExecutor::Selection {
 public:
  Selection(const QueryRequest& request, uint32_t num_objects)
      : filter_(request.object_filter.has_value() ? &*request.object_filter
                                                  : nullptr),
        size_(filter_ != nullptr ? filter_->size() : num_objects) {}

  /// View of an explicit id list (the bound pass's refine set); `ids` must
  /// outlive the selection.
  explicit Selection(const std::vector<ObjectId>* ids)
      : filter_(ids), size_(ids->size()) {}

  size_t size() const { return size_; }
  ObjectId operator[](size_t i) const {
    return filter_ != nullptr ? (*filter_)[i] : static_cast<ObjectId>(i);
  }

 private:
  const std::vector<ObjectId>* filter_;
  size_t size_;
};

QueryExecutor::QueryExecutor(const Database* db, ExecutorOptions options)
    : db_(db),
      options_(options),
      threads_(util::ResolveThreadCount(options.num_threads)),
      planner_(db),
      cache_(options.cache_capacity),
      pool_(options.num_threads) {
  if (auto it = options_.obs.labels.find("shard");
      it != options_.obs.labels.end()) {
    trace_shard_ = std::atoi(it->second.c_str());
  }
  if (options_.obs.enabled) {
    options_.obs.ResolvedRegistry()->AddCollector(
        this, [this](obs::MetricsWriter* out) { CollectMetrics(out); });
  }
}

QueryExecutor::~QueryExecutor() {
  if (options_.obs.enabled) {
    options_.obs.ResolvedRegistry()->RemoveCollector(this);
  }
}

EngineCacheStats QueryExecutor::cache_stats() const {
  std::lock_guard<std::mutex> lock(totals_mu_);
  return totals_.cache;
}

void QueryExecutor::CollectMetrics(obs::MetricsWriter* out) const {
  const obs::Labels& base = options_.obs.labels;
  for (const auto& [stage, histogram] :
       {std::pair{"plan", &stage_plan_}, std::pair{"bound", &stage_bound_},
        std::pair{"engine_build", &stage_build_},
        std::pair{"evaluate", &stage_evaluate_}}) {
    obs::Labels labels = base;
    labels["stage"] = stage;
    out->AddHistogram("ustdb_exec_stage_seconds", labels,
                      histogram->Snapshot(),
                      "Executor stage durations (plan decision, bound pass, "
                      "engine build, per-object evaluation)",
                      "seconds");
  }

  std::lock_guard<std::mutex> lock(totals_mu_);
  const RunTotals& t = totals_;
  out->AddCounters("ustdb_exec_chains_total", base, "plan",
                   {{"object_based", t.chains_object_based},
                    {"query_based", t.chains_query_based}},
                   "Chain classes evaluated, by decided plan");
  out->AddCounters("ustdb_exec_objects_total", base, "kind",
                   {{"single", t.objects_evaluated},
                    {"multi", t.objects_multi_observation}},
                   "Objects answered, by engine kind");
  out->AddCounters("ustdb_exec_cache_events_total", base, "kind",
                   {{"hit", t.cache.hits},
                    {"miss", t.cache.misses},
                    {"eviction", t.cache.evictions},
                    {"invalidation", t.cache.invalidations},
                    {"shift_extend", t.cache.shift_extends},
                    {"bound_hit", t.cache.bound_hits},
                    {"bound_miss", t.cache.bound_misses},
                    {"bound_eviction", t.cache.bound_evictions}},
                   "EngineCache events (QB store and cluster bound store)");
  out->AddCounters("ustdb_prune_clusters_total", base, "outcome",
                   {{"bounded", t.clusters_bounded},
                    {"pruned", t.clusters_pruned},
                    {"refined", t.clusters_refined}},
                   "Section V-C cluster bound-pass outcomes (see PruneStats)");
  out->AddCounters("ustdb_prune_objects_total", base, "outcome",
                   {{"decided_by_bounds", t.objects_decided_by_bounds},
                    {"refined", t.objects_refined},
                    {"decided_early", t.objects_decided_early}},
                   "Per-object pruning outcomes (see PruneStats)");
  out->AddCounter(
      "ustdb_prune_bound_fallbacks_total", base, t.bound_fallbacks,
      "Requested/chosen bound passes that fell back to per-chain plans");
  out->AddCounters("ustdb_exec_runs_total", base, "kind", {{"batch", t.runs}},
                   "Executor runs (Run is a one-member RunBatch)");
}

util::Status CheckWindowDomain(const QueryWindow& window,
                               const markov::MarkovChain& chain) {
  if (window.region().domain_size() == chain.num_states()) {
    return util::Status::OK();
  }
  return util::Status::InvalidArgument(util::StringPrintf(
      "query window is over %u states, but an evaluated object's chain "
      "has %u",
      window.region().domain_size(), chain.num_states()));
}

util::Status QueryExecutor::ValidateRequest(
    const QueryRequest& request) const {
  if (!request.object_filter.has_value()) {
    for (ChainId c = 0; c < db_->num_chains(); ++c) {
      if (db_->objects_by_chain()[c].empty()) continue;
      USTDB_RETURN_NOT_OK(CheckWindowDomain(request.window, db_->chain(c)));
    }
    return util::Status::OK();
  }
  for (ObjectId id : *request.object_filter) {
    if (id >= db_->num_objects()) {
      return util::Status::InvalidArgument(
          "object_filter references an id outside the database");
    }
    USTDB_RETURN_NOT_OK(CheckWindowDomain(
        request.window, db_->chain(db_->object(id).chain)));
  }
  return util::Status::OK();
}

void QueryExecutor::PartitionByCluster(
    const Selection& ids,
    std::map<uint32_t, std::vector<ObjectId>>* cluster_objects,
    std::vector<ObjectId>* refine) const {
  for (size_t i = 0; i < ids.size(); ++i) {
    const UncertainObject& obj = db_->object(ids[i]);
    if (NeedsMultiObservation(obj)) {
      refine->push_back(ids[i]);
    } else {
      (*cluster_objects)[db_->cluster_of(obj.chain)].push_back(ids[i]);
    }
  }
}

util::Result<const std::vector<markov::ProbBound>*>
QueryExecutor::ClusterBounds(uint32_t cluster_index, const QueryWindow& window,
                             bool with_lower) {
  const ChainCluster& cluster = db_->chain_clusters()[cluster_index];
  const ChainId leader = cluster.leader;
  const uint32_t num_members = static_cast<uint32_t>(cluster.members.size());
  // Cluster stores are tagged with the cluster's epoch: a mutation of any
  // member chain's object drops this cluster's entries lazily while every
  // other cluster keeps its envelope and bound passes.
  const DataVersion epoch = db_->cluster_epoch(cluster_index);
  if (const std::vector<markov::ProbBound>* bounds =
          cache_.LookupBounds(leader, num_members, window, epoch)) {
    return bounds;
  }
  const markov::IntervalMarkovChain* envelope =
      cache_.LookupEnvelope(leader, num_members, epoch);
  if (envelope == nullptr) {
    std::vector<const markov::MarkovChain*> members;
    members.reserve(cluster.members.size());
    for (ChainId c : cluster.members) members.push_back(&db_->chain(c));
    USTDB_ASSIGN_OR_RETURN(markov::IntervalMarkovChain built,
                           markov::IntervalMarkovChain::FromChains(members));
    envelope =
        cache_.PutEnvelope(leader, num_members, std::move(built), epoch);
  }
  return cache_.PutBounds(
      leader, num_members, window,
      envelope->BoundExists(window.region(), window.t_begin(), window.t_end(),
                            with_lower),
      epoch);
}

util::Status QueryExecutor::BoundClusters(
    const QueryRequest& request, const QueryWindow& window,
    const std::map<uint32_t, std::vector<ObjectId>>& cluster_objects,
    std::vector<ObjectId>* refine, PruneStats* prune) {
  StopPoller poller(request);
  const double drop_below = request.tau - kKernelParityMargin;
  for (const auto& [cluster_index, objects] : cluster_objects) {
    // Clusters are the bound pass's unit of progress: a cancellation or
    // deadline observed here abandons the remaining clusters unbounded.
    if (poller.ShouldStop()) return poller.ToStatus();
    // Upper bounds only: the drop test below never reads lo, and skipping
    // the lower propagation halves the bound pass.
    USTDB_ASSIGN_OR_RETURN(
        const std::vector<markov::ProbBound>* bounds,
        ClusterBounds(cluster_index, window, /*with_lower=*/false));
    ++prune->clusters_bounded;
    bool any_refined = false;
    for (ObjectId id : objects) {
      const UncertainObject& obj = db_->object(id);
      double hi = 0.0;
      obj.initial_pdf().ForEachNonZero(
          [&](uint32_t s, double p) { hi += p * (*bounds)[s].hi; });
      if (hi < drop_below) {
        // Sound drop: every member chain's true P∃ is at most hi (plus
        // the kernel margin). Objects whose bound straddles (or clears) τ
        // all refine — qualifying objects need their exact probability
        // for the output anyway, so a sure-hit lower bound saves nothing.
        ++prune->objects_decided_by_bounds;
      } else {
        any_refined = true;
        refine->push_back(id);
      }
    }
    ++(any_refined ? prune->clusters_refined : prune->clusters_pruned);
  }
  return poller.ToStatus();
}

util::Result<QueryResult> QueryExecutor::RunDegradedBounds(
    const QueryRequest& request, const Selection& ids, ExecStats* stats) {
  QueryResult result;
  result.degraded_bounds = true;
  PruneStats& prune = stats->prune;

  // Only the t=0 cluster bound pass can decide anything without running
  // engines; everything outside its reach — other predicates,
  // non-contiguous windows, multi-observation objects — is reported
  // undecided over [0, 1] rather than silently guessed.
  const bool boundable =
      request.predicate == PredicateKind::kThresholdExists &&
      request.window.has_contiguous_times();
  std::map<uint32_t, std::vector<ObjectId>> cluster_objects;
  std::vector<ObjectId> unbounded;
  if (boundable) {
    PartitionByCluster(ids, &cluster_objects, &unbounded);
    prune.clusters_total = static_cast<uint32_t>(cluster_objects.size());
  } else {
    ++prune.bound_fallbacks;
    unbounded.reserve(ids.size());
    for (size_t i = 0; i < ids.size(); ++i) unbounded.push_back(ids[i]);
  }

  StopPoller poller(request);
  for (const auto& [cluster_index, objects] : cluster_objects) {
    if (poller.ShouldStop()) return poller.ToStatus();
    // With lower bounds: unlike the refining plan, the degraded answer
    // certifies inclusion from lo. (A cached upper-only pass left by a
    // full-precision run reads lo = 0 — still sound, every would-be-
    // certain object just lands in `undecided`.)
    USTDB_ASSIGN_OR_RETURN(
        const std::vector<markov::ProbBound>* bounds,
        ClusterBounds(cluster_index, request.window, /*with_lower=*/true));
    ++prune.clusters_bounded;
    bool any_undecided = false;
    for (ObjectId id : objects) {
      const UncertainObject& obj = db_->object(id);
      double lo = 0.0;
      double hi = 0.0;
      obj.initial_pdf().ForEachNonZero([&](uint32_t s, double p) {
        lo += p * (*bounds)[s].lo;
        hi += p * (*bounds)[s].hi;
      });
      if (hi < request.tau - kKernelParityMargin) {
        ++prune.objects_decided_by_bounds;  // certainly below τ: dropped
      } else if (lo >= request.tau + kKernelParityMargin) {
        ++prune.objects_decided_by_bounds;  // certainly above τ: kept
        result.probabilities.push_back({id, lo});
      } else {
        any_undecided = true;
        result.undecided.push_back(
            {id, std::max(0.0, lo), std::min(1.0, hi)});
      }
    }
    ++(any_undecided ? prune.clusters_refined : prune.clusters_pruned);
  }
  for (ObjectId id : unbounded) {
    result.undecided.push_back({id, 0.0, 1.0});
  }
  const auto by_id = [](const auto& a, const auto& b) { return a.id < b.id; };
  std::sort(result.probabilities.begin(), result.probabilities.end(), by_id);
  std::sort(result.undecided.begin(), result.undecided.end(), by_id);
  return result;
}

void QueryExecutor::EvaluateExistsRange(
    const QueryRequest& request, const BatchGroup& group,
    const Selection& ids, const FilteredStates& filtered, size_t begin,
    size_t end, std::vector<double>* probs, std::vector<uint8_t>* keep,
    ExistsEval* ev) {
  // Kernel-dispatch fault point. This runs on pool workers, so a `throw`
  // rule must not unwind the task — it is converted right here and routed
  // through the loop's existing first-error latch, exactly like a
  // multi-observation engine failure.
  if (util::FaultInjector* fi = util::FaultInjector::Active()) {
    util::Status injected = util::Status::OK();
    try {
      injected = fi->Inject(util::FaultPoint::kKernelDispatch);
    } catch (const util::FaultInjectedError& e) {
      injected = util::Status::Unavailable(e.what());
    }
    if (!injected.ok()) {
      ev->failed.store(true, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(ev->error_mu);
      if (ev->first_error.ok()) ev->first_error = std::move(injected);
      return;
    }
  }
  const QueryWindow& window = group.window;
  const bool threshold =
      request.predicate == PredicateKind::kThresholdExists;
  uint32_t singles = 0;
  uint32_t shared = 0;
  for (size_t i = begin; i < end; ++i) {
    if (ev->failed.load(std::memory_order_relaxed)) break;
    const UncertainObject& obj = db_->object(ids[i]);
    if (NeedsMultiObservation(obj)) {
      util::Status status = util::Status::OK();
      if (ReadsHead(obj, window)) {
        const util::Result<sparse::ProbVector>& alpha =
            filtered.at({ids[i], window.t_begin()});
        if (alpha.ok()) {
          (*probs)[i] = alpha.value().Dot(group.plans[obj.chain].head());
          ev->via_head.fetch_add(1, std::memory_order_relaxed);
        } else {
          status = alpha.status();
        }
      } else {
        MultiObservationEngine engine(&db_->chain(obj.chain), window);
        util::Result<MultiObsResult> r = engine.Evaluate(obj.observations);
        if (r.ok()) {
          (*probs)[i] = r->exists_probability;
        } else {
          status = r.status();
        }
      }
      if (!status.ok()) {
        ev->failed.store(true, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(ev->error_mu);
        if (ev->first_error.ok()) ev->first_error = std::move(status);
        break;
      }
      if (threshold) (*keep)[i] = (*probs)[i] >= request.tau;
      ev->multis.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    const ChainPlan& cp = group.plans[obj.chain];
    const Plan plan =
        ev->force_query_based ? Plan::kQueryBased : cp.Resolve(request);
    if (plan == Plan::kQueryBased) {
      (*probs)[i] = cp.shared ? group.shared[ids[i]]
                              : cp.qb->ExistsProbability(obj.initial_pdf());
      if (threshold) (*keep)[i] = (*probs)[i] >= request.tau;
      if (cp.shared) {
        ++shared;
        if (ev->pass_counts) continue;  // counted by the pass
      }
    } else if (threshold) {
      // τ-early-termination (Section V-A): decide first, compute the
      // exact probability only for qualifying objects.
      ObRunStats run;
      const ThresholdDecision d =
          cp.ob->ExistsDecision(obj.initial_pdf(), request.tau, &run);
      if (run.early_terminated) {
        ev->early.fetch_add(1, std::memory_order_relaxed);
      }
      if (d == ThresholdDecision::kYes) {
        (*probs)[i] = cp.ob->ExistsProbability(obj.initial_pdf());
      } else {
        (*keep)[i] = 0;
      }
    } else {
      (*probs)[i] = cp.ob->ExistsProbability(obj.initial_pdf());
    }
    ++singles;
  }
  ev->singles.fetch_add(singles, std::memory_order_relaxed);
  ev->shared.fetch_add(shared, std::memory_order_relaxed);
}

void QueryExecutor::AssembleExistsResult(const QueryRequest& request,
                                         const Selection& ids,
                                         const std::vector<double>& probs,
                                         const std::vector<uint8_t>& keep,
                                         QueryResult* result) {
  const bool forall = request.predicate == PredicateKind::kForAll;
  switch (request.predicate) {
    case PredicateKind::kExists:
    case PredicateKind::kForAll:
      result->probabilities.reserve(ids.size());
      for (size_t i = 0; i < ids.size(); ++i) {
        result->probabilities.push_back(
            {ids[i], forall ? 1.0 - probs[i] : probs[i]});
      }
      break;
    case PredicateKind::kThresholdExists:
      for (size_t i = 0; i < ids.size(); ++i) {
        if (keep[i] != 0) result->probabilities.push_back({ids[i], probs[i]});
      }
      std::sort(result->probabilities.begin(), result->probabilities.end(),
                [](const ObjectProbability& a, const ObjectProbability& b) {
                  return a.id < b.id;
                });
      break;
    case PredicateKind::kTopKExists: {
      result->probabilities.reserve(ids.size());
      for (size_t i = 0; i < ids.size(); ++i) {
        result->probabilities.push_back({ids[i], probs[i]});
      }
      const size_t take =
          std::min<size_t>(request.k, result->probabilities.size());
      std::partial_sort(
          result->probabilities.begin(),
          result->probabilities.begin() + take, result->probabilities.end(),
          [](const ObjectProbability& a, const ObjectProbability& b) {
            if (a.probability != b.probability) {
              return a.probability > b.probability;
            }
            return a.id < b.id;
          });
      result->probabilities.resize(take);
      break;
    }
    case PredicateKind::kKTimes:
      break;  // handled by the k-times path
  }
}

void QueryExecutor::EvaluateKTimesRange(
    const Selection& ids, const std::vector<ChainPlan>& plans,
    size_t begin, size_t end, std::vector<ObjectKTimes>* distributions,
    KTimesEval* ev) {
  for (size_t i = begin; i < end; ++i) {
    const UncertainObject& obj = db_->object(ids[i]);
    (*distributions)[i] = {
        ids[i], plans[obj.chain].ktimes->Distribution(obj.initial_pdf())};
    ev->done.fetch_add(1, std::memory_order_relaxed);
  }
}

util::Result<QueryResult> QueryExecutor::Run(const QueryRequest& request) {
  return std::move(RunBatch({&request, 1}).front());
}

std::vector<util::Result<QueryResult>> QueryExecutor::RunBatch(
    std::span<const QueryRequest> requests) {
  // Every member's telemetry, kept whether the member answers, fails or
  // stops: this one record becomes the answer's stats, the run totals and
  // last_run_stats().
  std::vector<ExecStats> stats(requests.size());
  for (ExecStats& s : stats) s.threads_used = threads_;

  // Fault boundary: injected throws and allocation failures on this
  // (controlling) thread fail every member transiently instead of
  // crashing. Pool tasks (engine builds, evaluation subtasks) never throw —
  // their error paths feed ExistsEval directly.
  std::vector<util::Result<QueryResult>> results;
  const auto fail_all = [&](const util::Status& status) {
    results.clear();
    for (size_t i = 0; i < requests.size(); ++i) results.emplace_back(status);
  };
  try {
    results = RunBatchImpl(requests, &stats);
  } catch (const util::FaultInjectedError& e) {
    fail_all(util::Status::Unavailable(e.what()));
  } catch (const std::bad_alloc&) {
    fail_all(util::Status::Unavailable(
        "allocation failed during query execution"));
  }

  // Totals take every member's counters, a stopped member's partial ones
  // included — that work happened. Cache events come from the cache's own
  // counters, never from the per-member attributed stats.
  {
    std::lock_guard<std::mutex> lock(totals_mu_);
    ++totals_.runs;
    for (const ExecStats& st : stats) {
      totals_.chains_object_based += st.chains_object_based;
      totals_.chains_query_based += st.chains_query_based;
      totals_.objects_evaluated += st.objects_evaluated;
      totals_.objects_multi_observation += st.objects_multi_observation;
      totals_.clusters_bounded += st.prune.clusters_bounded;
      totals_.clusters_pruned += st.prune.clusters_pruned;
      totals_.clusters_refined += st.prune.clusters_refined;
      totals_.objects_decided_by_bounds += st.prune.objects_decided_by_bounds;
      totals_.objects_refined += st.prune.objects_refined;
      totals_.objects_decided_early += st.prune.objects_decided_early;
      totals_.bound_fallbacks += st.prune.bound_fallbacks;
    }
    totals_.cache = cache_.stats();
  }
  for (size_t i = 0; i < requests.size(); ++i) {
    if (results[i].ok()) results[i]->stats = stats[i];
  }
  if (!stats.empty()) last_stats_ = stats.back();
  return results;
}

std::vector<util::Result<QueryResult>> QueryExecutor::RunBatchImpl(
    std::span<const QueryRequest> requests, std::vector<ExecStats>* stats) {
  std::vector<util::Result<QueryResult>> results;
  results.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    results.emplace_back(util::Status::Internal("batch member not executed"));
  }
  if (requests.empty()) return results;

  // Stage clocks are read only when metrics are on or some member carries
  // a trace: the "off" side of the overhead contract reads no clock.
  using SClock = std::chrono::steady_clock;
  const bool metrics = options_.obs.enabled;
  bool timing = metrics;
  for (const QueryRequest& request : requests) {
    timing = timing || request.trace != nullptr;
  }
  const auto now = [timing] {
    return timing ? SClock::now() : SClock::time_point();
  };
  const auto seconds = [](SClock::time_point from, SClock::time_point to) {
    return std::chrono::duration<double>(to - from).count();
  };
  const int32_t shard = trace_shard_;
  const SClock::time_point g0 = now();
  // Bound passes run inside the plan window [g0, g1); each is observed
  // under stage="bound" and its time is left out of stage="plan".
  double bound_seconds = 0.0;
  const auto observe_bound = [&](SClock::time_point from,
                                 SClock::time_point to) {
    bound_seconds += seconds(from, to);
    if (metrics) stage_bound_.Observe(seconds(from, to));
  };
  // One epoch stamp for every member: the service's ingest lock keeps the
  // database frozen across the whole batch, so a frozen (never-appended)
  // database reads 0.
  const DataVersion run_epoch = db_->data_version();

  // --- Group phase: census each request, bucket by window. ---------------
  std::vector<BatchGroup> groups;
  std::map<GroupKey, size_t> group_index;
  for (size_t i = 0; i < requests.size(); ++i) {
    const QueryRequest& request = requests[i];
    if (util::Status status = ValidateRequest(request); !status.ok()) {
      results[i] = std::move(status);
      continue;
    }
    // Requests already cancelled or expired at submission never join a
    // group — the dispatcher above us relies on this to resolve stale
    // tickets without paying for engines they will not use.
    if (util::Status status = CheckNotStopped(request); !status.ok()) {
      results[i] = std::move(status);
      continue;
    }
    // Degraded members never need engines: answer them from the cached
    // cluster bounds right here (cheap) and keep them out of the groups.
    if (request.degrade == DegradeMode::kBoundsOnly) {
      const SClock::time_point d0 = now();
      results[i] = RunDegradedBounds(
          request, Selection(request, db_->num_objects()), &(*stats)[i]);
      if (timing) observe_bound(d0, SClock::now());
      continue;
    }
    // Census. Without a filter it reads the database's per-chain counts
    // and its multi-observation list: O(chains + multi-observation
    // objects), not O(objects).
    BatchGroup::Member member;
    member.request_index = i;
    std::vector<ObjectId> filtered_multis;
    const std::vector<ObjectId>* multis = &db_->multi_engine_objects();
    if (request.object_filter.has_value()) {
      multis = &filtered_multis;
      for (ObjectId id : *request.object_filter) {
        const UncertainObject& obj = db_->object(id);
        if (NeedsMultiObservation(obj)) {
          filtered_multis.push_back(id);
        } else {
          ++member.single_obs_per_chain[obj.chain];
        }
      }
    } else {
      for (ChainId c = 0; c < db_->num_chains(); ++c) {
        if (const uint32_t n = db_->single_observation_count(c)) {
          member.single_obs_per_chain.emplace_hint(
              member.single_obs_per_chain.end(), c, n);
        }
      }
    }
    if (!multis->empty() && request.predicate == PredicateKind::kKTimes) {
      results[i] = util::Status::Unimplemented(
          "PSTkQ under multiple observations is not covered by the "
          "paper's framework; remove multi-observation objects or "
          "query PST∃Q");
      continue;
    }
    for (ObjectId id : *multis) {
      if (ReadsHead(db_->object(id), request.window)) {
        member.head_ids.push_back(id);
      }
    }

    // PST∀Q runs as PST∃Q on the complemented region (Section VII).
    const QueryWindow window =
        request.predicate == PredicateKind::kForAll
            ? request.window.WithComplementRegion()
            : request.window;
    GroupKey key{window.region().elements(), window.times()};
    const auto [it, inserted] =
        group_index.try_emplace(std::move(key), groups.size());
    if (inserted) {
      BatchGroup group;
      group.window = window;
      group.plans.resize(db_->num_chains());
      groups.push_back(std::move(group));
    }
    groups[it->second].members.push_back(std::move(member));
  }
  for (const BatchGroup& group : groups) {
    for (const BatchGroup::Member& member : group.members) {
      (*stats)[member.request_index].batch_group_members =
          static_cast<uint32_t>(group.members.size());
    }
  }

  // --- Plan phase (submitting thread): one decision per (group, chain),
  // amortized over the group's members, plus cache lookups. Engine builds
  // are deferred into the build phase so backward passes of distinct
  // chains and groups run concurrently. ------------------------------------
  for (BatchGroup& group : groups) {
    // Bound phase: threshold members eligible for the Section V-C plan
    // run their cluster bound pass now, on the submitting thread, and
    // shrink their evaluated set to the undecided objects. The envelope
    // and bound pass are memoized in the cache, so members sharing this
    // group's window pay the pass once; the cluster stores are disjoint
    // from the QB store, so these insertions can never evict backward
    // passes borrowed below. A window whose time set is not one
    // contiguous range cannot be bounded; a forced bound plan then falls
    // back to per-chain planning, observably (prune.bound_fallbacks).
    for (BatchGroup::Member& member : group.members) {
      const QueryRequest& request = requests[member.request_index];
      if (request.predicate != PredicateKind::kThresholdExists) continue;
      const bool forced = request.plan == PlanChoice::kBoundsThenRefine;
      if (!forced && request.plan != PlanChoice::kAuto) continue;
      PruneStats& prune = (*stats)[member.request_index].prune;
      if (!group.window.has_contiguous_times()) {
        if (forced) ++prune.bound_fallbacks;
        continue;
      }
      std::vector<ChainLoad> loads;
      loads.reserve(member.single_obs_per_chain.size());
      for (const auto& [chain, count] : member.single_obs_per_chain) {
        loads.push_back({chain, count});
      }
      if (planner_.ChooseThresholdPlan(group.window, request.plan, loads)
              .plan != Plan::kBoundsThenRefine) {
        continue;
      }

      const SClock::time_point mb0 = now();
      const Selection ids(request, db_->num_objects());
      std::map<uint32_t, std::vector<ObjectId>> cluster_objects;
      PartitionByCluster(ids, &cluster_objects, &member.refine_ids);
      prune.clusters_total = static_cast<uint32_t>(cluster_objects.size());
      util::Status status = BoundClusters(
          request, group.window, cluster_objects, &member.refine_ids, &prune);
      if (timing) {
        member.bound_begin = mb0;
        member.bound_end = SClock::now();
        observe_bound(mb0, member.bound_end);
      }
      if (!status.ok()) {
        results[member.request_index] = std::move(status);
        member.resolved = true;
        continue;
      }
      prune.objects_refined = static_cast<uint32_t>(member.refine_ids.size());
      member.bounds = true;
      // Re-census over the refine set so plan loads and engine wants see
      // the shrunken member.
      member.single_obs_per_chain.clear();
      for (ObjectId id : member.refine_ids) {
        const UncertainObject& obj = db_->object(id);
        if (!NeedsMultiObservation(obj)) {
          ++member.single_obs_per_chain[obj.chain];
        }
      }
      if (request.trace != nullptr) {
        char detail[64];
        std::snprintf(detail, sizeof(detail), "pruned=%u,refined=%u",
                      prune.objects_decided_by_bounds, prune.objects_refined);
        request.trace->Record(obs::Stage::kBound, mb0, member.bound_end,
                              shard, detail);
      }
    }

    std::map<ChainId, std::vector<MemberLoad>> auto_loads;
    for (const BatchGroup::Member& member : group.members) {
      if (member.resolved) continue;
      const QueryRequest& request = requests[member.request_index];
      for (ObjectId id : member.head_ids) {
        group.plans[db_->object(id).chain].want_head = true;
      }
      for (const auto& [chain, count] : member.single_obs_per_chain) {
        ChainPlan& cp = group.plans[chain];
        if (request.predicate == PredicateKind::kKTimes) {
          // PSTkQ has no backward formulation in the paper: the per-chain
          // forward engine runs regardless of the plan directive.
          cp.want_ktimes = true;
        } else if (member.bounds) {
          cp.want_qb = true;  // refinement is always query-based
        } else if (request.plan == PlanChoice::kObjectBased) {
          cp.want_ob = true;
        } else if (request.plan == PlanChoice::kQueryBased) {
          cp.want_qb = true;
        } else {
          // kAuto, and kBoundsThenRefine members that fell back to
          // per-chain planning (ineligible window or cost model).
          auto_loads[chain].push_back({request.predicate, count});
        }
      }
    }
    for (const auto& [chain, loads] : auto_loads) {
      ChainPlan& cp = group.plans[chain];
      cp.plan = planner_.PlanBatch(chain, group.window, loads).plan;
      (cp.plan == Plan::kQueryBased ? cp.want_qb : cp.want_ob) = true;
    }

    // Borrow cached backward passes now: Lookup() never evicts, so every
    // borrowed pointer stays valid for the whole parallel phase. On a
    // miss, a same-epoch pass for the window shifted backward is borrowed
    // as an extension base: the build phase then runs delta steps instead
    // of a cold pass (the standing-query window-slide fast path).
    const EngineCacheStats before = cache_.stats();
    for (ChainId chain_id = 0; chain_id < group.plans.size(); ++chain_id) {
      ChainPlan& cp = group.plans[chain_id];
      if (!cp.want_qb) continue;
      const DataVersion epoch = db_->chain_epoch(chain_id);
      cp.qb = cache_.Lookup(&db_->chain(chain_id), group.window, epoch);
      if (cp.qb == nullptr) {
        cp.qb_shift_base = cache_.LookupShiftBase(
            &db_->chain(chain_id), group.window, epoch, &cp.qb_shift_delta);
        // Built in the parallel build phase below. The backward pass reads
        // the chain's lazily built transpose cache, which is thread-safe,
        // so no pre-materialization is needed here.
        group.qb_to_build.push_back(chain_id);
      }
    }
    group.cache_hits = cache_.stats().hits - before.hits;
    group.cache_misses = cache_.stats().misses - before.misses;
    group.cache_invalidations =
        cache_.stats().invalidations - before.invalidations;
    group.cache_shift_extends =
        cache_.stats().shift_extends - before.shift_extends;
  }
  const SClock::time_point g1 = now();

  // Engine-build fault point, fired on the submitting thread (pool build
  // tasks have no error channel and must not throw): a failure here fails
  // every not-yet-resolved member transiently.
  if (util::FaultInjector* fi = util::FaultInjector::Active()) {
    if (util::Status status = fi->Inject(util::FaultPoint::kEngineBuild);
        !status.ok()) {
      for (const BatchGroup& group : groups) {
        for (const BatchGroup::Member& member : group.members) {
          if (!member.resolved) results[member.request_index] = status;
        }
      }
      return results;
    }
  }

  // --- Build phase: construct the cheap engine shells inline, then run
  // every expensive build — the query-based backward passes and the heads
  // no pass provides — as its own pool task, so even a single-group batch
  // builds its chains' engines in parallel. Then α(t_b) of every
  // head-reading object, once per (object, t_b) however many members read
  // it, one pool task each. -------------------------------------------------
  enum class BuildKind { kBackward, kHead };
  struct EngineBuild {
    BatchGroup* group;
    ChainId chain;
    BuildKind kind;  // QB backward pass or HeadPass
  };
  std::vector<EngineBuild> builds;
  FilteredStates filtered;
  for (BatchGroup& group : groups) {
    for (ChainId chain_id : group.qb_to_build) {
      builds.push_back({&group, chain_id, BuildKind::kBackward});
    }
    for (ChainId chain_id = 0; chain_id < group.plans.size(); ++chain_id) {
      ChainPlan& cp = group.plans[chain_id];
      // A pass built here keeps (or shares) its head; a borrowed headless
      // pass, or none at all, leaves the head to a HeadPass.
      if (cp.want_head &&
          (cp.qb != nullptr ? cp.qb->head() == nullptr : !cp.want_qb)) {
        builds.push_back({&group, chain_id, BuildKind::kHead});
      }
      if (cp.want_ob) {
        cp.ob = std::make_unique<ObjectBasedEngine>(&db_->chain(chain_id),
                                                    group.window);
      }
      if (cp.want_ktimes) {
        cp.ktimes = std::make_unique<KTimesEngine>(&db_->chain(chain_id),
                                                   group.window);
      }
    }
    for (const BatchGroup::Member& member : group.members) {
      if (member.resolved) continue;
      for (ObjectId id : member.head_ids) {
        filtered.try_emplace(
            {id, group.window.t_begin()},
            util::Status::Internal("filtered distribution not computed"));
      }
    }
  }
  pool_.ParallelChunks(builds.size(), [&](size_t begin, size_t end) {
    for (size_t b = begin; b < end; ++b) {
      const EngineBuild& build = builds[b];
      ChainPlan& cp = build.group->plans[build.chain];
      switch (build.kind) {
        case BuildKind::kBackward:
          cp.qb_owned =
              cp.qb_shift_base != nullptr
                  ? std::make_unique<QueryBasedEngine>(
                        *cp.qb_shift_base, build.group->window,
                        cp.qb_shift_delta, cp.want_head)
                  : std::make_unique<QueryBasedEngine>(
                        &db_->chain(build.chain), build.group->window,
                        QueryBasedOptions{.keep_head = cp.want_head});
          cp.qb = cp.qb_owned.get();
          break;
        case BuildKind::kHead:
          cp.head_owned = QueryBasedEngine::HeadPass(&db_->chain(build.chain),
                                                     build.group->window);
          break;
      }
    }
  });
  if (!filtered.empty()) {
    // A separate dispatch: static chunking would otherwise pack the few
    // expensive builds above onto fewer workers.
    std::vector<FilteredStates::value_type*> alphas;
    alphas.reserve(filtered.size());
    for (auto& entry : filtered) alphas.push_back(&entry);
    pool_.ParallelChunks(alphas.size(), [&](size_t begin, size_t end) {
      for (size_t a = begin; a < end; ++a) {
        auto& [key, alpha] = *alphas[a];
        const UncertainObject& obj = db_->object(key.first);
        alpha = FilteredDistribution(db_->chain(obj.chain), obj.observations,
                                     key.second);
      }
    });
  }
  const SClock::time_point g2 = now();
  SClock::time_point last_wave_end = g2;

  // --- Execution phase, two dispatches per wave. First the group passes:
  // each covered chain's object list in kStopCheckStride-object tasks,
  // every task polling the members that read it and skipped once all of
  // them stopped. Then every member's evaluation, flattened into
  // object-range subtasks of kStopCheckStride objects, so a batch on one
  // window — a dashboard refresh, or a single request — still saturates
  // all workers; each subtask re-checks its member's token and deadline
  // first (the cooperative-stop stride). Every object's output is written
  // independently, so neither split shows in the results.
  //
  // Members run in *waves* whose combined object count is bounded, so
  // scratch (probs/keep/distributions and the groups' pass values) peaks
  // at roughly the wave budget instead of O(batch × objects) — a
  // 64-request refresh over a million-object database must not hold 64
  // full result buffers at once. Each wave is assembled and freed before
  // the next allocates; waves follow batch order. ---------------------------
  struct MemberExec {
    MemberExec(const QueryRequest& req, BatchGroup* g,
               const BatchGroup::Member& m, uint32_t num_objects)
        : request(req),
          group(g),
          member(m),
          // Bound-pass members evaluate their refine set (which outlives
          // the wave in the group's member census); everyone else their
          // request selection.
          ids(m.bounds ? Selection(&m.refine_ids)
                       : Selection(req, num_objects)),
          ktimes(req.predicate == PredicateKind::kKTimes) {
      if (ktimes) {
        ktimes_ev.emplace(req);
      } else {
        exists_ev.emplace(req);
        exists_ev->force_query_based = m.bounds;
        exists_ev->pass_counts = !m.bounds && !req.object_filter.has_value();
      }
    }

    const QueryRequest& request;
    BatchGroup* group;
    const BatchGroup::Member& member;
    Selection ids;
    bool ktimes;
    std::optional<ExistsEval> exists_ev;  // engaged iff !ktimes
    std::optional<KTimesEval> ktimes_ev;  // engaged iff ktimes
    std::vector<double> probs;
    std::vector<uint8_t> keep;
    std::vector<ObjectKTimes> distributions;
    std::atomic<uint32_t> subtasks{0};  // intra-group splits executed
  };
  struct SubTask {
    MemberExec* member;
    size_t begin;
    size_t end;
  };
  struct PassTask {
    BatchGroup* group;
    ChainId chain;
    size_t begin;  // range of db_->objects_by_chain()[chain]
    size_t end;
  };
  // Every member's evaluation state, in batch order (a group's members in
  // a row); deque: MemberExec holds atomics. Scratch is sized per wave. A
  // chain gets a group pass when a member evaluating every object
  // resolves it query-based.
  std::deque<MemberExec> execs;
  for (BatchGroup& group : groups) {
    for (const BatchGroup::Member& member : group.members) {
      if (member.resolved) continue;  // stopped during the bound phase
      MemberExec& me = execs.emplace_back(requests[member.request_index],
                                          &group, member, db_->num_objects());
      if (me.ktimes) continue;
      for (const auto& [chain, count] : member.single_obs_per_chain) {
        ChainPlan& cp = group.plans[chain];
        if (member.bounds || cp.Resolve(me.request) == Plan::kQueryBased) {
          cp.readers.push_back(&*me.exists_ev);
          cp.shared = cp.shared || me.exists_ev->pass_counts;
          group.pass = group.pass || cp.shared;
        }
      }
    }
  }

  /// Combined object count one wave's members and group passes may hold
  /// scratch for (~36 MB of probs + keep). A single larger member still
  /// runs alone.
  constexpr size_t kWaveObjectBudget = size_t{4} << 20;

  size_t next_member = 0;
  while (next_member < execs.size()) {
    size_t wave_end = next_member;
    size_t wave_objects = 0;
    while (wave_end < execs.size()) {
      const MemberExec& me = execs[wave_end];
      size_t n_objects = me.ids.size();
      // A group's pass values live while any of its members' scratch does.
      if (me.group->pass &&
          (wave_end == next_member || execs[wave_end - 1].group != me.group)) {
        n_objects += db_->num_objects();
      }
      if (wave_end > next_member &&
          wave_objects + n_objects > kWaveObjectBudget) {
        break;
      }
      wave_objects += n_objects;
      ++wave_end;
    }

    std::vector<PassTask> passes;
    std::vector<SubTask> subtasks;
    for (size_t i = next_member; i < wave_end; ++i) {
      MemberExec& me = execs[i];
      BatchGroup& group = *me.group;
      if (group.pass && group.shared == nullptr) {
        group.shared =
            std::make_unique_for_overwrite<double[]>(db_->num_objects());
        for (ChainId c = 0; c < group.plans.size(); ++c) {
          if (!group.plans[c].shared) continue;
          const size_t n = db_->objects_by_chain()[c].size();
          for (size_t b = 0; b < n; b += util::kStopCheckStride) {
            passes.push_back(
                {&group, c, b, std::min(n, b + util::kStopCheckStride)});
          }
        }
      }
      if (me.ktimes) {
        me.distributions.resize(me.ids.size());
      } else {
        me.probs.assign(me.ids.size(), 0.0);
        me.keep.assign(me.ids.size(), 1);
      }
      for (size_t b = 0; b < me.ids.size(); b += util::kStopCheckStride) {
        subtasks.push_back(
            {&me, b, std::min(me.ids.size(), b + util::kStopCheckStride)});
      }
    }
    const SClock::time_point w0 = now();
    pool_.ParallelChunks(passes.size(), [&](size_t begin, size_t end) {
      // Static chunking hands each worker a contiguous run of tasks, so
      // one view serves all of a worker's tasks on one (group, chain).
      std::optional<DenseView> view;
      const ChainPlan* viewed = nullptr;
      for (size_t p = begin; p < end; ++p) {
        const PassTask& task = passes[p];
        const ChainPlan& cp = task.group->plans[task.chain];
        bool live = false;
        for (ExistsEval* reader : cp.readers) {
          live = !reader->ShouldStop() || live;
        }
        if (!live) continue;
        if (viewed != &cp) {
          view.emplace(cp.qb->start_vector());
          viewed = &cp;
        }
        const std::vector<ObjectId>& objects =
            db_->objects_by_chain()[task.chain];
        uint32_t computed = 0;
        for (size_t k = task.begin; k < task.end; ++k) {
          const UncertainObject& obj = db_->object(objects[k]);
          if (NeedsMultiObservation(obj)) continue;
          task.group->shared[objects[k]] = view->Dot(obj.initial_pdf());
          ++computed;
        }
        for (ExistsEval* reader : cp.readers) {
          if (reader->pass_counts && !reader->stopped()) {
            reader->singles.fetch_add(computed, std::memory_order_relaxed);
          }
        }
      }
    });
    pool_.ParallelChunks(subtasks.size(), [&](size_t begin, size_t end) {
      for (size_t s = begin; s < end; ++s) {
        const SubTask& task = subtasks[s];
        MemberExec& me = *task.member;
        if (me.ktimes) {
          if (me.ktimes_ev->poller.ShouldStop()) continue;
          me.subtasks.fetch_add(1, std::memory_order_relaxed);
          EvaluateKTimesRange(me.ids, me.group->plans, task.begin, task.end,
                              &me.distributions, &*me.ktimes_ev);
        } else {
          if (me.exists_ev->ShouldStop()) continue;
          me.subtasks.fetch_add(1, std::memory_order_relaxed);
          EvaluateExistsRange(me.request, *me.group, me.ids, filtered,
                              task.begin, task.end, &me.probs, &me.keep,
                              &*me.exists_ev);
        }
      }
    });
    const SClock::time_point w1 = now();
    last_wave_end = w1;

    // Assembly (calling thread): record this wave's progress in each
    // member's stats (stopped and failed members included), convert
    // answered members into result slots in batch order, then drop the
    // wave's scratch, and a group's pass values after its last member.
    for (size_t i = next_member; i < wave_end; ++i) {
      MemberExec& me = execs[i];
      BatchGroup& group = *me.group;
      const BatchGroup::Member& member = me.member;
      ExecStats& st = (*stats)[member.request_index];
      if (me.ids.size() == 0) {
        // Zero-object members never reach a subtask's cooperative stop
        // check; poll once here so a cancellation or expiry while the
        // batch ran still resolves with its stop status.
        if (me.ktimes) {
          (void)me.ktimes_ev->poller.ShouldStop();
        } else {
          (void)me.exists_ev->ShouldStop();
        }
      }
      st.group_subtasks = me.subtasks.load();
      util::Status status = util::Status::OK();
      uint32_t via_head = 0;
      uint32_t shared = 0;
      if (me.ktimes) {
        status = me.ktimes_ev->poller.ToStatus();
        st.chains_object_based =
            static_cast<uint32_t>(member.single_obs_per_chain.size());
        st.objects_evaluated = me.ktimes_ev->done.load();
      } else {
        status = me.exists_ev->Finish();
        for (const auto& [chain, count] : member.single_obs_per_chain) {
          (void)count;
          const Plan plan = me.exists_ev->force_query_based
                                ? Plan::kQueryBased
                                : group.plans[chain].Resolve(me.request);
          ++(plan == Plan::kQueryBased ? st.chains_query_based
                                       : st.chains_object_based);
        }
        st.prune.objects_decided_early = me.exists_ev->early.load();
        st.objects_evaluated = me.exists_ev->singles.load();
        st.objects_multi_observation = me.exists_ev->multis.load();
        via_head = me.exists_ev->via_head.load();
        shared = me.exists_ev->shared.load();
      }
      if (me.request.trace != nullptr) {
        // The member's spans: the shared plan window (around its own
        // bound span, if it ran one), the shared build phase, and its
        // wave's evaluation window.
        char detail[128];
        std::snprintf(detail, sizeof(detail), "batch_members=%u",
                      st.batch_group_members);
        if (member.bounds) {
          me.request.trace->Record(obs::Stage::kPlan, g0, member.bound_begin,
                                   shard, detail);
          me.request.trace->Record(obs::Stage::kPlan, member.bound_end, g1,
                                   shard, detail);
        } else {
          me.request.trace->Record(obs::Stage::kPlan, g0, g1, shard, detail);
        }
        std::snprintf(detail, sizeof(detail), "cache_hits=%llu,misses=%llu",
                      static_cast<unsigned long long>(group.cache_hits),
                      static_cast<unsigned long long>(group.cache_misses));
        me.request.trace->Record(obs::Stage::kEngineBuild, g1, g2, shard,
                                 detail);
        const int n = std::snprintf(
            detail, sizeof(detail),
            "objects=%u,multi_obs=%u,via_head=%u,subtasks=%u",
            st.objects_evaluated + st.objects_multi_observation,
            st.objects_multi_observation, via_head, st.group_subtasks);
        if (shared > 0) {
          std::snprintf(detail + n, sizeof(detail) - static_cast<size_t>(n),
                        ",shared=%u", shared);
        }
        me.request.trace->Record(obs::Stage::kEvaluate, w0, w1, shard,
                                 detail);
      }
      if (i + 1 == execs.size() || execs[i + 1].group != me.group) {
        group.shared.reset();
      }
      if (!status.ok()) {
        results[member.request_index] = std::move(status);
      } else {
        if (!group.cache_stats_attributed) {
          st.cache_hits = group.cache_hits;
          st.cache_misses = group.cache_misses;
          st.cache_invalidations = group.cache_invalidations;
          st.cache_shift_extends = group.cache_shift_extends;
          group.cache_stats_attributed = true;
        }
        QueryResult result;
        if (me.ktimes) {
          result.distributions = std::move(me.distributions);
        } else {
          AssembleExistsResult(me.request, me.ids, me.probs, me.keep,
                               &result);
        }
        results[member.request_index] = std::move(result);
      }
      me.probs = {};
      me.keep = {};
      me.distributions = {};
    }
    next_member = wave_end;
  }

  // --- Admission phase: publish freshly built backward passes so the next
  // refresh of the same dashboard hits a warm cache. Only now, with every
  // member evaluated, may an admission evict a pass this batch borrowed. --
  for (BatchGroup& group : groups) {
    for (ChainId chain_id : group.qb_to_build) {
      ChainPlan& cp = group.plans[chain_id];
      if (cp.qb_owned != nullptr) {
        cache_.Put(&db_->chain(chain_id), group.window,
                   std::move(cp.qb_owned), db_->chain_epoch(chain_id));
      }
    }
  }

  // Final stop check: an answer is never returned after its deadline. A
  // member whose deadline passed while the batch finished (admission runs
  // after evaluation and may stall) resolves DeadlineExceeded.
  std::optional<SClock::time_point> done;
  for (size_t i = 0; i < requests.size(); ++i) {
    if (!results[i].ok()) continue;
    if (const auto& deadline = requests[i].deadline; deadline.has_value()) {
      if (!done.has_value()) done = SClock::now();
      if (*done >= *deadline) {
        results[i] = StopStatus(StopReason::kDeadline);
        continue;
      }
    }
    results[i]->epoch = run_epoch;
  }

  if (metrics) {
    stage_plan_.Observe(std::max(0.0, seconds(g0, g1) - bound_seconds));
    stage_build_.Observe(seconds(g1, g2));
    stage_evaluate_.Observe(seconds(g2, last_wave_end));
  }
  return results;
}

}  // namespace core
}  // namespace ustdb
