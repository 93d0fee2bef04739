// Copyright 2026 the ustdb authors.

#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <map>
#include <thread>

#include "core/executor.h"
#include "workload/query_gen.h"

namespace ustdb {
namespace perfbench {

namespace {

/// Set-up + measure sub-runs per end-to-end run of dashboard_warm, and of
/// alerts_cold; both draw new materials for each. alerts_cold also times
/// kExtraSetups set-ups on their own.
constexpr int kSubRuns = 8;
constexpr int kAlertSubRuns = 6;
constexpr int kExtraSetups = 8;
/// Answers per chunk of the closed loops' chunked-median qps
/// (MedianChunkRate).
constexpr size_t kRateChunk = 512;
constexpr auto kResolveTimeout = std::chrono::seconds(60);
constexpr auto kPollInterval = std::chrono::microseconds(50);

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

/// A service over its own database. The service is declared after the
/// database, so it shuts down before the database it serves is destroyed.
struct Served {
  std::unique_ptr<core::ShardedDatabase> db;
  std::unique_ptr<service::QueryService> svc;

  /// Shuts the service down, then frees its database. Assigning a new
  /// pair over a live one would free the database first.
  void Reset() {
    svc.reset();
    db.reset();
  }
};

/// End-to-end figures of one sub-run: a fresh set-up, then a measured
/// phase on it.
struct SubRun {
  double setup_s = 0.0;
  double qps = 0.0;
  std::vector<double> latency_ms;
};

/// True when `n` samples leave ten beyond their p99.
bool SupportsP99(size_t n) {
  const std::optional<Tail> tail = SupportedTail(n, 990);
  return tail.has_value() && tail->permille == 990;
}

/// Reports the median over sub-runs of setup_s (with `extra_setup_s`, the
/// times of set-ups made only to be timed), qps and p50_ms; p99_ms is the
/// median of the sub-runs' p99 when there are at least three and each has
/// the samples a p99 needs, else the p99 of all sub-runs' samples pooled.
/// Several set-ups per run (thread placement, memory layout) and medians
/// over them damp a stall that hits one of them.
void AddEndToEnd(Report* report, const std::vector<SubRun>& runs,
                 uint64_t answers, uint64_t failed,
                 const std::vector<double>& extra_setup_s = {}) {
  std::vector<double> setup = extra_setup_s, qps, p50, p99, pooled;
  bool per_run_tail = runs.size() >= 3;
  for (const SubRun& r : runs) {
    setup.push_back(r.setup_s);
    qps.push_back(r.qps);
    p50.push_back(QuantilePermille(r.latency_ms, 500));
    p99.push_back(QuantilePermille(r.latency_ms, 990));
    per_run_tail = per_run_tail && SupportsP99(r.latency_ms.size());
    pooled.insert(pooled.end(), r.latency_ms.begin(), r.latency_ms.end());
  }
  if (!SupportsP99(pooled.size())) {
    Fail(std::to_string(pooled.size()) +
         " latency samples cannot support p99_ms; lengthen --seconds");
  }
  report->Add("setup_s", Median(setup), "s");
  report->Add("qps", Median(qps), "1/s");
  report->Add("p50_ms", Median(p50), "ms");
  report->Add("p99_ms",
              per_run_tail ? Median(p99) : QuantilePermille(pooled, 990), "ms");
  report->Add("failed_frac",
              static_cast<double>(failed) / (answers + failed), "fraction");
  std::string per_run;
  for (size_t i = 0; i < runs.size(); ++i) {
    per_run += " " + std::to_string(p50[i]) + "/" + std::to_string(p99[i]);
  }
  report->Note("latency: " + std::to_string(pooled.size()) + " samples in " +
               std::to_string(runs.size()) + " sub-runs; p99 " +
               (per_run_tail ? "median of per-sub-run p99" : "pooled") +
               "; per sub-run p50/p99 ms:" + per_run);
}

/// Resolves every ticket of a burst, stamping each with its own resolve
/// time: polls the unresolved tickets, sleeping kPollInterval between
/// sweeps that find nothing new, so no answer is stamped with the moment a
/// slower one of its burst resolved.
std::vector<Clock::time_point> PollAll(
    const std::vector<service::QueryTicket>& tickets) {
  std::vector<Clock::time_point> at(tickets.size());
  std::vector<size_t> open(tickets.size());
  for (size_t i = 0; i < open.size(); ++i) open[i] = i;
  const Clock::time_point deadline = Clock::now() + kResolveTimeout;
  while (!open.empty()) {
    const Clock::time_point now = Clock::now();
    if (now > deadline) Fail("a ticket did not resolve within 60 s");
    const size_t before = open.size();
    std::erase_if(open, [&](size_t i) {
      if (!tickets[i].resolved()) return false;
      at[i] = now;
      return true;
    });
    if (open.size() == before) std::this_thread::sleep_for(kPollInterval);
  }
  return at;
}

/// Per-answer bookkeeping shared by the two query workloads: latencies,
/// answer-derived layer counters, trace breakdowns and the answer sample
/// the reference check replays.
struct Tally {
  /// Keep every `sample_every`-th answer, at most `max_samples`.
  size_t sample_every = 16;
  size_t max_samples = 128;

  uint64_t answers = 0;
  uint64_t failed = 0;
  std::vector<double> latency_ms;
  std::vector<Clock::time_point> done_at;  // when each answer was seen
  double group_members = 0.0;
  uint64_t threshold = 0;
  uint64_t threshold_bounded = 0;
  double clusters_bounded = 0.0;
  double clusters_pruned = 0.0;
  double objects_refined = 0.0;
  double objects_by_bounds = 0.0;
  // Traced requests only: wall-clock stage self times and coverage.
  std::vector<double> queue_ms;
  std::vector<double> dispatch_self_ms;
  std::vector<double> merge_ms;
  std::vector<double> bound_ms;
  std::vector<double> coverage;
  std::vector<obs::TraceSpan> span_sample;  // first traced requests' spans

  std::vector<core::QueryRequest> sample_requests;
  std::vector<core::QueryResult> sample_answers;

  void Add(const core::QueryRequest& request,
           util::Result<core::QueryResult> result, double latency,
           Clock::time_point seen, const std::shared_ptr<obs::QueryTrace>& trace,
           double observed_latency_ms) {
    if (!result.ok()) {
      ++failed;
      return;
    }
    ++answers;
    latency_ms.push_back(latency);
    done_at.push_back(seen);
    const core::ExecStats& stats = result.value().stats;
    group_members += stats.batch_group_members;
    if (request.predicate == core::PredicateKind::kThresholdExists) {
      ++threshold;
      if (stats.prune.clusters_bounded > 0) {
        ++threshold_bounded;
        clusters_bounded += stats.prune.clusters_bounded;
        clusters_pruned += stats.prune.clusters_pruned;
        objects_refined += stats.prune.objects_refined;
        objects_by_bounds += stats.prune.objects_decided_by_bounds;
      }
    }
    if (trace != nullptr) {
      const std::vector<obs::TraceSpan> spans = trace->spans();
      const Breakdown b = BreakdownOf(spans, trace->epoch());
      queue_ms.push_back(1e3 * b.queue);
      dispatch_self_ms.push_back(1e3 * b.dispatch_self);
      merge_ms.push_back(1e3 * b.merge);
      if (b.bound > 0.0) bound_ms.push_back(1e3 * b.bound);
      coverage.push_back(1e3 * b.covered / observed_latency_ms);
      if (span_sample.size() < 4096) {
        span_sample.insert(span_sample.end(), spans.begin(), spans.end());
      }
    }
    if (answers % sample_every == 0 &&
        sample_requests.size() < max_samples) {
      core::QueryRequest untraced = request;
      untraced.trace = nullptr;
      sample_requests.push_back(std::move(untraced));
      sample_answers.push_back(std::move(result).value());
    }
  }
};

/// Fails the run when the service rejected, shed or failed anything.
void GuardNoRejections(const service::ServiceStats& s, const char* workload) {
  if (s.rejected != 0 || s.shed_bulk != 0 || s.shed_interactive != 0 ||
      s.failed != 0 || s.deadline_expired != 0 || s.cancelled != 0 ||
      s.ingest_rejected != 0) {
    Fail(std::string(workload) +
         ": the service rejected, shed or failed requests (rejected=" +
         std::to_string(s.rejected) + " failed=" + std::to_string(s.failed) +
         " shed=" + std::to_string(s.shed_bulk + s.shed_interactive) +
         " ingest_rejected=" + std::to_string(s.ingest_rejected) + ")");
  }
}

/// Per-layer numbers read off the answers and traces of a traced run.
void AddTallyLayers(Report* report, const Tally& t, double entries) {
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  report->Add("executor.group_members", ratio(t.group_members, entries),
              "members");
  report->Add("planner.bounds_plan_frac",
              ratio(static_cast<double>(t.threshold_bounded),
                    static_cast<double>(t.threshold)),
              "fraction");
  report->Add("prune.refined_frac",
              ratio(t.objects_refined, t.objects_refined + t.objects_by_bounds),
              "fraction");
  report->Add("prune.clusters_pruned_frac",
              ratio(t.clusters_pruned, t.clusters_bounded), "fraction");
  report->Add("prune.bound_ms", Median(t.bound_ms), "ms");
  report->Add("service.queue_self_p50_ms", QuantilePermille(t.queue_ms, 500),
              "ms");
  report->Add("service.queue_self_p99_ms", QuantilePermille(t.queue_ms, 990),
              "ms");
  report->Add("service.dispatch_self_ms", Median(t.dispatch_self_ms), "ms");
  report->Add("service.merge_ms", Median(t.merge_ms), "ms");
  report->Add("trace.coverage", Median(t.coverage), "fraction");
}

/// Writes the sampled spans of a traced run as JSON lines.
void WriteSpans(const RunOptions& options,
                const std::vector<obs::TraceSpan>& spans) {
  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);
  const std::string path = options.out_dir + "/spans-" + options.workload +
                           "-" + std::to_string(options.seed) + ".jsonl";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) Fail("cannot write " + path);
  for (const obs::TraceSpan& s : spans) {
    std::fprintf(f,
                 "{\"stage\":\"%s\",\"shard\":%d,\"begin_ns\":%lld,"
                 "\"end_ns\":%lld,\"detail\":\"%s\"}\n",
                 obs::StageName(s.stage), s.shard,
                 static_cast<long long>(
                     std::chrono::duration_cast<std::chrono::nanoseconds>(
                         s.begin.time_since_epoch())
                         .count()),
                 static_cast<long long>(
                     std::chrono::duration_cast<std::chrono::nanoseconds>(
                         s.end.time_since_epoch())
                         .count()),
                 s.detail.c_str());
  }
  std::fclose(f);
}

// ---------------------------------------------------------------------------
// dashboard_warm

namespace dashboard {

constexpr uint32_t kStates = 5000;
constexpr uint32_t kClusters = 4;
constexpr uint32_t kPerCluster = 4;
constexpr uint32_t kObjectsPerChain = 1024;
constexpr uint32_t kBurst = 32;
constexpr uint32_t kPool = 8;
constexpr uint32_t kBursts = 16;
constexpr size_t kCache = 128;  // >= 8 windows x 2 regions x 4 chains

workload::SyntheticConfig Config() {
  workload::SyntheticConfig c;
  c.num_states = kStates;
  return c;
}

std::vector<std::vector<core::QueryRequest>> Bursts(uint64_t seed) {
  workload::QueryGenConfig q;
  q.num_states = kStates;
  // A narrow start-time range: the cost of a request grows with how far
  // its window lies from the objects' observations, and the Zipf pool's
  // top window carries over a third of the requests, so a wide range made
  // the work per burst, and qps, depend on which start time that window
  // happened to draw.
  q.t_min = 16;
  q.t_max = 20;
  q.seed = seed * 7919 + 11;
  workload::PredicateMix mix;
  mix.exists = 4;
  mix.forall = 1;
  mix.k_times = 0;
  mix.threshold = 3;
  mix.top_k = 1;
  return Require(workload::RefreshBatches(q, kPool, kBurst, kBursts, mix,
                                          /*tau=*/0.05, /*top_k=*/10),
                 "RefreshBatches");
}

/// Closed loop for `seconds`: submit one burst, wait for all of it, submit
/// the next. With `trace`, every request carries its own QueryTrace.
/// Returns the median answers per second over chunks of kRateChunk.
double Measure(service::QueryService& svc,
               const std::vector<std::vector<core::QueryRequest>>& bursts,
               double seconds, bool trace, Tally* tally,
               std::vector<double>* submit_us) {
  const size_t first = tally->done_at.size();
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  Clock::time_point end = start;
  for (size_t b = 0; end < stop; ++b) {
    const std::vector<core::QueryRequest>& burst = bursts[b % bursts.size()];
    std::vector<core::QueryRequest> requests = burst;
    std::vector<std::shared_ptr<obs::QueryTrace>> traces(requests.size());
    const Clock::time_point t0 = Clock::now();
    if (trace) {
      for (size_t i = 0; i < requests.size(); ++i) {
        traces[i] = std::make_shared<obs::QueryTrace>(t0);
        requests[i].trace = traces[i];
      }
    }
    std::vector<service::QueryTicket> tickets =
        svc.SubmitBurst(std::move(requests));
    const Clock::time_point t1 = Clock::now();
    submit_us->push_back(1e6 * Seconds(t1 - t0) / burst.size());
    const std::vector<Clock::time_point> at = PollAll(tickets);
    for (size_t i = 0; i < tickets.size(); ++i) {
      const double latency = Ms(at[i] - t0);
      tally->Add(burst[i], tickets[i].Get(), latency, at[i], traces[i],
                 latency);
    }
    end = Clock::now();
  }
  return MedianChunkRate(std::vector<Clock::time_point>(
                             tally->done_at.begin() + first,
                             tally->done_at.end()),
                         kRateChunk);
}

Served Setup(const Materials& m,
             const std::vector<std::vector<core::QueryRequest>>& bursts,
             obs::MetricsRegistry* registry) {
  Served s;
  s.db = Load(m, kShards);
  s.svc = std::make_unique<service::QueryService>(
      static_cast<const core::ShardedDatabase*>(s.db.get()),
      ServiceOptionsFor(kCache, registry));
  // Warm-up: one pass over every burst the measured loop cycles through
  // fills each shard's cache with every (window, chain) pair of the pool.
  for (const std::vector<core::QueryRequest>& burst : bursts) {
    std::vector<service::QueryTicket> tickets = s.svc->SubmitBurst(burst);
    PollAll(tickets);
    for (service::QueryTicket& t : tickets) {
      if (!t.Get().ok()) Fail("dashboard_warm: warm-up request failed");
    }
  }
  return s;
}

}  // namespace dashboard

// ---------------------------------------------------------------------------
// alerts_cold

namespace alerts {

constexpr uint32_t kStates = 2000;
constexpr uint32_t kClusters = 4;
constexpr uint32_t kPerCluster = 16;
constexpr uint32_t kObjectsPerChain = 16;
constexpr uint32_t kPool = 512;
constexpr uint32_t kKTimesObjects = 24;
/// Engines per shard, against a working set of 16 chains x 512 windows.
/// At least twice a shard's 16 chains: a solo threshold request borrows one
/// cached pass per chain and, on a shift-extension, touches its base entry
/// too, and with fewer slots QueryExecutor::Run can evict a pass it is
/// still using.
constexpr size_t kCache = 32;
/// Requests in flight: one per shard lane. A closed loop, because this
/// workload's answers are mostly engine builds whose speed follows the
/// host's: under an open-loop Poisson schedule at a quarter of capacity,
/// queueing amplified the host's drift, and p50 and p99 varied by a quarter
/// between runs, against under a tenth for the closed-loop dashboard_warm.
constexpr size_t kOutstanding = 4;
/// Requests drawn per sub-run, cycled by the loop: far more than the cache
/// holds, so a repeated request never finds its passes still cached.
constexpr size_t kStream = 4096;

workload::SyntheticConfig Config() {
  workload::SyntheticConfig c;
  c.num_states = kStates;
  return c;
}

/// `count` requests: windows drawn uniformly from a pool of kPool,
/// predicates exists/forall/threshold/k-times in weights 4/1/3/1; k-times
/// is filtered to kKTimesObjects objects of one cluster.
std::vector<core::QueryRequest> Requests(uint64_t seed, size_t count) {
  workload::QueryGenConfig q;
  q.num_states = kStates;
  q.t_min = 3;
  q.t_max = 8;
  util::Rng rng(seed * 104729 + 3);
  std::vector<core::QueryWindow> pool;
  for (uint32_t i = 0; i < kPool; ++i) {
    pool.push_back(Require(workload::RandomWindow(q, &rng), "RandomWindow"));
  }
  const uint32_t per_cluster_objects = kPerCluster * kObjectsPerChain;
  std::vector<core::QueryRequest> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    core::QueryRequest r;
    r.window = pool[rng.NextBounded(kPool)];
    const uint64_t draw = rng.NextBounded(9);
    if (draw < 4) {
      r.predicate = core::PredicateKind::kExists;
    } else if (draw < 5) {
      r.predicate = core::PredicateKind::kForAll;
    } else if (draw < 8) {
      r.predicate = core::PredicateKind::kThresholdExists;
      r.tau = 0.05;
    } else {
      r.predicate = core::PredicateKind::kKTimes;
      const uint32_t cluster = static_cast<uint32_t>(rng.NextBounded(kClusters));
      std::vector<ObjectId> ids;
      while (ids.size() < kKTimesObjects) {
        const ObjectId id = cluster * per_cluster_objects +
                            static_cast<ObjectId>(
                                rng.NextBounded(per_cluster_objects));
        if (std::find(ids.begin(), ids.end(), id) == ids.end()) {
          ids.push_back(id);
        }
      }
      std::sort(ids.begin(), ids.end());
      r.object_filter = std::move(ids);
    }
    out.push_back(std::move(r));
  }
  return out;
}

Served Setup(const Materials& m, const std::vector<core::QueryRequest>& warm,
             obs::MetricsRegistry* registry) {
  Served s;
  s.db = Load(m, kShards);
  s.svc = std::make_unique<service::QueryService>(
      static_cast<const core::ShardedDatabase*>(s.db.get()),
      ServiceOptionsFor(kCache, registry));
  // Warm-up runs lazy one-time work (chain transposes, kernel dispatch);
  // the steady state of this workload is a cold engine cache.
  for (const core::QueryRequest& r : warm) {
    if (!s.svc->Submit(r).Get().ok()) {
      Fail("alerts_cold: warm-up request failed");
    }
  }
  return s;
}

/// Closed loop with kOutstanding requests in flight: whenever one resolves,
/// the next of `requests` (cycled) takes its place. With `trace`, every
/// request carries its own QueryTrace. Returns the median answers per
/// second over chunks of kRateChunk.
double Measure(service::QueryService& svc,
               const std::vector<core::QueryRequest>& requests, double seconds,
               bool trace, Tally* tally) {
  struct Slot {
    service::QueryTicket ticket;
    size_t index = 0;
    Clock::time_point submitted;
    std::shared_ptr<obs::QueryTrace> trace;
  };
  const size_t first = tally->done_at.size();
  size_t next = 0;
  const auto submit = [&](Slot* s) {
    s->index = next++ % requests.size();
    core::QueryRequest r = requests[s->index];
    s->submitted = Clock::now();
    if (trace) {
      s->trace = std::make_shared<obs::QueryTrace>(s->submitted);
      r.trace = s->trace;
    }
    s->ticket = svc.Submit(std::move(r));
  };
  const Clock::time_point stop =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  std::vector<Slot> slots(kOutstanding);
  for (Slot& s : slots) submit(&s);
  Clock::time_point progress = Clock::now();
  while (!slots.empty()) {
    const Clock::time_point now = Clock::now();
    const size_t before = tally->answers + tally->failed;
    std::erase_if(slots, [&](Slot& s) {
      if (!s.ticket.resolved()) return false;
      const double latency = Ms(now - s.submitted);
      tally->Add(requests[s.index], s.ticket.Get(), latency, now, s.trace,
                 latency);
      if (now >= stop) return true;
      submit(&s);
      return false;
    });
    if (tally->answers + tally->failed != before) {
      progress = now;
    } else if (now - progress > kResolveTimeout) {
      Fail("alerts_cold: no request resolved within 60 s");
    } else {
      std::this_thread::sleep_for(kPollInterval);
    }
  }
  return MedianChunkRate(std::vector<Clock::time_point>(
                             tally->done_at.begin() + first,
                             tally->done_at.end()),
                         kRateChunk);
}

}  // namespace alerts

}  // namespace

// ---------------------------------------------------------------------------

Counts RunDashboardWarm(const RunOptions& options, Report* report) {
  using namespace dashboard;
  Counts counts;
  Tally tally;
  size_t checked = 0;
  std::vector<double> submit_us;
  const int subruns = options.trace ? 1 : kSubRuns;
  const double phase_s =
      (options.trace ? options.seconds / 2 : options.seconds) / subruns;
  std::vector<SubRun> runs;
  Served served;
  Materials m;
  std::vector<std::vector<core::QueryRequest>> bursts;
  for (int r = 0; r < subruns; ++r) {
    // Each sub-run draws its own database and window pool from the seed:
    // the work of a burst follows where the pool's top windows fall, so a
    // run's figures average over kSubRuns draws.
    const uint64_t draw = options.seed * kSubRuns + r;
    m = MakeMaterials(Config(), kClusters, kPerCluster, kObjectsPerChain,
                      draw);
    bursts = Bursts(draw);
    served.Reset();
    SubRun run;
    const Clock::time_point t0 = Clock::now();
    served = Setup(m, bursts, nullptr);
    run.setup_s = Seconds(Clock::now() - t0);
    const service::ServiceStats warm = served.svc->stats();
    const size_t first = tally.latency_ms.size();
    run.qps = Measure(*served.svc, bursts, phase_s, false, &tally, &submit_us);
    run.latency_ms.assign(tally.latency_ms.begin() + first,
                          tally.latency_ms.end());
    const service::ServiceStats after = served.svc->stats();
    GuardNoRejections(after, "dashboard_warm");
    if (after.cache.misses != warm.cache.misses) {
      Fail("dashboard_warm: " +
           std::to_string(after.cache.misses - warm.cache.misses) +
           " engine-cache misses after warm-up; the pool no longer fits");
    }
    if (after.clusters_bounded != warm.clusters_bounded) {
      Fail("dashboard_warm: the planner ran the bound pass; the workload "
           "must exercise the per-chain plans");
    }
    runs.push_back(std::move(run));
    if (!options.trace) {
      // The sub-run's sampled answers against its own database; a traced
      // run checks after its traced phase, which reuses this one.
      served.Reset();
      CheckAgainstReference(*Load(m, 1), tally.sample_requests,
                            tally.sample_answers, "dashboard_warm");
      checked += tally.sample_answers.size();
      tally.sample_requests.clear();
      tally.sample_answers.clear();
    }
  }
  report->Note("dashboard_warm: per sub-run 16 chains in 4 clusters of 4, " +
               std::to_string(m.objects.size()) +
               " objects, 8-window Zipf pool, bursts of 32, cache " +
               std::to_string(kCache) + "/shard (working set 64/shard)");
  const double qps = runs.back().qps;
  counts.attempted += tally.answers + tally.failed;
  counts.failed += tally.failed;

  if (!options.trace) {
    AddEndToEnd(report, runs, tally.answers, tally.failed);
  } else {
    obs::MetricsRegistry registry;
    served.Reset();
    served = Setup(m, bursts, &registry);
    Tally traced;
    traced.max_samples = 0;
    std::vector<double> traced_submit_us;
    RegistryDelta d;
    d.Begin(registry);
    const double spmv0 = GlobalSpmvPasses();
    const double traced_qps = Measure(*served.svc, bursts, phase_s, true,
                                      &traced, &traced_submit_us);
    const double spmv = GlobalSpmvPasses() - spmv0;
    d.End(registry);
    const service::ServiceStats stats = served.svc->stats();
    GuardNoRejections(stats, "dashboard_warm");
    counts.attempted += traced.answers + traced.failed;
    counts.failed += traced.failed;
    const double entries = d.HistogramCount("ustdb_service_queue_wait_seconds");
    AddRegistryLayers(report, d, stats, *served.db, traced.answers, spmv);
    AddTallyLayers(report, traced, entries);
    report->Add("service.submit_us", Median(traced_submit_us), "us");
    report->Add("obs.tracing_overhead", traced_qps / qps, "ratio");
    served.svc.reset();
    std::vector<ProbePair> pairs;
    std::vector<ProbeObject> objects;
    std::vector<const markov::MarkovChain*> chains;
    const core::Database& shard0 = served.db->shard(0);
    for (ChainId c = 0; c < shard0.num_chains(); ++c) {
      chains.push_back(&shard0.chain(c));
      for (uint32_t b = 0; b < 4; ++b) {
        pairs.push_back({&shard0.chain(c), bursts[b].front().window});
      }
    }
    for (ObjectId o = 0; o < 24; ++o) {
      objects.push_back({&shard0.chain(shard0.object(o).chain),
                         shard0.object(o).observations});
    }
    AddProbes(report, pairs, objects, objects, bursts[0].front().window,
              chains);
    WriteSpans(options, traced.span_sample);
    served.Reset();
    CheckAgainstReference(*Load(m, 1), tally.sample_requests,
                          tally.sample_answers, "dashboard_warm");
    checked += tally.sample_answers.size();
  }
  report->Note("dashboard_warm: " + std::to_string(checked) +
               " sampled answers bit-identical to the 1-shard RunBatch "
               "reference");
  return counts;
}

Counts RunAlertsCold(const RunOptions& options, Report* report) {
  using namespace alerts;
  const int subruns = options.trace ? 1 : kAlertSubRuns;
  const double phase_s =
      (options.trace ? options.seconds / 2 : options.seconds) / subruns;

  Counts counts;
  Tally tally;
  size_t checked = 0;
  std::vector<SubRun> runs;
  Served served;
  Materials m;
  std::vector<core::QueryRequest> stream;
  std::vector<core::QueryRequest> warm;
  for (int r = 0; r < subruns; ++r) {
    // Each sub-run draws its own database and requests from the seed, so
    // a run's figures average over kAlertSubRuns draws of the four base
    // chains, whose structure sets the cost of every engine build.
    const uint64_t draw = options.seed * kAlertSubRuns + r;
    m = MakeMaterials(Config(), kClusters, kPerCluster, kObjectsPerChain,
                      draw);
    stream = Requests(draw, kStream + 8);
    warm.assign(stream.end() - 8, stream.end());
    stream.resize(kStream);
    served.Reset();
    SubRun run;
    const Clock::time_point t0 = Clock::now();
    served = Setup(m, warm, nullptr);
    run.setup_s = Seconds(Clock::now() - t0);
    const service::ServiceStats before = served.svc->stats();
    const size_t first = tally.latency_ms.size();
    run.qps = Measure(*served.svc, stream, phase_s, false, &tally);
    run.latency_ms.assign(tally.latency_ms.begin() + first,
                          tally.latency_ms.end());
    const service::ServiceStats after = served.svc->stats();
    GuardNoRejections(after, "alerts_cold");
    const double hits = after.cache.hits - before.cache.hits;
    const double misses = after.cache.misses - before.cache.misses;
    if (hits > 0.25 * (hits + misses)) {
      Fail("alerts_cold: engine-cache hit fraction " +
           std::to_string(hits / (hits + misses)) +
           " is not low; the window pool no longer overflows the cache");
    }
    if (after.clusters_bounded == before.clusters_bounded) {
      Fail("alerts_cold: no threshold request ran the bound pass");
    }
    runs.push_back(std::move(run));
    if (!options.trace) {
      // The sub-run's sampled answers against its own database; a traced
      // run checks after its traced phase, which reuses this one.
      served.Reset();
      CheckAgainstReference(*Load(m, 1), tally.sample_requests,
                            tally.sample_answers, "alerts_cold");
      checked += tally.sample_answers.size();
      tally.sample_requests.clear();
      tally.sample_answers.clear();
    }
  }
  report->Note("alerts_cold: per sub-run 64 chains in 4 clusters of 16, " +
               std::to_string(m.objects.size()) + " objects, " +
               std::to_string(kPool) + "-window uniform pool, cache " +
               std::to_string(kCache) + "/shard, closed loop with " +
               std::to_string(kOutstanding) + " requests in flight");
  counts.attempted += tally.answers + tally.failed;
  counts.failed += tally.failed;

  if (!options.trace) {
    // Set-up takes ~0.04 s here, so a median over the sub-runs' set-ups
    // alone would rest on three samples; time a few more.
    std::vector<double> extra_setup_s;
    for (int k = 0; k < kExtraSetups; ++k) {
      served.Reset();
      const Clock::time_point t0 = Clock::now();
      served = Setup(m, warm, nullptr);
      extra_setup_s.push_back(Seconds(Clock::now() - t0));
    }
    AddEndToEnd(report, runs, tally.answers, tally.failed, extra_setup_s);
  } else {
    obs::MetricsRegistry registry;
    served.Reset();
    served = Setup(m, warm, &registry);
    Tally traced;
    traced.max_samples = 0;
    RegistryDelta d;
    d.Begin(registry);
    const double spmv0 = GlobalSpmvPasses();
    const double traced_qps =
        Measure(*served.svc, stream, phase_s, true, &traced);
    const double spmv = GlobalSpmvPasses() - spmv0;
    d.End(registry);
    const service::ServiceStats stats = served.svc->stats();
    GuardNoRejections(stats, "alerts_cold");
    counts.attempted += traced.answers + traced.failed;
    counts.failed += traced.failed;
    const double entries = d.HistogramCount("ustdb_service_queue_wait_seconds");
    AddRegistryLayers(report, d, stats, *served.db, traced.answers, spmv);
    AddTallyLayers(report, traced, entries);
    report->Add("obs.tracing_overhead", traced_qps / runs.back().qps, "ratio");
    served.svc.reset();
    std::vector<ProbePair> pairs;
    std::vector<ProbeObject> ktimes;
    std::vector<const markov::MarkovChain*> chains;
    const core::Database& shard0 = served.db->shard(0);
    for (ChainId c = 0; c < shard0.num_chains(); ++c) {
      chains.push_back(&shard0.chain(c));
      pairs.push_back({&shard0.chain(c), stream[c].window});
    }
    for (const core::QueryRequest& r : stream) {
      if (r.predicate != core::PredicateKind::kKTimes) continue;
      for (ObjectId g : *r.object_filter) {
        const uint32_t s = served.db->shard_of_object(g);
        const core::Database& db = served.db->shard(s);
        const core::UncertainObject& o =
            db.object(served.db->local_object(g));
        ktimes.push_back({&db.chain(o.chain), o.observations});
      }
      AddProbes(report, pairs, ktimes, ktimes, r.window, chains);
      break;
    }
    WriteSpans(options, traced.span_sample);
    served.Reset();
    CheckAgainstReference(*Load(m, 1), tally.sample_requests,
                          tally.sample_answers, "alerts_cold");
    checked += tally.sample_answers.size();
  }
  report->Note("alerts_cold: " + std::to_string(checked) +
               " sampled answers bit-identical to the 1-shard RunBatch "
               "reference");
  return counts;
}

// ---------------------------------------------------------------------------
// ingest_subscribe

namespace {
namespace ingest {

constexpr uint32_t kStates = 1000;
constexpr uint32_t kClusters = 4;
constexpr uint32_t kPerCluster = 6;
constexpr uint32_t kObjectsPerChain = 6;
constexpr uint32_t kSubscriptions = 64;
constexpr uint32_t kRegionWidth = 24;
constexpr uint32_t kWindowSteps = 8;
/// Objects receiving appends, round-robin: eight per cluster, four on each
/// of the cluster's chains 1 and 2.
constexpr uint32_t kHotPerCluster = 8;
/// Refresh rounds per cycle. Appends only move time forward and windows
/// only slide forward, so the cost of a round grows with its distance from
/// the start; each cycle therefore restarts from a freshly loaded database.
constexpr uint32_t kRoundsPerCycle = 12;
/// Per shard: two rounds of 64 windows x 6 chains, so every slid window
/// finds its previous pass as a shift-extension base.
constexpr size_t kCache = 1024;
/// Offered append rate: about 16 appends per ~65 ms refresh round on a
/// 4-core AVX2 host (the ROADMAP's u=16 operating point).
constexpr double kAppendRate = 256.0;
/// Cap on appends per object per cycle. Each exact observation can shrink
/// the unnormalized conditioned mass by up to 3x; far more appends than
/// the calibrated ~6 per object per cycle would push it under
/// kProbEpsilon, where the engine reports the history inconsistent. A
/// cycle that reaches the cap ran rounds about 4x slower than calibrated,
/// so its rounds no longer see ~16 appends each, and the run fails.
constexpr uint32_t kMaxAppendsPerObject = 24;
constexpr double kParity = 1e-12;

workload::SyntheticConfig Config() {
  workload::SyntheticConfig c;
  c.num_states = kStates;
  c.object_spread = 5;
  c.state_spread = 3;
  c.max_step = 24;
  return c;
}

/// The latest observation of one object, from which the next is drawn.
struct Track {
  Timestamp time = 0;
  sparse::ProbVector pdf;
};

Track TrackOf(const core::Observation& last) { return {last.time, last.pdf}; }

/// The next observation of an object one step after `t`: exact, at the
/// state its latest observation most likely moves to. The state is
/// reachable, so the append never contradicts the history, and the
/// conditioned mass shrinks by at most the row maximum (>= 1/3 with three
/// entries per row) per observation. Wider observations shrink it faster,
/// and MultiObservationEngine's deferred normalization reports an object
/// inconsistent once that mass falls below kProbEpsilon.
core::Observation NextObservation(const markov::MarkovChain& chain,
                                  Track* t) {
  std::map<uint32_t, double> next;
  t->pdf.ForEachNonZero([&](uint32_t s, double p) {
    const std::span<const uint32_t> cols = chain.matrix().RowIndices(s);
    const std::span<const double> vals = chain.matrix().RowValues(s);
    for (size_t k = 0; k < cols.size(); ++k) next[cols[k]] += p * vals[k];
  });
  uint32_t best = next.begin()->first;
  for (const auto& [s, p] : next) {
    if (p > next[best]) best = s;
  }
  t->time += 1;
  t->pdf = Require(sparse::ProbVector::FromPairs(chain.num_states(),
                                                 {{best, 1.0}}, true),
                   "observation pdf");
  return {t->time, t->pdf};
}

/// The materials plus a second observation at t=1 on every 16th object,
/// so the database starts with multi-observation objects.
Materials MakeIngestMaterials(uint64_t seed) {
  Materials m = MakeMaterials(Config(), kClusters, kPerCluster,
                              kObjectsPerChain, seed);
  for (size_t i = 0; i < m.objects.size(); i += 16) {
    ObjectSpec& o = m.objects[i];
    Track t = TrackOf(o.observations.back());
    o.observations.push_back(NextObservation(m.chains[o.chain], &t));
  }
  return m;
}

std::vector<ObjectId> HotObjects() {
  const uint32_t per_cluster = kPerCluster * kObjectsPerChain;
  std::vector<ObjectId> hot;
  for (uint32_t c = 0; c < kClusters; ++c) {
    // Objects sit round-robin on the cluster's chains (MakeMaterials), so
    // j / 2 * kPerCluster + 1 + j % 2 is on chain 1 + j % 2.
    for (uint32_t j = 0; j < kHotPerCluster; ++j) {
      hot.push_back(c * per_cluster + j / 2 * kPerCluster + 1 + j % 2);
    }
  }
  return hot;
}

core::QueryRequest Standing(uint32_t i) {
  const uint32_t stride = (kStates - kRegionWidth - 16) / kSubscriptions;
  const uint32_t s_lo = 8 + i * stride;
  core::QueryRequest r;
  r.predicate = core::PredicateKind::kExists;
  r.plan = core::PlanChoice::kQueryBased;
  r.window = Require(core::QueryWindow::FromRanges(
                         kStates, s_lo, s_lo + kRegionWidth - 1, 2,
                         2 + kWindowSteps - 1),
                     "standing window");
  return r;
}

/// Everything one cycle observed, accumulated across cycles.
struct Totals {
  std::vector<SubRun> cycles_run;  // per cycle: set-up, rate, answer latency
  std::vector<double> answer_ms;  // round start -> that subscription's delta
  std::vector<double> round_ms;
  std::vector<double> delta_ms;   // append return -> first reflecting delta
  std::vector<double> append_us;  // AppendObservation call time
  std::vector<double> append_late_ms;
  std::vector<double> notify_ms;  // per delivery, from callback spacing
  // Traced appends only.
  std::vector<obs::TraceSpan> span_sample;
  std::vector<double> apply_us;
  std::vector<double> lock_wait_us;
  std::vector<double> coverage;
  double timed_s = 0.0;
  uint64_t deltas = 0;
  uint64_t rounds = 0;
  uint64_t appends = 0;
  uint64_t failed = 0;
  uint64_t shift_extends = 0;
  uint64_t invalidations = 0;
  uint64_t misses = 0;
  uint64_t cycles = 0;
};

/// State the subscription callbacks write, on the refreshing thread.
struct CycleState {
  std::vector<std::map<ObjectId, double>> mirrors =
      std::vector<std::map<ObjectId, double>>(kSubscriptions);
  std::vector<DeltaEvent> deltas;
  bool timing = false;
  Clock::time_point round_start;
  std::vector<Clock::time_point> delivered;  // current round
  std::vector<double>* answer_ms = nullptr;
};

/// One cycle: load, subscribe and warm (timed as set-up), then
/// kRoundsPerCycle rounds of TickWindows + RefreshSubscriptions while the
/// appender ingests at kAppendRate, then a quiescing refresh and the
/// checks: every append reflected in a delta, every subscription's
/// delta-rebuilt answer equal to a cold recompute within 1e-12.
/// Returns the last cycle's service statistics.
service::ServiceStats RunCycle(const Materials& m, uint64_t seed,
                               obs::MetricsRegistry* registry,
                               RegistryDelta* delta, Totals* totals,
                               std::vector<double>* spmv,
                               std::unique_ptr<core::ShardedDatabase>* kept) {
  CycleState state;
  SubRun run;
  state.answer_ms = &run.latency_ms;
  const Clock::time_point s0 = Clock::now();
  Served served;
  served.db = Load(m, kShards);
  served.svc = std::make_unique<service::QueryService>(
      served.db.get(), ServiceOptionsFor(kCache, registry));
  std::vector<service::Subscription> subs;
  for (uint32_t i = 0; i < kSubscriptions; ++i) {
    subs.push_back(Require(
        served.svc->Subscribe(
            Standing(i), service::WindowPolicy{.slide = 1},
            [&state, i](const service::SubscriptionDelta& d) {
              const Clock::time_point now = Clock::now();
              std::map<ObjectId, double>& mirror = state.mirrors[i];
              for (ObjectId id : d.left) mirror.erase(id);
              for (const auto& p : d.entered) mirror[p.id] = p.probability;
              for (const auto& p : d.changed) mirror[p.id] = p.probability;
              state.deltas.push_back({d.epoch, now});
              if (state.timing) {
                state.answer_ms->push_back(Ms(now - state.round_start));
                state.delivered.push_back(now);
              }
            }),
        "Subscribe"));
  }
  if (served.svc->RefreshSubscriptions() != kSubscriptions) {
    Fail("ingest_subscribe: warm-up refresh did not deliver every delta");
  }
  run.setup_s = Seconds(Clock::now() - s0);

  // Appender: open loop over the hot objects, its schedule drawn per cycle.
  const std::vector<ObjectId> hot = HotObjects();
  std::vector<Track> tracks;
  for (ObjectId id : hot) tracks.push_back(TrackOf(m.objects[id].observations.back()));
  std::vector<uint32_t> per_object(hot.size(), 0);
  std::vector<std::pair<ObjectId, core::Observation>> log;
  std::vector<AppendEvent> appends;
  // Appender thread only, read after join.
  uint64_t append_failed = 0;
  bool capped = false;
  std::atomic<bool> stop{false};
  util::Rng rng(seed * 2654435761u + totals->cycles);
  const std::vector<double> offsets = RescaledPoissonSchedule(
      kAppendRate, static_cast<size_t>(kAppendRate * 60.0), &rng);
  const bool traced = registry != nullptr;
  const service::ServiceStats before = served.svc->stats();
  if (delta != nullptr) delta->Begin(*registry);
  const double spmv0 = GlobalSpmvPasses();
  const Clock::time_point start = Clock::now();
  std::thread appender([&] {
    for (size_t i = 0; i < offsets.size(); ++i) {
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(offsets[i]));
      std::this_thread::sleep_until(due);
      if (stop.load(std::memory_order_acquire)) break;
      const size_t h = i % hot.size();
      if (per_object[h]++ >= kMaxAppendsPerObject) {
        capped = true;
        break;
      }
      const ObjectId id = hot[h];
      core::Observation obs =
          NextObservation(m.chains[m.objects[id].chain], &tracks[h]);
      log.emplace_back(id, obs);
      const std::shared_ptr<obs::QueryTrace> trace =
          traced ? std::make_shared<obs::QueryTrace>() : nullptr;
      const Clock::time_point t0 = Clock::now();
      const util::Result<DataVersion> v =
          served.svc->AppendObservation(id, std::move(obs), trace);
      const Clock::time_point t1 = Clock::now();
      if (!v.ok()) {
        ++append_failed;
        continue;
      }
      appends.push_back({v.value(), t1});
      totals->append_us.push_back(1e6 * Seconds(t1 - t0));
      totals->append_late_ms.push_back(Ms(t0 - due));
      if (trace != nullptr) {
        const std::vector<obs::TraceSpan> spans = trace->spans();
        const Breakdown b = BreakdownOf(spans, trace->epoch());
        if (totals->span_sample.size() < 4096) {
          totals->span_sample.insert(totals->span_sample.end(), spans.begin(),
                                     spans.end());
        }
        const double call_us = 1e6 * Seconds(t1 - t0);
        totals->apply_us.push_back(1e6 * b.ingest);
        totals->lock_wait_us.push_back(call_us - 1e6 * b.ingest);
        totals->coverage.push_back(1e6 * b.ingest / call_us);
      }
    }
  });
  uint64_t cycle_deltas = 0;
  for (uint32_t r = 0; r < kRoundsPerCycle; ++r) {
    state.delivered.clear();
    state.timing = true;
    state.round_start = Clock::now();
    served.svc->TickWindows(1);
    const size_t delivered = served.svc->RefreshSubscriptions();
    const Clock::time_point end = Clock::now();
    state.timing = false;
    totals->round_ms.push_back(Ms(end - state.round_start));
    totals->deltas += delivered;
    cycle_deltas += delivered;
    if (delivered != kSubscriptions) {
      totals->failed += kSubscriptions - delivered;
    }
    if (state.delivered.size() >= 2) {
      totals->notify_ms.push_back(
          Ms(state.delivered.back() - state.delivered.front()) /
          static_cast<double>(state.delivered.size() - 1));
    }
  }
  const double timed_s = Seconds(Clock::now() - start);
  totals->timed_s += timed_s;
  run.qps = static_cast<double>(cycle_deltas) / timed_s;
  totals->answer_ms.insert(totals->answer_ms.end(), run.latency_ms.begin(),
                           run.latency_ms.end());
  totals->cycles_run.push_back(std::move(run));
  stop.store(true, std::memory_order_release);
  appender.join();
  if (capped) {
    Fail("ingest_subscribe: a hot object reached " +
         std::to_string(kMaxAppendsPerObject) +
         " appends in one cycle; the rounds ran too slowly to see ~16 "
         "appends each");
  }
  totals->failed += append_failed;
  spmv->push_back(GlobalSpmvPasses() - spmv0);
  if (delta != nullptr) delta->End(*registry);
  totals->rounds += kRoundsPerCycle;
  totals->appends += appends.size();

  // Quiesce: deliver whatever the last appends dirtied.
  served.svc->RefreshSubscriptions();
  const service::ServiceStats after = served.svc->stats();
  GuardNoRejections(after, "ingest_subscribe");
  totals->shift_extends += after.cache.shift_extends - before.cache.shift_extends;
  totals->invalidations += after.cache.invalidations - before.cache.invalidations;
  totals->misses += after.cache.misses - before.cache.misses;

  const std::vector<std::optional<double>> matched =
      MatchAppendsToDeltas(appends, state.deltas);
  for (const std::optional<double>& ms : matched) {
    if (!ms.has_value()) {
      Fail("ingest_subscribe: an append is reflected in no delivered delta");
    }
    totals->delta_ms.push_back(*ms);
  }
  served.svc.reset();

  // Cold recompute at the final epoch: a 1-shard database replaying the
  // same appends, every standing request at its slid window.
  std::unique_ptr<core::ShardedDatabase> reference = Load(m, 1);
  for (auto& [id, obs] : log) {
    Require(reference->AppendObservation(id, obs), "reference append");
  }
  std::vector<core::QueryRequest> requests;
  for (uint32_t i = 0; i < kSubscriptions; ++i) {
    core::QueryRequest r = Standing(i);
    r.window = r.window.ShiftedBy(kRoundsPerCycle);
    requests.push_back(std::move(r));
  }
  core::ExecutorOptions options;
  options.num_threads = kWorkers;
  options.cache_capacity = 512;
  options.obs.enabled = false;
  core::QueryExecutor executor(&reference->shard(0), options);
  const std::vector<util::Result<core::QueryResult>> cold =
      executor.RunBatch(requests);
  for (uint32_t i = 0; i < kSubscriptions; ++i) {
    if (!cold[i].ok()) Fail("ingest_subscribe: cold recompute failed");
    const std::vector<core::ObjectProbability>& want =
        cold[i].value().probabilities;
    if (want.size() != state.mirrors[i].size()) {
      Fail("ingest_subscribe: subscription " + std::to_string(i) +
           " answer set size differs from the cold recompute");
    }
    for (const core::ObjectProbability& p : want) {
      const auto it = state.mirrors[i].find(p.id);
      if (it == state.mirrors[i].end() ||
          !(std::fabs(it->second - p.probability) <= kParity)) {
        Fail("ingest_subscribe: subscription " + std::to_string(i) +
             " object " + std::to_string(p.id) +
             " differs from the cold recompute beyond 1e-12");
      }
    }
  }
  ++totals->cycles;
  if (kept != nullptr) *kept = std::move(reference);
  return after;
}

}  // namespace ingest
}  // namespace

Counts RunIngestSubscribe(const RunOptions& options, Report* report) {
  using namespace ingest;
  const Materials m = MakeIngestMaterials(options.seed);
  report->Note("ingest_subscribe: 24 chains in 4 clusters of 6, " +
               std::to_string(m.objects.size()) + " objects (" +
               std::to_string(HotObjects().size()) +
               " hot), 64 sliding subscriptions, " +
               std::to_string(kRoundsPerCycle) + " rounds per cycle, cache " +
               std::to_string(kCache) + "/shard, appends offered " +
               std::to_string(kAppendRate) + "/s");
  const double phase_s = options.trace ? options.seconds / 2 : options.seconds;
  Totals totals;
  std::vector<double> spmv;
  while (totals.timed_s < phase_s) {
    RunCycle(m, options.seed, nullptr, nullptr, &totals, &spmv, nullptr);
  }
  Counts counts;
  counts.attempted = totals.deltas + totals.appends + totals.failed;
  counts.failed = totals.failed;
  if (totals.shift_extends == 0 || totals.invalidations == 0) {
    Fail("ingest_subscribe: shift_extends=" +
         std::to_string(totals.shift_extends) +
         " invalidations=" + std::to_string(totals.invalidations) +
         "; both must be non-zero");
  }
  const double qps = totals.deltas / totals.timed_s;
  report->Note("ingest_subscribe: " + std::to_string(totals.cycles) +
               " cycles, " + std::to_string(totals.rounds) + " rounds, " +
               std::to_string(totals.appends) + " appends (" +
               std::to_string(static_cast<double>(totals.appends) /
                              totals.rounds) +
               " per round), shift_extends=" +
               std::to_string(totals.shift_extends) +
               " invalidations=" + std::to_string(totals.invalidations) +
               "; every append reflected, every answer within 1e-12 of a "
               "cold recompute");
  report->Add("harness.append_late_p99_ms",
              QuantilePermille(totals.append_late_ms, 990), "ms");

  if (!options.trace) {
    AddEndToEnd(report, totals.cycles_run, counts.attempted - counts.failed,
                counts.failed);
    AddLatency(report, "round", totals.round_ms, "ms");
    AddLatency(report, "delta", totals.delta_ms, "ms");
    AddLatency(report, "ingest", totals.append_us, "us");
    return counts;
  }

  obs::MetricsRegistry registry;
  RegistryDelta d;
  Totals traced;
  std::vector<double> traced_spmv;
  std::unique_ptr<core::ShardedDatabase> last_db;
  service::ServiceStats stats;
  while (traced.timed_s < phase_s) {
    stats = RunCycle(m, options.seed, &registry, &d, &traced,
                     &traced_spmv, &last_db);
  }
  counts.attempted += traced.deltas + traced.appends + traced.failed;
  counts.failed += traced.failed;
  double passes = 0.0;
  for (double p : traced_spmv) passes += p;
  const std::unique_ptr<core::ShardedDatabase> sharded = Load(m, kShards);
  AddRegistryLayers(report, d, stats, *sharded,
                    static_cast<double>(traced.deltas), passes);
  // Invalidations and shift-extensions come from ServiceStats: on this
  // workload the registry's invalidation counter stays at 0 while
  // ServiceStats counts thousands.
  report->Add("cache.invalidations_per_round",
              static_cast<double>(traced.invalidations) / traced.rounds,
              "count");
  report->Add("cache.shift_extend_frac",
              static_cast<double>(traced.shift_extends) /
                  (traced.shift_extends + traced.misses),
              "fraction");
  report->Add("subscription.dispatches_per_round",
              d.Counter("ustdb_service_dispatches_total") / traced.rounds,
              "count");
  report->Add("subscription.notify_ms", Median(traced.notify_ms), "ms");
  // The ingest span opens before the shard lock is taken, so the wait for
  // a running dispatch shows in the span's tail, not in lock_wait_us.
  report->Add("ingest.apply_us", Median(traced.apply_us), "us");
  report->Add("ingest.apply_p99_us", QuantilePermille(traced.apply_us, 990),
              "us");
  report->Add("ingest.lock_wait_us", Median(traced.lock_wait_us), "us");
  report->Add("trace.coverage", Median(traced.coverage), "fraction");
  report->Add("obs.tracing_overhead", (traced.deltas / traced.timed_s) / qps,
              "ratio");

  // Probes over the final cycle's data: its chains, the standing windows,
  // and the hot objects' full observation histories.
  const core::Database& db = last_db->shard(0);
  std::vector<ProbePair> pairs;
  std::vector<const markov::MarkovChain*> chains;
  for (ChainId c = 0; c < db.num_chains(); ++c) chains.push_back(&db.chain(c));
  for (uint32_t i = 0; i < kSubscriptions; i += 8) {
    pairs.push_back({&db.chain(i % db.num_chains()),
                     Standing(i).window.ShiftedBy(kRoundsPerCycle)});
  }
  std::vector<ProbeObject> objects;
  for (ObjectId id : HotObjects()) {
    objects.push_back(
        {&db.chain(db.object(id).chain), db.object(id).observations});
  }
  AddProbes(report, pairs, objects, objects,
            Standing(0).window.ShiftedBy(kRoundsPerCycle), chains);
  WriteSpans(options, traced.span_sample);
  return counts;
}

}  // namespace perfbench
}  // namespace ustdb
