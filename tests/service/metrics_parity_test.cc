// Export parity: a QueryService's exported metrics are read from the same
// store as its ServiceStats, so they agree exactly. A workload at 1 and 2
// shards moves every service counter (each outcome, both sheds, a retry,
// a degraded answer, a quarantine and its recovery probe, appends,
// subscriptions, scatters), then every exported ustdb_service_*,
// ustdb_ingest_* and ustdb_subscription* series must equal its
// ServiceStats field, every ustdb_exec_cache_events_total kind summed over
// shards must equal ServiceStats::cache, and the gauges must be exact at
// the snapshot instant. Counter totals outlive the service; gauges do not.
// A bound-plan fallback is counted by every shard executor that falls
// back, once per request in the answer's stats.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/executor.h"
#include "core/query_request.h"
#include "core/query_window.h"
#include "obs/metrics.h"
#include "service/query_service.h"
#include "sparse/index_set.h"
#include "testing/sharded_fixture.h"
#include "util/fault_injector.h"

namespace ustdb {
namespace service {
namespace {

using ::ustdb::testing::MakeShardedPair;
using ::ustdb::testing::ShardedPair;
using ::ustdb::testing::ShardedSpec;
using Clock = std::chrono::steady_clock;
using std::chrono::milliseconds;

const obs::MetricFamily* FindFamily(const obs::MetricsSnapshot& snapshot,
                                    const std::string& name) {
  for (const obs::MetricFamily& family : snapshot.families) {
    if (family.name == name) return &family;
  }
  return nullptr;
}

/// Sum of the points of `name` whose labels contain `match`.
double Sum(const obs::MetricsSnapshot& snapshot, const std::string& name,
           const obs::Labels& match = {}) {
  const obs::MetricFamily* family = FindFamily(snapshot, name);
  double total = 0.0;
  if (family == nullptr) return total;
  for (const obs::MetricPoint& point : family->points) {
    bool matches = true;
    for (const auto& [key, value] : match) {
      const auto it = point.labels.find(key);
      matches = matches && it != point.labels.end() && it->second == value;
    }
    if (matches) total += point.value;
  }
  return total;
}

/// One exported counter series (summed over shards) and the ServiceStats
/// field it must equal.
struct Series {
  std::string family;
  obs::Labels match;
  uint64_t want = 0;
};

std::vector<Series> CounterSeries(const ServiceStats& s) {
  return {
      {"ustdb_service_submitted_total", {}, s.submitted},
      {"ustdb_service_requests_total",
       {{"outcome", "ok"}},
       s.completed - s.partial},
      {"ustdb_service_requests_total", {{"outcome", "partial"}}, s.partial},
      {"ustdb_service_requests_total",
       {{"outcome", "cancelled"}},
       s.cancelled},
      {"ustdb_service_requests_total",
       {{"outcome", "deadline"}},
       s.deadline_expired},
      {"ustdb_service_requests_total", {{"outcome", "rejected"}}, s.rejected},
      {"ustdb_service_requests_total", {{"outcome", "failed"}}, s.failed},
      {"ustdb_service_shed_total",
       {{"shed_reason", "bulk_overload"}},
       s.shed_bulk},
      {"ustdb_service_shed_total",
       {{"shed_reason", "interactive_overload"}},
       s.shed_interactive},
      {"ustdb_service_retries_total", {}, s.retries},
      {"ustdb_service_degraded_total", {}, s.degraded},
      {"ustdb_service_scatter_requests_total", {}, s.scatter_requests},
      {"ustdb_service_scatter_subtasks_total", {}, s.scatter_subtasks},
      {"ustdb_service_dispatches_total", {{"kind", "solo"}},
       s.solo_dispatches},
      {"ustdb_service_dispatches_total",
       {{"kind", "coalesced"}},
       s.coalesced_batches},
      {"ustdb_service_coalesced_requests_total", {}, s.coalesced_requests},
      {"ustdb_service_quarantines_total", {}, s.quarantines},
      {"ustdb_service_probes_total", {}, s.probes},
      {"ustdb_service_watchdog_trips_total", {}, s.watchdog_trips},
      {"ustdb_ingest_total", {{"outcome", "applied"}}, s.ingested},
      {"ustdb_ingest_total", {{"outcome", "rejected"}}, s.ingest_rejected},
      {"ustdb_subscription_refreshes_total", {}, s.subscription_refreshes},
      {"ustdb_subscription_deltas_total", {}, s.subscription_deltas},
  };
}

bool Covers(const Series& series, const std::string& family,
            const obs::Labels& labels) {
  if (series.family != family) return false;
  for (const auto& [key, value] : series.match) {
    const auto it = labels.find(key);
    if (it == labels.end() || it->second != value) return false;
  }
  return true;
}

/// Every counter series equals its field, and every exported counter
/// point of the service families is one of those series.
void ExpectCounterParity(const obs::MetricsSnapshot& snapshot,
                         const ServiceStats& stats) {
  const std::vector<Series> series = CounterSeries(stats);
  for (const Series& s : series) {
    EXPECT_NE(FindFamily(snapshot, s.family), nullptr) << s.family;
    EXPECT_EQ(Sum(snapshot, s.family, s.match), static_cast<double>(s.want))
        << s.family
        << (s.match.empty() ? "" : "{" + s.match.begin()->second + "}");
  }
  for (const obs::MetricFamily& family : snapshot.families) {
    const bool service_family = family.name.starts_with("ustdb_service_") ||
                                family.name.starts_with("ustdb_ingest_") ||
                                family.name.starts_with("ustdb_subscription");
    // The sampled-trace count is the one service counter without a
    // ServiceStats field.
    if (!service_family || family.kind != obs::MetricKind::kCounter ||
        family.name == "ustdb_service_traces_sampled_total") {
      continue;
    }
    for (const obs::MetricPoint& point : family.points) {
      bool covered = false;
      for (const Series& s : series) {
        covered = covered || Covers(s, family.name, point.labels);
      }
      EXPECT_TRUE(covered) << "series without a ServiceStats field: "
                           << family.name;
    }
  }
}

/// Each cache event kind, summed over the shard executors.
void ExpectCacheParity(const obs::MetricsSnapshot& snapshot,
                       const core::EngineCacheStats& cache) {
  const char* kCache = "ustdb_exec_cache_events_total";
  for (const auto& [kind, want] :
       {std::pair{"hit", cache.hits}, std::pair{"miss", cache.misses},
        std::pair{"eviction", cache.evictions},
        std::pair{"invalidation", cache.invalidations},
        std::pair{"shift_extend", cache.shift_extends},
        std::pair{"bound_hit", cache.bound_hits},
        std::pair{"bound_miss", cache.bound_misses},
        std::pair{"bound_eviction", cache.bound_evictions}}) {
    EXPECT_EQ(Sum(snapshot, kCache, {{"kind", kind}}),
              static_cast<double>(want))
        << kind;
  }
}

core::QueryRequest Exists(const ShardedSpec& spec) {
  core::QueryRequest request;
  request.predicate = core::PredicateKind::kExists;
  request.window =
      core::QueryWindow::FromRanges(spec.num_states, 4, 18, 1, 6)
          .ValueOrDie();
  return request;
}

core::QueryRequest Threshold(const ShardedSpec& spec) {
  core::QueryRequest request = Exists(spec);
  request.predicate = core::PredicateKind::kThresholdExists;
  request.tau = 0.3;
  return request;
}

core::Observation UniformObs(Timestamp t, uint32_t n) {
  std::vector<std::pair<uint32_t, double>> pairs;
  for (uint32_t i = 0; i < n; ++i) pairs.emplace_back(i, 1.0);
  return {t, sparse::ProbVector::FromPairs(n, std::move(pairs),
                                           /*normalize=*/true)
                 .ValueOrDie()};
}

std::unique_ptr<util::FaultInjector> FailShard(uint32_t shard) {
  return util::FaultInjector::Parse("shard" + std::to_string(shard) + ":fail",
                                    1)
      .ValueOrDie();
}

class MetricsParityTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(MetricsParityTest, ExportedSeriesEqualServiceStats) {
  const uint32_t num_shards = GetParam();
  const ShardedSpec spec;
  ShardedPair pair = MakeShardedPair(spec, num_shards);
  const uint32_t last = num_shards - 1;
  std::optional<ObjectId> on_last;
  for (ObjectId id = 0; id < pair.sharded.num_objects() && !on_last; ++id) {
    if (pair.sharded.shard_of_object(id) == last) on_last = id;
  }
  ASSERT_TRUE(on_last.has_value());
  core::QueryRequest single = Exists(spec);
  single.object_filter = std::vector<ObjectId>{*on_last};

  obs::MetricsRegistry registry;
  ServiceOptions options;
  options.executor.num_threads = 2;
  // An unfiltered request fills 1/16 of the total queue capacity at any
  // shard count: four queued ones reach both shed thresholds.
  options.queue_capacity = 8;
  options.overload = OverloadPolicy{
      .enabled = true, .shed_bulk_at = 0.125, .shed_interactive_at = 0.25};
  // One transient failure quarantines a shard; its probe is due 1 ms on.
  options.health = HealthPolicy{.degraded_after = 1,
                                .quarantine_after = 1,
                                .probe_backoff = milliseconds(1),
                                .max_probe_backoff = milliseconds(1),
                                .watchdog_stall = milliseconds(0)};
  options.obs.registry = &registry;

  ServiceStats final_stats;
  {
    QueryService service(&pair.sharded, options);

    // ok (scattered when sharded, solo dispatches) and failed outcomes.
    ASSERT_TRUE(service.Submit(Exists(spec)).Get().ok());
    ASSERT_TRUE(service.Submit(single).Get().ok());
    core::QueryRequest unroutable = Exists(spec);
    unroutable.object_filter = std::vector<ObjectId>{
        static_cast<ObjectId>(pair.sharded.num_objects())};
    EXPECT_EQ(service.Submit(unroutable).Get().status().code(),
              util::StatusCode::kInvalidArgument);

    // Paused: a cancel and an expiry, both sheds, a degraded answer, and
    // one coalesced drain on Resume().
    service.Pause();
    std::vector<QueryTicket> queued;
    for (int i = 0; i < 4; ++i) queued.push_back(service.Submit(Exists(spec)));
    queued[0].Cancel();
    EXPECT_EQ(
        service.Submit(Exists(spec), Priority::kBulk).Get().status().code(),
        util::StatusCode::kUnavailable);
    EXPECT_EQ(service.Submit(Exists(spec)).Get().status().code(),
              util::StatusCode::kUnavailable);
    core::QueryRequest willing = Threshold(spec);
    willing.degrade = core::DegradeMode::kUnderPressure;
    queued.push_back(service.Submit(willing));
    core::QueryRequest expired = Exists(spec);
    expired.deadline = Clock::now() - std::chrono::seconds(1);
    EXPECT_EQ(service.Submit(expired).Get().status().code(),
              util::StatusCode::kDeadlineExceeded);
    service.Resume();
    EXPECT_EQ(queued[0].Get().status().code(), util::StatusCode::kCancelled);
    for (size_t i = 1; i < 4; ++i) EXPECT_TRUE(queued[i].Get().ok());
    const auto degraded = queued[4].Get();
    ASSERT_TRUE(degraded.ok()) << degraded.status();
    EXPECT_TRUE(degraded.value().degraded_bounds);

    // Faults on the last shard: a retried request fails twice and
    // quarantines it; a scattered request then answers partially.
    {
      util::ScopedFaultInjection scope(FailShard(last));
      core::QueryRequest retried = single;
      retried.retry.max_retries = 1;
      EXPECT_EQ(service.Submit(retried).Get().status().code(),
                util::StatusCode::kUnavailable);
      EXPECT_EQ(service.shard_health(last), ShardHealth::kQuarantined);
      const auto spanning = service.Submit(Exists(spec)).Get();
      if (num_shards > 1) {
        ASSERT_TRUE(spanning.ok()) << spanning.status();
        EXPECT_TRUE(spanning.value().partial);
      } else {
        EXPECT_EQ(spanning.status().code(), util::StatusCode::kUnavailable);
      }
    }
    // A probe, once due, recovers the shard.
    for (int attempt = 0;
         attempt < 200 && service.shard_health(last) != ShardHealth::kHealthy;
         ++attempt) {
      std::this_thread::sleep_for(milliseconds(2));
      (void)service.Submit(single).Get();
    }
    ASSERT_EQ(service.shard_health(last), ShardHealth::kHealthy);

    // Ingest: one applied and one rejected append.
    ASSERT_TRUE(service.AppendObservation(0, UniformObs(3, spec.num_states))
                    .ok());
    EXPECT_FALSE(service
                     .AppendObservation(pair.sharded.num_objects(),
                                        UniformObs(3, spec.num_states))
                     .ok());

    // Subscriptions: the active gauge is exact right after Cancel(), and
    // a refresh skips the cancelled ones.
    std::vector<Subscription> subs;
    for (int i = 0; i < 3; ++i) {
      auto sub = service.Subscribe(Threshold(spec), WindowPolicy{},
                                   [](const SubscriptionDelta&) {});
      ASSERT_TRUE(sub.ok()) << sub.status();
      subs.push_back(std::move(sub).ValueOrDie());
    }
    subs[0].Cancel();
    subs[1].Cancel();
    ASSERT_EQ(service.stats().subscriptions_active, 1u);
    EXPECT_EQ(Sum(registry.Snapshot(), "ustdb_subscriptions_active"), 1.0);
    EXPECT_EQ(service.RefreshSubscriptions(), 1u);

    const ServiceStats stats = service.stats();
    // The workload moved every counter it can at this shard count, so
    // the parity below is never a vacuous 0 == 0.
    for (const Series& s : CounterSeries(stats)) {
      const bool sharded_only = s.family.find("scatter") != std::string::npos ||
                                (s.match.count("outcome") != 0 &&
                                 s.match.at("outcome") == "partial");
      if (s.family == "ustdb_service_watchdog_trips_total" ||
          (sharded_only && num_shards == 1)) {
        continue;
      }
      EXPECT_GT(s.want, 0u) << "workload never moved " << s.family;
    }

    const obs::MetricsSnapshot snapshot = registry.Snapshot();
    ExpectCounterParity(snapshot, stats);
    ExpectCacheParity(snapshot, stats.cache);
    EXPECT_EQ(Sum(snapshot, "ustdb_subscriptions_active"),
              static_cast<double>(stats.subscriptions_active));
    EXPECT_EQ(Sum(snapshot, "ustdb_service_queue_depth"),
              static_cast<double>(stats.queue_depth));
    for (uint32_t s = 0; s < num_shards; ++s) {
      EXPECT_EQ(Sum(snapshot, "ustdb_service_shard_health",
                    {{"shard", std::to_string(s)}}),
                static_cast<double>(service.shard_health(s)));
    }
    final_stats = stats;
  }

  // The service is gone: its counter totals are still exported, its
  // gauges (present state of a service that no longer exists) are not.
  const obs::MetricsSnapshot after = registry.Snapshot();
  ExpectCounterParity(after, final_stats);
  ExpectCacheParity(after, final_stats.cache);
  for (const char* gauge :
       {"ustdb_service_queue_depth", "ustdb_service_shard_health",
        "ustdb_subscriptions_active"}) {
    EXPECT_EQ(FindFamily(after, gauge), nullptr) << gauge;
  }
}

/// A forced bound plan over times {2, 4, 6}, which no bound pass covers:
/// the answer reports one fallback, as a bare executor over the unsharded
/// database does, and ustdb_prune_bound_fallbacks_total counts one per
/// shard executor that ran a sub.
TEST_P(MetricsParityTest, BoundFallbackCountedByEveryShardExecutor) {
  const uint32_t num_shards = GetParam();
  const ShardedSpec spec;
  ShardedPair pair = MakeShardedPair(spec, num_shards);
  core::QueryRequest request = Threshold(spec);
  request.plan = core::PlanChoice::kBoundsThenRefine;
  request.window =
      core::QueryWindow::Create(
          sparse::IndexSet::FromRange(spec.num_states, 4, 18).ValueOrDie(),
          {2, 4, 6})
          .ValueOrDie();

  core::QueryExecutor bare(&pair.unsharded, {.num_threads = 1});
  ASSERT_TRUE(bare.Run(request).ok());
  ASSERT_EQ(bare.last_run_stats().prune.bound_fallbacks, 1u);

  obs::MetricsRegistry registry;
  ServiceOptions options;
  options.executor.num_threads = 2;
  options.obs.registry = &registry;
  QueryService service(&pair.sharded, options);
  const auto answer = service.Submit(request).Get();
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(answer.value().stats.prune.bound_fallbacks, 1u);

  // Every shard holding objects runs one sub of the unfiltered request.
  uint32_t subs = 0;
  for (uint32_t s = 0; s < num_shards; ++s) {
    if (pair.sharded.shard(s).num_objects() > 0) ++subs;
  }
  ASSERT_EQ(subs, num_shards);
  EXPECT_EQ(Sum(registry.Snapshot(), "ustdb_prune_bound_fallbacks_total"),
            static_cast<double>(subs));
}

INSTANTIATE_TEST_SUITE_P(Shards, MetricsParityTest,
                         ::testing::Values(1u, 2u));

}  // namespace
}  // namespace service
}  // namespace ustdb
