// End-to-end observability acceptance: a sustained mixed workload
// (2 shards and 1 shard, solo and coalesced bursts, every predicate
// family) must leave a metrics registry whose queue/plan/cache/prune
// families carry shard and plan labels, export cleanly to both
// Prometheus text and JSON, retain at least one sampled full trace from
// submit to merge, populate the slow-query ring, and agree with
// ServiceStats on the request totals. The kernel dispatch family feeds
// the process-global registry and is checked there.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/query_request.h"
#include "core/query_window.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/query_service.h"
#include "testing/sharded_fixture.h"

namespace ustdb {
namespace service {
namespace {

using ::ustdb::testing::MakeShardedPair;
using ::ustdb::testing::ShardedPair;
using ::ustdb::testing::ShardedSpec;

const obs::MetricFamily* FindFamily(const obs::MetricsSnapshot& snapshot,
                                    const std::string& name) {
  for (const obs::MetricFamily& family : snapshot.families) {
    if (family.name == name) return &family;
  }
  return nullptr;
}

std::set<std::string> LabelValues(const obs::MetricFamily& family,
                                  const std::string& key) {
  std::set<std::string> values;
  for (const obs::MetricPoint& point : family.points) {
    auto it = point.labels.find(key);
    if (it != point.labels.end()) values.insert(it->second);
  }
  return values;
}

/// Mixed traffic over `service`: every predicate family, a coalescible
/// burst, and a threshold request forced onto the bound plan.
void DriveMixedWorkload(QueryService* service, uint32_t num_states) {
  const auto window = [num_states](uint32_t s_lo, uint32_t s_hi,
                                   Timestamp t_lo, Timestamp t_hi) {
    return core::QueryWindow::FromRanges(num_states, s_lo, s_hi, t_lo, t_hi)
        .ValueOrDie();
  };
  core::QueryRequest exists;
  exists.predicate = core::PredicateKind::kExists;
  exists.window = window(4, 18, 1, 6);

  core::QueryRequest threshold = exists;
  threshold.predicate = core::PredicateKind::kThresholdExists;
  threshold.tau = 0.3;
  threshold.plan = core::PlanChoice::kBoundsThenRefine;

  core::QueryRequest topk = exists;
  topk.predicate = core::PredicateKind::kTopKExists;
  topk.k = 5;

  core::QueryRequest ktimes = exists;
  ktimes.predicate = core::PredicateKind::kKTimes;

  for (int round = 0; round < 4; ++round) {
    for (const core::QueryRequest& request :
         {exists, threshold, topk, ktimes}) {
      ASSERT_TRUE(service->Submit(request).Get().ok());
    }
    std::vector<QueryTicket> burst = service->SubmitBurst(
        std::vector<core::QueryRequest>(16, exists), Priority::kBulk);
    for (QueryTicket& ticket : burst) {
      ASSERT_TRUE(ticket.Get().ok());
    }
  }
}

TEST(ObservabilityTest, MixedWorkloadPopulatesEveryFamilyEndToEnd) {
  const ShardedSpec spec;
  const ShardedPair pair = MakeShardedPair(spec, 2);
  const ShardedPair one_shard = MakeShardedPair(spec, 1);
  obs::MetricsRegistry registry;

  ServiceOptions options;
  options.executor.num_threads = 2;
  options.queue_capacity = 128;
  options.obs.registry = &registry;
  options.obs.trace_sample_every = 8;
  options.obs.slow_query_ring = 16;

  // Two-shard and one-shard services feed ONE registry: the shard label
  // keeps their series apart while the families merge.
  {
    QueryService sharded(&pair.sharded, options);
    DriveMixedWorkload(&sharded, spec.num_states);
    QueryService single(&one_shard.sharded, options);
    DriveMixedWorkload(&single, spec.num_states);

    // --- ServiceStats agrees with the registry ---
    const ServiceStats stats = sharded.stats();
    EXPECT_GT(stats.completed, 0u);
    EXPECT_GT(stats.coalesced_batches, 0u);
    EXPECT_GT(stats.scatter_requests, 0u);

    // --- slow-query ring retained sampled traces with full breakdowns ---
    const std::vector<SlowQuery> slow = sharded.slow_queries();
    ASSERT_FALSE(slow.empty());
    EXPECT_LE(slow.size(), options.obs.slow_query_ring);
    bool saw_full_trace = false;
    for (const SlowQuery& record : slow) {
      EXPECT_GT(record.latency_ms, 0.0);
      bool has_queue = false;
      bool has_merge = false;
      bool has_exec = false;
      for (const obs::TraceSpan& span : record.spans) {
        has_queue |= span.stage == obs::Stage::kQueue;
        has_merge |= span.stage == obs::Stage::kMerge;
        has_exec |= span.stage == obs::Stage::kEvaluate;
      }
      saw_full_trace |= has_queue && has_merge && has_exec;
    }
    // At least one retained trace covers submit -> execute -> merge.
    EXPECT_TRUE(saw_full_trace);
  }

  const obs::MetricsSnapshot snapshot = registry.Snapshot();

  // --- queue family, per shard ---
  const obs::MetricFamily* queue_wait =
      FindFamily(snapshot, "ustdb_service_queue_wait_seconds");
  ASSERT_NE(queue_wait, nullptr);
  std::set<std::string> shards = LabelValues(*queue_wait, "shard");
  EXPECT_TRUE(shards.count("0"));
  EXPECT_TRUE(shards.count("1"));

  // --- executor stage family carries shard AND stage labels ---
  const obs::MetricFamily* stages =
      FindFamily(snapshot, "ustdb_exec_stage_seconds");
  ASSERT_NE(stages, nullptr);
  EXPECT_GE(LabelValues(*stages, "shard").size(), 2u);
  const std::set<std::string> stage_names = LabelValues(*stages, "stage");
  for (const char* stage : {"plan", "bound", "engine_build", "evaluate"}) {
    EXPECT_TRUE(stage_names.count(stage)) << stage;
  }
  uint64_t stage_observations = 0;
  uint64_t bound_observations = 0;
  for (const obs::MetricPoint& point : stages->points) {
    stage_observations += point.histogram.count;
    if (point.labels.at("stage") == "bound") {
      bound_observations += point.histogram.count;
    }
  }
  EXPECT_GT(stage_observations, 0u);
  // The forced bound-plan threshold requests ran the Section V-C pass, and
  // each pass is observed under its own stage, not folded into "plan".
  EXPECT_GT(bound_observations, 0u);

  // --- plan family ---
  const obs::MetricFamily* chains =
      FindFamily(snapshot, "ustdb_exec_chains_total");
  ASSERT_NE(chains, nullptr);
  const std::set<std::string> plans = LabelValues(*chains, "plan");
  EXPECT_TRUE(plans.count("object_based") || plans.count("query_based"));

  // --- cache and prune families ---
  const obs::MetricFamily* cache =
      FindFamily(snapshot, "ustdb_exec_cache_events_total");
  ASSERT_NE(cache, nullptr);
  uint64_t cache_events = 0;
  for (const obs::MetricPoint& point : cache->points) {
    cache_events += static_cast<uint64_t>(point.value);
  }
  EXPECT_GT(cache_events, 0u);
  EXPECT_NE(FindFamily(snapshot, "ustdb_prune_clusters_total"), nullptr);

  // --- dispatch kinds: the workload exercised solo AND coalesced ---
  const obs::MetricFamily* dispatches =
      FindFamily(snapshot, "ustdb_service_dispatches_total");
  ASSERT_NE(dispatches, nullptr);
  const std::set<std::string> kinds = LabelValues(*dispatches, "kind");
  EXPECT_TRUE(kinds.count("solo"));
  EXPECT_TRUE(kinds.count("coalesced"));

  // --- request totals: outcomes sum to submissions across both modes ---
  const obs::MetricFamily* submitted =
      FindFamily(snapshot, "ustdb_service_submitted_total");
  const obs::MetricFamily* outcomes =
      FindFamily(snapshot, "ustdb_service_requests_total");
  ASSERT_NE(submitted, nullptr);
  ASSERT_NE(outcomes, nullptr);
  double submitted_total = 0.0;
  for (const obs::MetricPoint& point : submitted->points) {
    submitted_total += point.value;
  }
  double resolved_total = 0.0;
  for (const obs::MetricPoint& point : outcomes->points) {
    resolved_total += point.value;
  }
  EXPECT_EQ(resolved_total, submitted_total);
  EXPECT_GT(submitted_total, 0.0);

  // --- exporters render the populated registry ---
  const std::string text = obs::WritePrometheusText(snapshot);
  EXPECT_NE(text.find("# TYPE ustdb_service_request_latency_seconds "
                      "histogram"),
            std::string::npos);
  EXPECT_NE(text.find("shard=\"1\""), std::string::npos);
  EXPECT_NE(text.find("_bucket{"), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);

  const std::string json = obs::WriteJson(snapshot);
  EXPECT_NE(json.find("\"ustdb_exec_stage_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"git_sha\""), std::string::npos);
}

TEST(ObservabilityTest, KernelDispatchFamilyFeedsGlobalRegistry) {
  const ShardedSpec spec;
  const ShardedPair pair = MakeShardedPair(spec, 1);
  ServiceOptions options;
  options.executor.num_threads = 1;

  QueryService service(&pair.sharded, options);
  core::QueryRequest request;
  request.predicate = core::PredicateKind::kExists;
  request.window =
      core::QueryWindow::FromRanges(spec.num_states, 4, 18, 1, 6)
          .ValueOrDie();
  ASSERT_TRUE(service.Submit(request).Get().ok());

  // SpMV passes count against the process-global registry (the kernel
  // layer has no per-service wiring), labeled by the dispatching ISA.
  const obs::MetricsSnapshot global =
      obs::MetricsRegistry::Global()->Snapshot();
  const obs::MetricFamily* spmv =
      FindFamily(global, "ustdb_kernel_spmv_passes_total");
  ASSERT_NE(spmv, nullptr);
  uint64_t passes = 0;
  for (const obs::MetricPoint& point : spmv->points) {
    ASSERT_TRUE(point.labels.count("isa"));
    passes += static_cast<uint64_t>(point.value);
  }
  EXPECT_GT(passes, 0u);
}

TEST(ObservabilityTest, DisabledObservabilityKeepsRegistryUntouched) {
  const ShardedSpec spec;
  const ShardedPair pair = MakeShardedPair(spec, 1);
  obs::MetricsRegistry registry;
  ServiceOptions options;
  options.executor.num_threads = 1;
  options.obs.registry = &registry;
  options.obs.enabled = false;

  QueryService service(&pair.sharded, options);
  core::QueryRequest request;
  request.predicate = core::PredicateKind::kExists;
  request.window =
      core::QueryWindow::FromRanges(spec.num_states, 4, 18, 1, 6)
          .ValueOrDie();
  ASSERT_TRUE(service.Submit(request).Get().ok());

  // The overhead contract's "off" side: no handles resolved, nothing fed.
  EXPECT_TRUE(registry.Snapshot().families.empty());
  EXPECT_TRUE(service.slow_queries().empty());
  // ServiceStats keeps its exact legacy semantics regardless.
  EXPECT_EQ(service.stats().completed, 1u);
}

}  // namespace
}  // namespace service
}  // namespace ustdb
