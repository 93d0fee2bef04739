// Snapshot safety under fire: stats(), queue_depth(), slow_queries(),
// and MetricsRegistry::Snapshot()/exporters are hammered from reader
// threads while submitters keep the service saturated with bursts —
// at one shard and at two. Runs under TSan in CI (the service_ test
// regex), so a torn read or a lock-order inversion between the stats
// mutex, the queue mutex, and the registry fails loudly. Every observed
// ServiceStats snapshot must also satisfy the documented consistency
// invariant: resolutions never exceed submissions.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/query_request.h"
#include "core/query_window.h"
#include "obs/metrics.h"
#include "service/query_service.h"
#include "testing/sharded_fixture.h"

namespace ustdb {
namespace service {
namespace {

using ::ustdb::testing::MakeShardedPair;
using ::ustdb::testing::ShardedPair;
using ::ustdb::testing::ShardedSpec;

core::QueryRequest ExistsRequest(uint32_t num_states) {
  core::QueryRequest request;
  request.predicate = core::PredicateKind::kExists;
  request.window =
      core::QueryWindow::FromRanges(num_states, 4, 16, 1, 6).ValueOrDie();
  return request;
}

void ExpectConsistent(const ServiceStats& stats) {
  const uint64_t resolved = stats.completed + stats.failed +
                            stats.cancelled + stats.deadline_expired +
                            stats.rejected;
  // All counter fields come from one locked read: a snapshot can never
  // show more resolutions than submissions.
  EXPECT_LE(resolved, stats.submitted);
  EXPECT_GE(stats.latency_p99_ms, stats.latency_p50_ms);
}

/// Drives `service` with bursts from two submitters while two readers
/// snapshot every observable surface; returns the total submitted.
uint64_t Hammer(QueryService* service, obs::MetricsRegistry* registry,
                uint32_t num_states) {
  constexpr int kSubmitters = 2;
  constexpr int kBurstsPerSubmitter = 8;
  constexpr size_t kBurstSize = 12;

  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([service, registry, &done] {
      while (!done.load(std::memory_order_relaxed)) {
        ExpectConsistent(service->stats());
        (void)service->queue_depth();
        const std::vector<SlowQuery> slow = service->slow_queries();
        for (size_t i = 1; i < slow.size(); ++i) {
          EXPECT_GE(slow[i - 1].latency_ms, slow[i].latency_ms);
        }
        const obs::MetricsSnapshot snap = registry->Snapshot();
        const std::string text = obs::WritePrometheusText(snap);
        EXPECT_FALSE(text.empty());
      }
    });
  }

  std::vector<std::thread> submitters;
  std::atomic<uint64_t> resolved_ok{0};
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([service, num_states, &resolved_ok] {
      for (int b = 0; b < kBurstsPerSubmitter; ++b) {
        std::vector<QueryTicket> tickets = service->SubmitBurst(
            std::vector<core::QueryRequest>(kBurstSize,
                                            ExistsRequest(num_states)),
            b % 2 == 0 ? Priority::kInteractive : Priority::kBulk);
        for (QueryTicket& ticket : tickets) {
          if (ticket.Get().ok()) resolved_ok.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  done.store(true);
  for (std::thread& t : readers) t.join();

  EXPECT_GT(resolved_ok.load(), 0u);
  return kSubmitters * kBurstsPerSubmitter * kBurstSize;
}

TEST(StatsSnapshotTest, UnshardedReadsStayConsistentUnderBursts) {
  const ShardedSpec spec;
  const ShardedPair pair = MakeShardedPair(spec, 1);
  obs::MetricsRegistry registry;
  ServiceOptions options;
  options.executor.num_threads = 2;
  options.queue_capacity = 512;
  options.obs.registry = &registry;
  options.obs.trace_sample_every = 4;
  options.obs.slow_query_ring = 8;

  QueryService service(&pair.sharded, options);
  const uint64_t submitted = Hammer(&service, &registry, spec.num_states);

  const ServiceStats final_stats = service.stats();
  EXPECT_EQ(final_stats.submitted, submitted);
  EXPECT_EQ(final_stats.completed + final_stats.failed +
                final_stats.cancelled + final_stats.deadline_expired +
                final_stats.rejected,
            submitted);
  EXPECT_LE(service.slow_queries().size(), options.obs.slow_query_ring);
}

TEST(StatsSnapshotTest, ShardedReadsStayConsistentUnderBursts) {
  const ShardedSpec spec;
  const ShardedPair pair = MakeShardedPair(spec, 2);
  obs::MetricsRegistry registry;
  ServiceOptions options;
  options.executor.num_threads = 2;
  options.queue_capacity = 512;
  options.obs.registry = &registry;
  options.obs.trace_sample_every = 4;
  options.obs.slow_query_ring = 8;

  QueryService service(&pair.sharded, options);
  const uint64_t submitted = Hammer(&service, &registry, spec.num_states);

  const ServiceStats final_stats = service.stats();
  EXPECT_EQ(final_stats.submitted, submitted);
  EXPECT_EQ(final_stats.completed + final_stats.failed +
                final_stats.cancelled + final_stats.deadline_expired +
                final_stats.rejected,
            submitted);

  // The registry agrees with the idle service's own accounting.
  uint64_t registry_submitted = 0;
  for (const obs::MetricFamily& family : registry.Snapshot().families) {
    if (family.name == "ustdb_service_requests_total") {
      for (const obs::MetricPoint& point : family.points) {
        registry_submitted += static_cast<uint64_t>(point.value);
      }
    }
  }
  EXPECT_EQ(registry_submitted, submitted);
}

TEST(StatsSnapshotTest, ExecutorLastRunStatsReadableAfterService) {
  // last_run_stats() documents snapshot semantics: read between runs it
  // reflects the most recent completed run. The service owns its
  // executors, so this exercises the bare-executor surface directly.
  const ShardedSpec spec;
  const ShardedPair pair = MakeShardedPair(spec, 2);
  core::QueryExecutor executor(&pair.unsharded, {.num_threads = 2});
  ASSERT_TRUE(executor.Run(ExistsRequest(spec.num_states)).ok());
  const core::ExecStats stats = executor.last_run_stats();
  EXPECT_GT(stats.objects_evaluated, 0u);
}

}  // namespace
}  // namespace service
}  // namespace ustdb
