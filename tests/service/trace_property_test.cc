// QueryTrace properties: the spans of a traced request must form a
// coherent account of where its end-to-end latency went. On the serial
// (unsharded, uncoalesced) path the top-level service spans — queue,
// dispatch, merge — are disjoint sub-intervals of [submit, resolve], so
// their durations sum to at most the ticket latency and, because the
// stamps bracket all but a few function calls, to nearly all of it. The
// executor stages (plan/bound/build/evaluate) nest inside the dispatch
// span. On a sharded scatter the per-shard spans overlap, so only the
// coverage bound (max end - min begin <= latency) survives — and must.

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <memory>
#include <set>
#include <vector>

#include "core/query_request.h"
#include "core/query_window.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/query_service.h"
#include "testing/random_models.h"
#include "testing/sharded_fixture.h"
#include "util/rng.h"

namespace ustdb {
namespace service {
namespace {

using ::ustdb::testing::MakeShardedPair;
using ::ustdb::testing::RandomChain;
using ::ustdb::testing::RandomDistribution;
using ::ustdb::testing::ShardedPair;
using ::ustdb::testing::ShardedSpec;

constexpr uint32_t kStates = 25;
constexpr uint32_t kObjects = 200;
/// Slack absorbing the few un-bracketed function calls between stamps
/// (CompleteSub -> merge, merge -> resolve) plus clock-read granularity.
constexpr double kSlackSeconds = 2e-3;

core::ShardedDatabase MakeDb(uint64_t seed) {
  util::Rng rng(seed);
  core::ShardedDatabase db(core::ShardingOptions{.num_shards = 1});
  const ChainId chain = db.AddChain(RandomChain(kStates, 3, &rng));
  for (uint32_t i = 0; i < kObjects; ++i) {
    (void)db.AddObjectAt(chain, RandomDistribution(kStates, 3, &rng))
        .ValueOrDie();
  }
  return db;
}

core::QueryRequest ExistsRequest() {
  core::QueryRequest request;
  request.predicate = core::PredicateKind::kExists;
  request.window =
      core::QueryWindow::FromRanges(kStates, 6, 12, 3, 8).ValueOrDie();
  return request;
}

double StageSum(const std::vector<obs::TraceSpan>& spans,
                std::initializer_list<obs::Stage> stages) {
  double total = 0.0;
  for (const obs::TraceSpan& span : spans) {
    for (obs::Stage stage : stages) {
      if (span.stage == stage) total += span.seconds();
    }
  }
  return total;
}

bool HasStage(const std::vector<obs::TraceSpan>& spans, obs::Stage stage) {
  return std::any_of(
      spans.begin(), spans.end(),
      [stage](const obs::TraceSpan& s) { return s.stage == stage; });
}

double CoverageSeconds(const std::vector<obs::TraceSpan>& spans) {
  auto min_begin = spans.front().begin;
  auto max_end = spans.front().end;
  for (const obs::TraceSpan& span : spans) {
    min_begin = std::min(min_begin, span.begin);
    max_end = std::max(max_end, span.end);
  }
  return std::chrono::duration<double>(max_end - min_begin).count();
}

TEST(TracePropertyTest, SoloSpansSumToTicketLatency) {
  core::ShardedDatabase db = MakeDb(61);
  obs::MetricsRegistry registry;  // isolated from Global()
  ServiceOptions options;
  options.executor.num_threads = 1;
  options.max_batch = 1;  // solo dispatch => serial, non-overlapping
  options.obs.registry = &registry;
  options.obs.trace_sample_every = 1;  // trace every request
  options.obs.slow_query_ring = 64;

  QueryService service(&db, options);

  constexpr int kRequests = 24;
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(service.Submit(ExistsRequest()).Get().ok());
  }

  const std::vector<SlowQuery> traced = service.slow_queries();
  ASSERT_EQ(traced.size(), static_cast<size_t>(kRequests));

  double total_latency = 0.0;
  double total_top_level = 0.0;
  for (const SlowQuery& record : traced) {
    ASSERT_FALSE(record.spans.empty());
    const double latency = record.latency_ms / 1e3;

    // The full solo pipeline leaves a span per stage.
    for (obs::Stage stage :
         {obs::Stage::kQueue, obs::Stage::kDispatch, obs::Stage::kPlan,
          obs::Stage::kEngineBuild, obs::Stage::kEvaluate,
          obs::Stage::kMerge}) {
      EXPECT_TRUE(HasStage(record.spans, stage))
          << "missing stage " << obs::StageName(stage);
    }

    // Spans are well-formed and sorted by begin time.
    for (size_t i = 0; i < record.spans.size(); ++i) {
      EXPECT_GE(record.spans[i].seconds(), 0.0);
      if (i > 0) {
        EXPECT_GE(record.spans[i].begin, record.spans[i - 1].begin);
      }
    }

    // Top-level service spans are disjoint sub-intervals of the ticket's
    // [submit, resolve] window: their sum cannot exceed the latency.
    const double top_level =
        StageSum(record.spans, {obs::Stage::kQueue, obs::Stage::kDispatch,
                                obs::Stage::kMerge});
    EXPECT_LE(top_level, latency + kSlackSeconds);

    // Executor stages nest inside the dispatch span.
    const double nested = StageSum(
        record.spans, {obs::Stage::kPlan, obs::Stage::kBound,
                       obs::Stage::kEngineBuild, obs::Stage::kEvaluate});
    EXPECT_LE(nested,
              StageSum(record.spans, {obs::Stage::kDispatch}) +
                  kSlackSeconds);

    // No span reaches outside the ticket window.
    EXPECT_LE(CoverageSeconds(record.spans), latency + kSlackSeconds);

    total_latency += latency;
    total_top_level += top_level;
  }

  // The stamps bracket all but a few function calls: across the run, the
  // top-level spans account for nearly all of the end-to-end time.
  EXPECT_GE(total_top_level, 0.7 * total_latency - 0.010);
}

TEST(TracePropertyTest, CallerTraceHonoredWithObservabilityDisabled) {
  core::ShardedDatabase db = MakeDb(62);
  ServiceOptions options;
  options.executor.num_threads = 1;
  options.max_batch = 1;
  options.obs.enabled = false;  // no registry, no sampling, no ring

  QueryService service(&db, options);
  core::QueryRequest request = ExistsRequest();
  auto trace = std::make_shared<obs::QueryTrace>();
  request.trace = trace;

  ASSERT_TRUE(service.Submit(std::move(request)).Get().ok());
  // Explicitly attached traces bypass the master switch entirely.
  const std::vector<obs::TraceSpan> spans = trace->spans();
  for (obs::Stage stage :
       {obs::Stage::kQueue, obs::Stage::kDispatch, obs::Stage::kPlan,
        obs::Stage::kEvaluate, obs::Stage::kMerge}) {
    EXPECT_TRUE(HasStage(spans, stage))
        << "missing stage " << obs::StageName(stage);
  }
  // But nothing was retained service-side.
  EXPECT_TRUE(service.slow_queries().empty());
}

TEST(TracePropertyTest, BoundPlanLeavesBoundSpan) {
  core::ShardedDatabase db = MakeDb(63);
  ServiceOptions options;
  options.executor.num_threads = 1;
  options.max_batch = 1;
  options.obs.enabled = false;

  QueryService service(&db, options);
  core::QueryRequest request = ExistsRequest();
  request.predicate = core::PredicateKind::kThresholdExists;
  request.tau = 0.3;
  request.plan = core::PlanChoice::kBoundsThenRefine;
  auto trace = std::make_shared<obs::QueryTrace>();
  request.trace = trace;

  QueryTicket ticket = service.Submit(std::move(request));
  const auto result = ticket.Get();
  ASSERT_TRUE(result.ok()) << result.status();
  if (result.value().stats.prune.clusters_bounded > 0) {
    EXPECT_TRUE(HasStage(trace->spans(), obs::Stage::kBound));
  }
}

TEST(TracePropertyTest, ShardedScatterSpansStayWithinTicketWindow) {
  const ShardedSpec spec;
  const ShardedPair pair = MakeShardedPair(spec, 2);
  obs::MetricsRegistry registry;  // isolated from Global()
  ServiceOptions options;
  options.executor.num_threads = 2;
  options.obs.registry = &registry;
  options.obs.trace_sample_every = 1;
  options.obs.slow_query_ring = 64;

  QueryService service(&pair.sharded, options);
  ASSERT_EQ(service.num_shards(), 2u);

  core::QueryRequest request;
  request.predicate = core::PredicateKind::kExists;
  request.window =
      core::QueryWindow::FromRanges(spec.num_states, 4, 20, 1, 6)
          .ValueOrDie();

  constexpr int kRequests = 16;
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(service.Submit(request).Get().ok());
  }
  // The unfiltered window touches objects on both shards: the router
  // scattered, so per-shard spans overlap in time.
  ASSERT_GT(service.stats().scatter_requests, 0u);

  const std::vector<SlowQuery> traced = service.slow_queries();
  ASSERT_EQ(traced.size(), static_cast<size_t>(kRequests));
  bool saw_multi_shard = false;
  for (const SlowQuery& record : traced) {
    ASSERT_FALSE(record.spans.empty());
    const double latency = record.latency_ms / 1e3;
    // Overlapping scatter spans break the sum identity; the coverage
    // bound is the property that survives sharding.
    EXPECT_LE(CoverageSeconds(record.spans), latency + kSlackSeconds);
    EXPECT_TRUE(HasStage(record.spans, obs::Stage::kQueue));
    EXPECT_TRUE(HasStage(record.spans, obs::Stage::kMerge));

    std::set<int32_t> dispatch_shards;
    for (const obs::TraceSpan& span : record.spans) {
      if (span.stage == obs::Stage::kDispatch) {
        dispatch_shards.insert(span.shard);
      }
    }
    if (dispatch_shards.size() >= 2) saw_multi_shard = true;
  }
  EXPECT_TRUE(saw_multi_shard);
}

}  // namespace
}  // namespace service
}  // namespace ustdb
