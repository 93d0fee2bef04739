// Copyright 2026 the ustdb authors.

#include "metrics.h"

#include <gtest/gtest.h>

namespace ustdb {
namespace perfbench {
namespace {

const Clock::time_point kT0{};

Clock::time_point At(double ms) {
  return kT0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double, std::milli>(ms));
}

obs::TraceSpan Span(obs::Stage stage, int32_t shard, double begin_ms,
                    double end_ms) {
  obs::TraceSpan s;
  s.stage = stage;
  s.shard = shard;
  s.begin = At(begin_ms);
  s.end = At(end_ms);
  return s;
}

TEST(UnionLength, CountsOverlapsOnce) {
  EXPECT_DOUBLE_EQ(UnionLength({{0, 2}, {1, 5}, {7, 8}}), 6.0);
  EXPECT_DOUBLE_EQ(UnionLength({{3, 4}, {0, 1}, {0.5, 0.75}}), 2.0);
  EXPECT_DOUBLE_EQ(UnionLength({}), 0.0);
  EXPECT_DOUBLE_EQ(UnionLength({{2, 2}, {5, 4}}), 0.0);  // empty intervals
}

TEST(UncoveredLength, SubtractsOnlyTheCoveredPart) {
  // Children overlap each other and one sticks out of the parent.
  EXPECT_DOUBLE_EQ(UncoveredLength({{0, 10}}, {{1, 3}, {2, 4}, {9, 12}}),
                   10.0 - 3.0 - 1.0);
  EXPECT_DOUBLE_EQ(UncoveredLength({{0, 1}, {2, 3}}, {{0.5, 2.5}}), 1.0);
  EXPECT_DOUBLE_EQ(UncoveredLength({{0, 1}}, {}), 1.0);
}

TEST(BreakdownOf, SerialRequestSelfTimes) {
  const std::vector<obs::TraceSpan> spans = {
      Span(obs::Stage::kQueue, 0, 0, 1),
      Span(obs::Stage::kDispatch, 0, 1, 9),
      Span(obs::Stage::kPlan, 0, 1.5, 2),
      Span(obs::Stage::kEngineBuild, 0, 2, 4),
      Span(obs::Stage::kEvaluate, 0, 4, 8),
      Span(obs::Stage::kMerge, 0, 9, 9.5),
  };
  const Breakdown b = BreakdownOf(spans, kT0);
  EXPECT_NEAR(b.queue, 1e-3, 1e-12);
  EXPECT_NEAR(b.dispatch_self, 8e-3 - 6.5e-3, 1e-12);
  EXPECT_NEAR(b.plan, 0.5e-3, 1e-12);
  EXPECT_NEAR(b.engine_build, 2e-3, 1e-12);
  EXPECT_NEAR(b.evaluate, 4e-3, 1e-12);
  EXPECT_NEAR(b.merge, 0.5e-3, 1e-12);
  EXPECT_NEAR(b.covered, 9.5e-3, 1e-12);
}

TEST(BreakdownOf, OverlappingScatterSpansCountAsWallTime) {
  // One query scattered to two shards: shard 1 waits longer in its queue,
  // both dispatches overlap, and each shard's executor spans nest inside
  // its own dispatch.
  const std::vector<obs::TraceSpan> spans = {
      Span(obs::Stage::kQueue, 0, 0, 2),
      Span(obs::Stage::kQueue, 1, 0, 5),
      Span(obs::Stage::kDispatch, 0, 2, 8),
      Span(obs::Stage::kDispatch, 1, 5, 9),
      Span(obs::Stage::kEvaluate, 0, 3, 7),
      Span(obs::Stage::kEvaluate, 1, 6, 8.5),
      Span(obs::Stage::kMerge, 1, 9, 10),
  };
  const Breakdown b = BreakdownOf(spans, kT0);
  EXPECT_NEAR(b.queue, 5e-3, 1e-12);  // [0,5], not 2 + 5
  // Dispatch union [2,9] = 7 minus evaluate union [3,8.5] = 5.5.
  EXPECT_NEAR(b.dispatch_self, 1.5e-3, 1e-12);
  EXPECT_NEAR(b.evaluate, 5.5e-3, 1e-12);  // not 4 + 2.5
  EXPECT_NEAR(b.merge, 1e-3, 1e-12);
  EXPECT_NEAR(b.covered, 10e-3, 1e-12);
}

TEST(QuantilePermille, NearestRank) {
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(QuantilePermille(v, 500), 500.0);
  EXPECT_EQ(QuantilePermille(v, 990), 990.0);
  EXPECT_EQ(QuantilePermille(v, 1000), 1000.0);
  EXPECT_EQ(QuantilePermille({}, 500), 0.0);
  EXPECT_EQ(QuantilePermille({7.0}, 990), 7.0);
}

TEST(SupportedTail, NeedsTenSamplesBeyond) {
  // p99 of 1000 samples is rank 990: exactly ten beyond it.
  ASSERT_TRUE(SupportedTail(1000, 990).has_value());
  EXPECT_EQ(SupportedTail(1000, 990)->name, "p99");
  // 999 samples: rank 990 leaves nine, so the report falls back to p95.
  EXPECT_EQ(SupportedTail(999, 990)->name, "p95");
  EXPECT_EQ(SupportedTail(1009, 990)->name, "p99");
  // p99.9 only from 10,000 samples on, and only when allowed.
  EXPECT_EQ(SupportedTail(10000)->name, "p99.9");
  EXPECT_EQ(SupportedTail(9999)->name, "p99");
  EXPECT_EQ(SupportedTail(100000, 990)->name, "p99");
  // The median needs twenty samples; below that nothing is reportable.
  EXPECT_EQ(SupportedTail(20)->name, "p50");
  EXPECT_FALSE(SupportedTail(19).has_value());
  EXPECT_FALSE(SupportedTail(0).has_value());
}

TEST(MedianChunkRate, IgnoresAStalledChunk) {
  // One completion per ms for 100 ms, then a 50 ms stall, then 100 more.
  std::vector<Clock::time_point> done;
  for (int i = 0; i <= 100; ++i) done.push_back(At(i));
  for (int i = 1; i <= 100; ++i) done.push_back(At(150 + i));
  // Chunks of 20: nine run at 1/ms, the one spanning the stall slower.
  EXPECT_NEAR(MedianChunkRate(done, 20), 1000.0, 1e-6);
  // Too few completions for two chunks: the mean rate over all of them.
  EXPECT_NEAR(MedianChunkRate(done, 150), 200.0 / 0.25, 1e-6);
  EXPECT_EQ(MedianChunkRate({At(1)}, 10), 0.0);
}

TEST(OpenLoop, RescaledScheduleOffersTheExactRate) {
  util::Rng a(42);
  util::Rng b(42);
  const std::vector<double> x = RescaledPoissonSchedule(100.0, 1000, &a);
  const std::vector<double> y = RescaledPoissonSchedule(100.0, 1000, &b);
  ASSERT_EQ(x.size(), 1000u);
  EXPECT_EQ(x, y);  // deterministic per seed
  EXPECT_NEAR(x.back(), 10.0, 1e-9);
  for (size_t i = 1; i < x.size(); ++i) EXPECT_GE(x[i], x[i - 1]);
  // The gaps stay random: not an even 10 ms grid.
  EXPECT_GT(std::abs(x[0] - 0.01), 1e-6);
}

TEST(MatchAppendsToDeltas, FirstDeltaWhoseEpochReachesTheVersion) {
  const std::vector<DeltaEvent> deltas = {
      {2, At(5)}, {4, At(12)}, {3, At(13)}, {7, At(15)}, {9, At(25)}};
  const std::vector<AppendEvent> appends = {
      {3, At(10)}, {5, At(11)}, {9, At(20)}, {2, At(6)}, {10, At(30)}};
  const std::vector<std::optional<double>> got =
      MatchAppendsToDeltas(appends, deltas);
  ASSERT_EQ(got.size(), 5u);
  EXPECT_NEAR(*got[0], 2.0, 1e-9);  // epoch 4 at 12 ms reflects version 3
  EXPECT_NEAR(*got[1], 4.0, 1e-9);  // epoch 3 at 13 ms does not reach 5
  EXPECT_NEAR(*got[2], 5.0, 1e-9);
  EXPECT_EQ(*got[3], 0.0);  // delivered before the append call returned
  EXPECT_FALSE(got[4].has_value());  // no delta reflects version 10
}

}  // namespace
}  // namespace perfbench
}  // namespace ustdb
