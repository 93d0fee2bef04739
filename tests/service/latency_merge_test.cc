// ServiceStats latency percentiles under sharding: the p50/p99 must be
// read off the MERGED per-shard reservoirs, never an average of per-shard
// percentiles. The regression this guards: with one slow shard and N fast
// ones, averaging per-shard p99s reports a tail latency no request ever
// experienced, in either direction (diluting a rare slow tail, or
// inflating the global p99 when the slow shard serves almost no traffic).

// The same principle governs the registry's bucketed latency histograms:
// per-shard histograms merge bucket-wise (obs::MergeHistograms), and the
// merged percentiles must equal the percentiles of one histogram that
// observed the pooled samples — tested against that oracle below.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "obs/metrics.h"
#include "service/query_service.h"

namespace ustdb {
namespace service {
namespace {

using internal::LatencyPercentiles;
using internal::MergeLatencyPercentiles;

std::vector<double> Repeat(double value, size_t count) {
  return std::vector<double>(count, value);
}

TEST(LatencyMergeTest, EmptyInputYieldsZeros) {
  const LatencyPercentiles none = MergeLatencyPercentiles({});
  EXPECT_EQ(none.p50_ms, 0.0);
  EXPECT_EQ(none.p99_ms, 0.0);
  const LatencyPercentiles empties = MergeLatencyPercentiles({{}, {}, {}});
  EXPECT_EQ(empties.p50_ms, 0.0);
  EXPECT_EQ(empties.p99_ms, 0.0);
}

TEST(LatencyMergeTest, SingleReservoirReadsItsOwnPercentiles) {
  std::vector<double> samples;
  for (int i = 1; i <= 100; ++i) samples.push_back(static_cast<double>(i));
  const LatencyPercentiles p = MergeLatencyPercentiles({samples});
  // sorted[floor(q * (n-1))] — the one-reservoir formula; a single
  // reservoir must reproduce it exactly.
  EXPECT_EQ(p.p50_ms, 50.0);
  EXPECT_EQ(p.p99_ms, 99.0);
}

/// One shard serves nearly all traffic fast; another served 10 slow
/// requests. The pooled p99 stays at the fast latency (the slow tail is
/// under 1% of the pool) — a per-shard average would report ~50ms, a
/// latency no percentile of the real distribution contains.
TEST(LatencyMergeTest, RareSlowShardDoesNotInflateTail) {
  const std::vector<std::vector<double>> reservoirs = {
      Repeat(1.0, 2000), Repeat(100.0, 10)};
  const LatencyPercentiles pooled = MergeLatencyPercentiles(reservoirs);
  EXPECT_EQ(pooled.p50_ms, 1.0);
  EXPECT_EQ(pooled.p99_ms, 1.0);

  const double naive_p99_average = (1.0 + 100.0) / 2;  // the broken merge
  EXPECT_NE(pooled.p99_ms, naive_p99_average);
}

/// Both shards serve equal traffic but one is uniformly 100x slower. The
/// pooled p99 lands in the slow mode (the top 1% of ALL requests are
/// slow-shard requests); the per-shard average would halve it.
TEST(LatencyMergeTest, HeavySlowShardDominatesTail) {
  const std::vector<std::vector<double>> reservoirs = {
      Repeat(1.0, 500), Repeat(100.0, 500)};
  const LatencyPercentiles pooled = MergeLatencyPercentiles(reservoirs);
  EXPECT_EQ(pooled.p50_ms, 1.0);  // index floor(0.5 * 999) = 499, fast half
  EXPECT_EQ(pooled.p99_ms, 100.0);
  EXPECT_NE(pooled.p99_ms, (1.0 + 100.0) / 2);
}

/// Order independence: the pool is sorted, so shard enumeration order
/// cannot change the answer.
TEST(LatencyMergeTest, ShardOrderIrrelevant) {
  const std::vector<double> fast = Repeat(2.0, 300);
  const std::vector<double> slow = Repeat(40.0, 30);
  const LatencyPercentiles ab = MergeLatencyPercentiles({fast, slow});
  const LatencyPercentiles ba = MergeLatencyPercentiles({slow, fast});
  EXPECT_EQ(ab.p50_ms, ba.p50_ms);
  EXPECT_EQ(ab.p99_ms, ba.p99_ms);
}

/// Feeds each reservoir into its own histogram (one per shard, like the
/// registry's ustdb_service_request_latency_seconds points), merges, and
/// checks the merged percentiles against (a) a pooled-oracle histogram
/// that observed every sample directly — must be identical — and (b) the
/// true sample percentile — conservative by at most one log2 bucket.
void ExpectMergedMatchesPool(
    const std::vector<std::vector<double>>& reservoirs) {
  std::vector<obs::HistogramData> parts;
  obs::Histogram pooled_oracle;
  std::vector<double> all;
  for (const std::vector<double>& reservoir : reservoirs) {
    obs::Histogram shard_histogram;
    for (double v : reservoir) {
      shard_histogram.Observe(v);
      pooled_oracle.Observe(v);
      all.push_back(v);
    }
    parts.push_back(shard_histogram.Snapshot());
  }
  const obs::HistogramData merged = obs::MergeHistograms(parts);
  const obs::HistogramData oracle = pooled_oracle.Snapshot();
  ASSERT_EQ(merged.count, oracle.count);
  ASSERT_EQ(merged.buckets, oracle.buckets);

  std::sort(all.begin(), all.end());
  for (double q : {0.5, 0.9, 0.99}) {
    const double from_merge = obs::PercentileFromBuckets(merged, q);
    EXPECT_EQ(from_merge, obs::PercentileFromBuckets(oracle, q)) << q;
    const double exact = all[static_cast<size_t>(q * (all.size() - 1))];
    EXPECT_GE(from_merge, exact) << q;
    EXPECT_LE(from_merge, exact * 2.0 + 1e-12) << q;
  }
}

TEST(LatencyMergeTest, HistogramMergeMatchesPooledOracleRareSlowShard) {
  ExpectMergedMatchesPool({Repeat(0.001, 2000), Repeat(0.1, 10)});
}

TEST(LatencyMergeTest, HistogramMergeMatchesPooledOracleHeavySlowShard) {
  ExpectMergedMatchesPool({Repeat(0.001, 500), Repeat(0.1, 500)});
}

TEST(LatencyMergeTest, HistogramMergeMatchesPooledOracleSpreadSamples) {
  std::vector<double> a;
  std::vector<double> b;
  std::vector<double> c;
  for (int i = 1; i <= 300; ++i) {
    a.push_back(1e-4 * i);        // 0.1ms .. 30ms
    b.push_back(2e-3 * i);        // 2ms .. 600ms
    if (i % 3 == 0) c.push_back(5e-2 * i);  // sparse slow shard
  }
  ExpectMergedMatchesPool({a, b, c});
}

}  // namespace
}  // namespace service
}  // namespace ustdb
