// obs::MetricsRegistry unit coverage: counter/gauge/histogram semantics
// under concurrent writers, handle identity (same name+labels -> same
// handle; kind mismatch -> detached sink, never a crash or null), the
// percentile-from-buckets contract (conservative by at most one log2
// bucket, a pure function of the counts), the exactness of
// MergeHistograms, collectors (points summed with equal-labeled ones,
// totals folded on removal, first kind kept, snapshots racing
// registration), the CommonMeta schema, both exporters, and the
// PeriodicLogger lifecycle.

#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace ustdb {
namespace obs {
namespace {

TEST(CounterTest, AddsAreExactAcrossThreads) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (uint64_t i = 0; i < kPerThread; ++i) counter.Add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  // Striping spreads writers across cache lines but must never lose an
  // increment: the striped sum is exact.
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
}

TEST(GaugeTest, SetAndAddCompose) {
  Gauge gauge;
  EXPECT_EQ(gauge.Value(), 0.0);
  gauge.Set(5.0);
  gauge.Add(-2.0);
  gauge.Add(0.5);
  EXPECT_DOUBLE_EQ(gauge.Value(), 3.5);
}

TEST(GaugeTest, ConcurrentAddsAreExact) {
  Gauge gauge;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&gauge] {
      for (int i = 0; i < kPerThread; ++i) gauge.Add(1.0);
    });
  }
  for (std::thread& t : threads) t.join();
  // Every delta is an integer small enough to be exact in a double, so
  // the CAS loop must account for all of them.
  EXPECT_DOUBLE_EQ(gauge.Value(), kThreads * kPerThread);
}

TEST(HistogramTest, CountsSumAndBucketsTrackObservations) {
  Histogram h;
  h.Observe(0.25);
  h.Observe(0.5);
  h.Observe(1.0);
  const HistogramData data = h.Snapshot();
  EXPECT_EQ(data.count, 3u);
  EXPECT_DOUBLE_EQ(data.sum, 1.75);
  EXPECT_EQ(data.buckets.size(), HistogramBucketBounds().size() + 1);
  uint64_t bucket_total = 0;
  for (uint64_t b : data.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, data.count);
}

TEST(HistogramTest, PercentileConservativeByOneBucket) {
  Histogram h;
  std::vector<double> samples;
  for (int i = 1; i <= 1000; ++i) {
    const double v = 1e-4 * i;  // 0.1ms .. 100ms, spread over many buckets
    samples.push_back(v);
    h.Observe(v);
  }
  std::sort(samples.begin(), samples.end());
  for (double q : {0.5, 0.9, 0.99}) {
    const double exact =
        samples[static_cast<size_t>(q * (samples.size() - 1))];
    const double approx = h.Percentile(q);
    // The log2 grid reports the upper bound of the quantile's bucket:
    // never below the true sample quantile, at most one bucket (2x) above.
    EXPECT_GE(approx, exact);
    EXPECT_LE(approx, exact * 2.0 + 1e-12) << "q=" << q;
  }
}

TEST(HistogramTest, PercentileEdgeCases) {
  HistogramData empty;
  empty.buckets.assign(HistogramBucketBounds().size() + 1, 0);
  EXPECT_EQ(PercentileFromBuckets(empty, 0.99), 0.0);

  Histogram h;
  h.Observe(1e9);  // beyond the last bound: overflow bucket
  // The overflow bucket has no finite upper bound; the quantile reports
  // the last finite bound (the floor of what the value could be).
  EXPECT_EQ(h.Percentile(0.99), HistogramBucketBounds().back());
}

TEST(HistogramTest, MergeEqualsPooledObservation) {
  Histogram a;
  Histogram b;
  Histogram pooled;
  for (int i = 1; i <= 400; ++i) {
    // Dyadic values: every observation and every partial sum is exact in
    // a double, so merged.sum can be compared for equality.
    const double fast = i / 1024.0;
    const double slow = i / 16.0;
    a.Observe(fast);
    b.Observe(slow);
    pooled.Observe(fast);
    pooled.Observe(slow);
  }
  const HistogramData merged = MergeHistograms({a.Snapshot(), b.Snapshot()});
  const HistogramData direct = pooled.Snapshot();
  ASSERT_EQ(merged.buckets.size(), direct.buckets.size());
  for (size_t i = 0; i < direct.buckets.size(); ++i) {
    EXPECT_EQ(merged.buckets[i], direct.buckets[i]) << "bucket " << i;
  }
  EXPECT_EQ(merged.count, direct.count);
  EXPECT_DOUBLE_EQ(merged.sum, direct.sum);
  // Same counts => same percentiles: the merge is exact, not approximate.
  for (double q : {0.5, 0.9, 0.99}) {
    EXPECT_EQ(PercentileFromBuckets(merged, q),
              PercentileFromBuckets(direct, q));
  }
}

TEST(RegistryTest, SameNameAndLabelsResolveToOneHandle) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("requests", {{"shard", "0"}});
  Counter* b = registry.GetCounter("requests", {{"shard", "0"}});
  Counter* other = registry.GetCounter("requests", {{"shard", "1"}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, other);
  a->Add(2);
  other->Add(5);
  EXPECT_EQ(b->Value(), 2u);
}

TEST(RegistryTest, KindMismatchReturnsDetachedSink) {
  MetricsRegistry registry;
  registry.GetCounter("latency")->Add(1);
  // Same name, different kind: instrumentation sites must get a usable
  // (absorbing) handle, and the export must keep the original family.
  Gauge* sink = registry.GetGauge("latency");
  ASSERT_NE(sink, nullptr);
  sink->Set(42.0);  // absorbed, not exported

  const MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.families.size(), 1u);
  EXPECT_EQ(snap.families[0].name, "latency");
  EXPECT_EQ(snap.families[0].kind, MetricKind::kCounter);
}

TEST(RegistryTest, SnapshotIsDeterministicallyOrdered) {
  MetricsRegistry registry;
  registry.GetCounter("zz", {{"shard", "1"}})->Add(1);
  registry.GetCounter("zz", {{"shard", "0"}})->Add(1);
  registry.GetCounter("aa")->Add(1);
  registry.GetHistogram("mm")->Observe(0.5);

  const MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.families.size(), 3u);
  EXPECT_EQ(snap.families[0].name, "aa");
  EXPECT_EQ(snap.families[1].name, "mm");
  EXPECT_EQ(snap.families[2].name, "zz");
  ASSERT_EQ(snap.families[2].points.size(), 2u);
  EXPECT_EQ(snap.families[2].points[0].labels.at("shard"), "0");
  EXPECT_EQ(snap.families[2].points[1].labels.at("shard"), "1");
}

TEST(RegistryTest, ConcurrentResolutionAndUpdates) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      // Every thread resolves the same family (lock path) and its own
      // labeled point, then hammers both.
      Counter* shared = registry.GetCounter("shared");
      Counter* own =
          registry.GetCounter("shared", {{"t", std::to_string(t)}});
      for (int i = 0; i < 2'000; ++i) {
        shared->Add(1);
        own->Add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(registry.GetCounter("shared")->Value(), kThreads * 2'000u);
  const MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.families.size(), 1u);
  EXPECT_EQ(snap.families[0].points.size(), 1u + kThreads);
}

const MetricFamily* FindFamily(const MetricsSnapshot& snapshot,
                               const std::string& name) {
  for (const MetricFamily& family : snapshot.families) {
    if (family.name == name) return &family;
  }
  return nullptr;
}

const MetricPoint* FindPoint(const MetricsSnapshot& snapshot,
                             const std::string& name, const Labels& labels) {
  const MetricFamily* family = FindFamily(snapshot, name);
  if (family == nullptr) return nullptr;
  for (const MetricPoint& point : family->points) {
    if (point.labels == labels) return &point;
  }
  return nullptr;
}

HistogramData Observed(std::initializer_list<double> values) {
  Histogram h;
  for (double v : values) h.Observe(v);
  return h.Snapshot();
}

TEST(CollectorTest, PointsSumWithEqualLabeledPoints) {
  MetricsRegistry registry;
  registry.GetCounter("requests", {{"shard", "0"}}, "from the registry")
      ->Add(2);
  registry.GetHistogram("latency")->Observe(0.5);
  int owner_a = 0;
  int owner_b = 0;
  registry.AddCollector(&owner_a, [](MetricsWriter* out) {
    out->AddCounter("requests", {{"shard", "0"}}, 3);
    out->AddCounter("requests", {{"shard", "1"}}, 5);
    out->AddHistogram("latency", {}, Observed({0.25, 4.0}));
    out->AddGauge("depth", {}, 1.5);
  });
  registry.AddCollector(&owner_b, [](MetricsWriter* out) {
    out->AddCounter("requests", {{"shard", "1"}}, 1);
    out->AddGauge("depth", {}, 2.0);
  });

  const MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.families.size(), 3u);  // depth, latency, requests
  const MetricFamily* requests = FindFamily(snap, "requests");
  ASSERT_NE(requests, nullptr);
  EXPECT_EQ(requests->help, "from the registry");
  ASSERT_EQ(requests->points.size(), 2u);
  EXPECT_EQ(requests->points[0].value, 5.0);  // shard 0: 2 + 3
  EXPECT_EQ(requests->points[1].value, 6.0);  // shard 1: 5 + 1
  const MetricPoint* latency = FindPoint(snap, "latency", {});
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->histogram.count, 3u);
  EXPECT_DOUBLE_EQ(latency->histogram.sum, 4.75);
  const MetricPoint* depth = FindPoint(snap, "depth", {});
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->value, 3.5);
}

TEST(CollectorTest, RemoveKeepsCounterAndHistogramTotalsAndDropsGauges) {
  MetricsRegistry registry;
  int owner = 0;
  int calls = 0;
  registry.AddCollector(&owner, [&calls](MetricsWriter* out) {
    ++calls;
    out->AddCounter("events", {{"kind", "hit"}}, 7, "events seen", "events");
    out->AddHistogram("wait", {}, Observed({0.5, 0.5}), "", "seconds");
    out->AddGauge("depth", {}, 4.0);
  });
  EXPECT_NE(FindFamily(registry.Snapshot(), "depth"), nullptr);

  registry.RemoveCollector(&owner);
  const int calls_at_removal = calls;
  registry.RemoveCollector(&owner);  // unknown by now: a no-op
  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(calls, calls_at_removal);  // never called again
  const MetricPoint* events = FindPoint(snap, "events", {{"kind", "hit"}});
  ASSERT_NE(events, nullptr);
  EXPECT_EQ(events->value, 7.0);
  EXPECT_EQ(FindFamily(snap, "events")->help, "events seen");
  EXPECT_EQ(FindFamily(snap, "events")->unit, "events");
  const MetricPoint* wait = FindPoint(snap, "wait", {});
  ASSERT_NE(wait, nullptr);
  EXPECT_EQ(wait->histogram.count, 2u);
  EXPECT_DOUBLE_EQ(wait->histogram.sum, 1.0);
  EXPECT_EQ(FindFamily(snap, "depth"), nullptr);

  // A later owner's equal-labeled points add to the folded totals.
  int successor = 0;
  registry.AddCollector(&successor, [](MetricsWriter* out) {
    out->AddCounter("events", {{"kind", "hit"}}, 1);
  });
  EXPECT_EQ(FindPoint(registry.Snapshot(), "events", {{"kind", "hit"}})->value,
            8.0);
  registry.RemoveCollector(&successor);
  EXPECT_EQ(FindPoint(registry.Snapshot(), "events", {{"kind", "hit"}})->value,
            8.0);
}

TEST(CollectorTest, KindConflictKeepsTheFirstKind) {
  MetricsRegistry registry;
  registry.GetCounter("owned")->Add(1);
  int first = 0;
  int second = 0;
  registry.AddCollector(&first, [](MetricsWriter* out) {
    out->AddGauge("owned", {}, 42.0);  // registry-owned counter wins
    out->AddCounter("shared", {}, 2);
  });
  registry.AddCollector(&second, [](MetricsWriter* out) {
    out->AddHistogram("shared", {}, Observed({1.0}));  // first collector wins
  });

  const MetricsSnapshot snap = registry.Snapshot();
  const MetricFamily* owned = FindFamily(snap, "owned");
  ASSERT_NE(owned, nullptr);
  EXPECT_EQ(owned->kind, MetricKind::kCounter);
  ASSERT_EQ(owned->points.size(), 1u);
  EXPECT_EQ(owned->points[0].value, 1.0);
  const MetricFamily* shared = FindFamily(snap, "shared");
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(shared->kind, MetricKind::kCounter);
  EXPECT_EQ(shared->points[0].value, 2.0);

  // Folding on removal follows the same rule: the conflicting point is
  // absorbed, never exported under the wrong kind.
  registry.RemoveCollector(&first);
  registry.RemoveCollector(&second);
  const MetricsSnapshot after = registry.Snapshot();
  EXPECT_EQ(FindFamily(after, "owned")->kind, MetricKind::kCounter);
  EXPECT_EQ(FindPoint(after, "owned", {})->value, 1.0);
  EXPECT_EQ(FindFamily(after, "shared")->kind, MetricKind::kCounter);
  EXPECT_EQ(FindPoint(after, "shared", {})->value, 2.0);
}

TEST(CollectorTest, SnapshotRacesAddAndRemove) {
  // Owners keep a counter under their own mutex, the way the service
  // keeps ServiceStats; collectors take it under the registry's lock.
  struct Owner {
    std::mutex mu;
    uint64_t events = 0;
  };
  MetricsRegistry registry;
  constexpr int kWriters = 4;
  constexpr int kOwnersPerWriter = 200;
  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&registry, &done] {
      while (!done.load(std::memory_order_relaxed)) {
        const MetricsSnapshot snap = registry.Snapshot();
        for (const MetricFamily& family : snap.families) {
          EXPECT_EQ(family.kind, MetricKind::kCounter);
        }
      }
    });
  }
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&registry, w] {
      const Labels labels{{"writer", std::to_string(w)}};
      for (int i = 0; i < kOwnersPerWriter; ++i) {
        Owner owner;
        registry.AddCollector(&owner, [&owner, labels](MetricsWriter* out) {
          std::lock_guard<std::mutex> lock(owner.mu);
          out->AddCounter("events", labels, owner.events);
        });
        for (int e = 0; e < 3; ++e) {
          std::lock_guard<std::mutex> lock(owner.mu);
          ++owner.events;
        }
        registry.RemoveCollector(&owner);
      }
    });
  }
  for (std::thread& t : writers) t.join();
  done.store(true);
  for (std::thread& t : readers) t.join();

  // Every owner's final count survived its removal.
  const MetricsSnapshot snap = registry.Snapshot();
  const MetricFamily* events = FindFamily(snap, "events");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->points.size(), static_cast<size_t>(kWriters));
  for (const MetricPoint& point : events->points) {
    EXPECT_EQ(point.value, 3.0 * kOwnersPerWriter);
  }
}

TEST(CommonMetaTest, CarriesTheSharedSchemaKeys) {
  const auto meta = CommonMeta();
  for (const char* key :
       {"host", "nproc", "isa", "ustdb_shards", "git_sha", "timestamp_utc"}) {
    EXPECT_TRUE(meta.count(key)) << "missing meta key: " << key;
  }
  EXPECT_FALSE(meta.at("git_sha").empty());
  // ISO-8601 UTC: "2026-08-08T11:22:33Z".
  const std::string& ts = meta.at("timestamp_utc");
  ASSERT_EQ(ts.size(), 20u);
  EXPECT_EQ(ts[4], '-');
  EXPECT_EQ(ts[10], 'T');
  EXPECT_EQ(ts.back(), 'Z');
}

TEST(ExportersTest, PrometheusTextCarriesFamiliesBucketsAndMeta) {
  MetricsRegistry registry;
  registry
      .GetCounter("ustdb_test_requests_total", {{"shard", "0"}},
                  "requests seen", "requests")
      ->Add(3);
  registry.GetHistogram("ustdb_test_latency_seconds", {}, "latency", "s")
      ->Observe(0.25);
  registry.GetGauge("ustdb_test_depth")->Set(7.0);

  const std::string text = WritePrometheusText(registry.Snapshot());
  EXPECT_NE(text.find("# HELP ustdb_test_requests_total requests seen"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE ustdb_test_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("ustdb_test_requests_total{shard=\"0\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE ustdb_test_latency_seconds histogram"),
            std::string::npos);
  // Cumulative buckets with the mandatory +Inf terminator, plus _sum and
  // _count series.
  EXPECT_NE(text.find("ustdb_test_latency_seconds_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("ustdb_test_latency_seconds_sum"), std::string::npos);
  EXPECT_NE(text.find("ustdb_test_latency_seconds_count 1"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE ustdb_test_depth gauge"), std::string::npos);
  // Meta rides as comments so the exposition stays parseable.
  EXPECT_NE(text.find("# meta git_sha"), std::string::npos);
}

TEST(ExportersTest, JsonCarriesFamiliesAndEscapes) {
  MetricsRegistry registry;
  registry.GetCounter("c", {{"k", "with\"quote"}})->Add(1);
  registry.GetHistogram("h")->Observe(0.5);

  const std::string json = WriteJson(registry.Snapshot());
  EXPECT_NE(json.find("\"meta\""), std::string::npos);
  EXPECT_NE(json.find("\"families\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"c\""), std::string::npos);
  EXPECT_NE(json.find("with\\\"quote"), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
}

TEST(PeriodicLoggerTest, InvokesCallbackAndStopsCleanly) {
  MetricsRegistry registry;
  registry.GetCounter("ticks")->Add(1);
  std::atomic<int> calls{0};
  {
    PeriodicLogger logger(&registry, std::chrono::milliseconds(5),
                          [&calls](const MetricsSnapshot& snap) {
                            EXPECT_FALSE(snap.families.empty());
                            calls.fetch_add(1);
                          });
    while (calls.load() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    logger.Stop();
    const int after_stop = calls.load();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    // No callback runs after Stop() returns.
    EXPECT_EQ(calls.load(), after_stop);
  }  // destructor after Stop(): idempotent
  EXPECT_GE(calls.load(), 1);
}

TEST(ObsOptionsTest, ResolvedRegistryDefaultsToGlobal) {
  ObsOptions options;
  EXPECT_EQ(options.ResolvedRegistry(), MetricsRegistry::Global());
  MetricsRegistry own;
  options.registry = &own;
  EXPECT_EQ(options.ResolvedRegistry(), &own);
}

}  // namespace
}  // namespace obs
}  // namespace ustdb
