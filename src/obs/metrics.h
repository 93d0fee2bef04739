// Copyright 2026 the ustdb authors.
//
// obs::MetricsRegistry — process-wide named counters, gauges, and
// log-bucketed histograms with labels, built for serving hot paths:
//
//   * Owners that already keep their counters (QueryService's
//     ServiceStats, QueryExecutor's run totals) register a collector
//     that writes them at Snapshot() time: one store per counter, and no
//     registry update per event.
//   * Sites with no store of their own (SpMV kernel dispatch, the fault
//     injector) resolve a registry-owned handle once
//     (GetCounter/GetGauge/GetHistogram) and update it lock-free.
//   * Counter::Add is a relaxed fetch_add on one of several cache-line-
//     aligned stripes selected per thread, so concurrent writers never
//     contend on one line; Histogram::Observe is a relaxed fetch_add on a
//     log2 bucket (the sum is a CAS loop on an atomic double).
//
// Snapshot consistency model: Snapshot() reads every atomic individually
// with relaxed ordering. Each read value is itself never torn, and every
// counter is monotone, but values read across metrics (or across stripes
// of one counter) need not correspond to a single instant. A collector's
// points are as consistent as its owner's store. This is the standard
// contract of scrape-based metrics and is documented once here instead
// of per call site.
//
// The exporters (WriteJson, WritePrometheusText) render one snapshot;
// benches attach the same CommonMeta() block to their Recorder output so
// bench JSON and service metrics snapshots share one meta schema.

#ifndef USTDB_OBS_METRICS_H_
#define USTDB_OBS_METRICS_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <initializer_list>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace ustdb {
namespace obs {

/// Label set of one metric point ("shard" -> "2", "plan" -> "qb", ...).
/// Ordered so exposition output is deterministic.
using Labels = std::map<std::string, std::string>;

/// What a metric family measures.
enum class MetricKind {
  kCounter,    ///< monotone event count
  kGauge,      ///< instantaneous value, set or adjusted
  kHistogram,  ///< log-bucketed value distribution
};

/// Stripes per counter: enough that a handful of dispatcher/worker
/// threads rarely share one, small enough that a registry full of labeled
/// counters stays compact.
inline constexpr size_t kCounterStripes = 8;

/// \brief Monotone event counter. Add() is wait-free: one relaxed
/// fetch_add on this thread's stripe. Value() sums the stripes (relaxed;
/// see the snapshot consistency model above).
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t n = 1) {
    stripes_[ThreadStripe()].v.fetch_add(n, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Stripe& s : stripes_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Stripe {
    std::atomic<uint64_t> v{0};
  };

  static size_t ThreadStripe() {
    // Hash of the thread id, computed once per thread: stable for the
    // thread's lifetime, spreads the fixed dispatcher/worker threads of a
    // service across stripes.
    thread_local const size_t stripe =
        std::hash<std::thread::id>{}(std::this_thread::get_id()) %
        kCounterStripes;
    return stripe;
  }

  Stripe stripes_[kCounterStripes];
};

/// \brief Instantaneous value (queue depth, active shards). Set/Add are
/// lock-free; Add is a CAS loop (uncontended: one iteration).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(double v) { value_.store(v, std::memory_order_relaxed); }

  void Add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }

  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Upper bounds of the log2 histogram buckets, ascending. Bucket i counts
/// observations v with v <= bounds[i] (and > bounds[i-1]); one overflow
/// bucket beyond the last bound completes the partition. The geometric
/// grid spans 1 microsecond to ~9.5 hours when observations are seconds —
/// every latency this system can produce lands in a finite bucket.
const std::vector<double>& HistogramBucketBounds();

/// Point-in-time contents of one histogram: per-bucket counts (one entry
/// per bound plus the overflow bucket), total count, and value sum.
struct HistogramData {
  std::vector<uint64_t> buckets;
  uint64_t count = 0;
  double sum = 0.0;
};

/// \brief Reads the q-quantile (q in [0, 1]) off bucketed counts: the
/// upper bound of the first bucket whose cumulative count reaches
/// ceil(q * count). Conservative by at most one bucket width (a factor of
/// 2); exact enough for dashboards, and — because it is a pure function
/// of the bucket counts — identical whether the counts were observed by
/// one histogram or merged from several (see MergeHistograms).
double PercentileFromBuckets(const HistogramData& h, double q);

/// \brief Bucket-wise sum of several histograms (same fixed bucket grid).
/// The merge is exact: the result equals the histogram that would have
/// observed the pooled samples, so merged percentiles never average
/// per-source percentiles.
HistogramData MergeHistograms(const std::vector<HistogramData>& parts);

/// \brief Log-bucketed value distribution. Observe() is lock-free: one
/// relaxed fetch_add on the value's bucket and count, one CAS on the sum.
class Histogram {
 public:
  Histogram();
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(double v);

  /// Adds `data`'s observations as if each had been observed here.
  void Merge(const HistogramData& data);

  /// Relaxed read of all buckets; see the snapshot consistency model.
  HistogramData Snapshot() const;

  /// PercentileFromBuckets over a live snapshot.
  double Percentile(double q) const { return PercentileFromBuckets(Snapshot(), q); }

 private:
  std::deque<std::atomic<uint64_t>> buckets_;  // bounds + overflow
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// One exported metric point: its labels and either a scalar value
/// (counter, gauge) or bucketed data (histogram).
struct MetricPoint {
  Labels labels;
  double value = 0.0;
  HistogramData histogram;
};

/// One exported metric family: every point sharing a name.
struct MetricFamily {
  std::string name;
  std::string help;
  std::string unit;
  MetricKind kind = MetricKind::kCounter;
  std::vector<MetricPoint> points;
};

/// One consistent-enough view of a registry (see the header comment for
/// the exact consistency contract) plus the common meta block.
struct MetricsSnapshot {
  std::map<std::string, std::string> meta;
  std::vector<MetricFamily> families;
};

/// \brief Receives a collector's points (see MetricsRegistry::AddCollector).
/// Points with equal name and labels from any source are summed
/// (histograms bucket-wise); a point whose kind differs from its family's
/// first kind is dropped, like a kind-mismatched Get*.
class MetricsWriter {
 public:
  void AddCounter(const std::string& name, const Labels& labels,
                  uint64_t value, const std::string& help = "",
                  const std::string& unit = "");
  /// AddCounter of each (value, count) entry as `labels` + {key: value}.
  void AddCounters(
      const std::string& name, const Labels& labels, const std::string& key,
      std::initializer_list<std::pair<const char*, uint64_t>> points,
      const std::string& help = "", const std::string& unit = "");
  void AddGauge(const std::string& name, const Labels& labels, double value,
                const std::string& help = "", const std::string& unit = "");
  void AddHistogram(const std::string& name, const Labels& labels,
                    const HistogramData& data, const std::string& help = "",
                    const std::string& unit = "");

 private:
  friend class MetricsRegistry;

  struct Family {
    MetricKind kind = MetricKind::kCounter;
    std::string help;
    std::string unit;
    std::map<Labels, MetricPoint> points;
  };

  /// Point `labels` of family `name`, created on first use; null when the
  /// family already holds another kind.
  MetricPoint* Point(MetricKind kind, const std::string& name,
                     const Labels& labels, const std::string& help,
                     const std::string& unit);

  std::map<std::string, Family> families_;
};

/// Writes an owner's current metric points; see AddCollector.
using Collector = std::function<void(MetricsWriter*)>;

/// \brief Process-wide metric registry. Get* resolves (or registers) a
/// registry-owned metric and returns a handle that stays valid for the
/// registry's lifetime. Asking for an existing name with a different kind
/// returns a detached sink metric (updates are absorbed, nothing is
/// exported) so instrumentation sites never need a null check.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The default registry every subsystem reports to unless an ObsOptions
  /// points elsewhere (tests isolate by constructing their own).
  static MetricsRegistry* Global();

  Counter* GetCounter(const std::string& name, const Labels& labels = {},
                      const std::string& help = "",
                      const std::string& unit = "");
  Gauge* GetGauge(const std::string& name, const Labels& labels = {},
                  const std::string& help = "", const std::string& unit = "");
  Histogram* GetHistogram(const std::string& name, const Labels& labels = {},
                          const std::string& help = "",
                          const std::string& unit = "");

  /// \brief Makes every Snapshot() read `owner`'s points through
  /// `collect`, which runs under the registry's lock and may take the
  /// owner's locks: no code may call a registry method holding one.
  /// \param owner key for RemoveCollector; must stay valid until then.
  /// \param collect writes the owner's current points.
  void AddCollector(const void* owner, Collector collect);

  /// \brief Reads `owner`'s collector one last time and unregisters it:
  /// its counters and histograms fold into registry-owned series, so
  /// exported totals survive the owner; its gauges are dropped. No-op
  /// for an unknown owner.
  void RemoveCollector(const void* owner);

  /// Reads the registry-owned series, then the collectors in the order
  /// added; families and points come out in deterministic (name, label)
  /// order. meta is filled with CommonMeta().
  MetricsSnapshot Snapshot() const;

 private:
  struct Family {
    MetricKind kind = MetricKind::kCounter;
    std::string help;
    std::string unit;
    std::map<Labels, size_t> points;  // label set -> index into kind deque
  };

  struct CollectorEntry {
    const void* owner;
    Collector collect;
  };

  template <typename T>
  T* ResolveLocked(std::deque<T>* store, MetricKind kind,
                   const std::string& name, const Labels& labels,
                   const std::string& help, const std::string& unit);

  mutable std::mutex mu_;
  std::map<std::string, Family> families_;
  std::deque<Counter> counters_;      // deque: stable addresses
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
  std::vector<CollectorEntry> collectors_;
};

/// \brief The shared run/process annotations every exporter and bench
/// attaches: host, nproc, active kernel ISA, USTDB_SHARDS, git sha (baked
/// at configure time, "unknown" outside a git checkout), and a UTC
/// timestamp. One schema for bench JSON and metrics snapshots.
std::map<std::string, std::string> CommonMeta();

/// Renders `snapshot` as a JSON document (families with labeled points;
/// histograms as [bound, count] pairs plus count/sum). Schema documented
/// in docs/OBSERVABILITY.md.
std::string WriteJson(const MetricsSnapshot& snapshot);

/// Renders `snapshot` in Prometheus text exposition format: # HELP/# TYPE
/// headers, cumulative le-labeled histogram buckets with +Inf, _sum and
/// _count series. meta is emitted as a comment header.
std::string WritePrometheusText(const MetricsSnapshot& snapshot);

/// \brief Background thread invoking a callback with a fresh snapshot at
/// a fixed period — the "periodic stats logger" hook: pass a callback
/// that logs, pushes, or files the snapshot. Stops on destruction.
class PeriodicLogger {
 public:
  /// \param registry registry to snapshot; must outlive the logger.
  /// \param period time between callback invocations.
  /// \param callback invoked on the logger thread with each snapshot.
  PeriodicLogger(const MetricsRegistry* registry,
                 std::chrono::milliseconds period,
                 std::function<void(const MetricsSnapshot&)> callback);
  PeriodicLogger(const PeriodicLogger&) = delete;
  PeriodicLogger& operator=(const PeriodicLogger&) = delete;
  ~PeriodicLogger();

  /// Stops the logger thread (idempotent). No callback runs after Stop()
  /// returns.
  void Stop();

 private:
  const MetricsRegistry* registry_;
  std::chrono::milliseconds period_;
  std::function<void(const MetricsSnapshot&)> callback_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

/// \brief Observability wiring carried by ServiceOptions/ExecutorOptions.
/// With enabled == false no collector is registered, no extra clock is
/// read, and no trace is sampled — the overhead contract's "off" side.
struct ObsOptions {
  /// Registry that collects the holder's metrics; nullptr means
  /// MetricsRegistry::Global(). Must outlive the holder.
  MetricsRegistry* registry = nullptr;
  /// Master switch for aggregate metrics AND trace sampling.
  bool enabled = true;
  /// Extra labels merged into every metric the holder exports (the
  /// service stamps {"shard": "<s>"} on each shard executor's options).
  Labels labels;
  /// Sample a full QueryTrace on every Nth submission (service only);
  /// 0 disables sampling. Caller-attached traces are always honored.
  uint32_t trace_sample_every = 64;
  /// Capacity of the slow-query ring (service only); 0 disables it.
  size_t slow_query_ring = 16;

  /// The registry in effect (resolves the nullptr default).
  MetricsRegistry* ResolvedRegistry() const {
    return registry != nullptr ? registry : MetricsRegistry::Global();
  }
};

}  // namespace obs
}  // namespace ustdb

#endif  // USTDB_OBS_METRICS_H_
