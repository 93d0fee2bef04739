#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <utility>

#include "kernels/isa.h"

#ifndef _WIN32
#include <unistd.h>
#endif

namespace ustdb {
namespace obs {

namespace internal {
/// The build's git revision, generated by cmake/git_sha.cmake.
extern const char kGitSha[];
}  // namespace internal

namespace {

/// First finite bucket bound (1 microsecond when observing seconds) and
/// the number of doubling steps. 36 bounds reach ~9.5 hours.
constexpr double kFirstBound = 1e-6;
constexpr size_t kNumBounds = 36;

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string FormatBound(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

/// Minimal JSON string escaper (quotes, backslashes, control bytes); the
/// values this system exports are names and numbers, nothing exotic.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Prometheus label-value escaper (backslash, quote, newline).
std::string PromEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '\\' || c == '"') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

std::string RenderLabels(const Labels& labels, const std::string& extra = {}) {
  if (labels.empty() && extra.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += k + "=\"" + PromEscape(v) + "\"";
  }
  if (!extra.empty()) {
    if (!first) out += ",";
    out += extra;
  }
  out += "}";
  return out;
}

const char* KindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "counter";
}

/// Bucket-wise `*out += part`; an empty `out` is sized to the grid first.
void AccumulateHistogram(const HistogramData& part, HistogramData* out) {
  out->buckets.resize(HistogramBucketBounds().size() + 1, 0);
  for (size_t i = 0; i < part.buckets.size() && i < out->buckets.size();
       ++i) {
    out->buckets[i] += part.buckets[i];
  }
  out->count += part.count;
  out->sum += part.sum;
}

}  // namespace

const std::vector<double>& HistogramBucketBounds() {
  static const std::vector<double> bounds = [] {
    std::vector<double> b;
    b.reserve(kNumBounds);
    double bound = kFirstBound;
    for (size_t i = 0; i < kNumBounds; ++i) {
      b.push_back(bound);
      bound *= 2.0;
    }
    return b;
  }();
  return bounds;
}

double PercentileFromBuckets(const HistogramData& h, double q) {
  if (h.count == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const uint64_t target =
      std::max<uint64_t>(1, static_cast<uint64_t>(std::ceil(
                                q * static_cast<double>(h.count))));
  const std::vector<double>& bounds = HistogramBucketBounds();
  uint64_t cum = 0;
  for (size_t i = 0; i < h.buckets.size(); ++i) {
    cum += h.buckets[i];
    if (cum >= target) {
      return i < bounds.size() ? bounds[i] : bounds.back();
    }
  }
  return bounds.back();
}

HistogramData MergeHistograms(const std::vector<HistogramData>& parts) {
  HistogramData out;
  out.buckets.assign(HistogramBucketBounds().size() + 1, 0);
  for (const HistogramData& part : parts) AccumulateHistogram(part, &out);
  return out;
}

Histogram::Histogram() {
  const size_t n = HistogramBucketBounds().size() + 1;  // + overflow
  for (size_t i = 0; i < n; ++i) buckets_.emplace_back(0);
}

void Histogram::Observe(double v) {
  const std::vector<double>& bounds = HistogramBucketBounds();
  // Branch-free-ish bucket search is overkill: 36 bounds, the loop exits
  // after a handful of iterations for realistic latencies. Values below
  // the first bound land in bucket 0, values beyond the last in overflow.
  size_t i = 0;
  while (i < bounds.size() && v > bounds[i]) ++i;
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v,
                                     std::memory_order_relaxed)) {
  }
}

void Histogram::Merge(const HistogramData& data) {
  for (size_t i = 0; i < data.buckets.size() && i < buckets_.size(); ++i) {
    buckets_[i].fetch_add(data.buckets[i], std::memory_order_relaxed);
  }
  count_.fetch_add(data.count, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + data.sum,
                                     std::memory_order_relaxed)) {
  }
}

HistogramData Histogram::Snapshot() const {
  HistogramData out;
  out.buckets.reserve(buckets_.size());
  for (const std::atomic<uint64_t>& b : buckets_) {
    out.buckets.push_back(b.load(std::memory_order_relaxed));
  }
  out.count = count_.load(std::memory_order_relaxed);
  out.sum = sum_.load(std::memory_order_relaxed);
  return out;
}

MetricsRegistry* MetricsRegistry::Global() {
  static MetricsRegistry* instance = new MetricsRegistry();  // never freed
  return instance;
}

MetricPoint* MetricsWriter::Point(MetricKind kind, const std::string& name,
                                  const Labels& labels,
                                  const std::string& help,
                                  const std::string& unit) {
  auto [fit, inserted] = families_.try_emplace(name);
  Family& family = fit->second;
  if (inserted) {
    family.kind = kind;
    family.help = help;
    family.unit = unit;
  } else if (family.kind != kind) {
    return nullptr;  // the family keeps its first kind
  }
  auto [pit, fresh] = family.points.try_emplace(labels);
  if (fresh) pit->second.labels = labels;
  return &pit->second;
}

void MetricsWriter::AddCounter(const std::string& name, const Labels& labels,
                               uint64_t value, const std::string& help,
                               const std::string& unit) {
  if (MetricPoint* p = Point(MetricKind::kCounter, name, labels, help, unit)) {
    p->value += static_cast<double>(value);
  }
}

void MetricsWriter::AddCounters(
    const std::string& name, const Labels& labels, const std::string& key,
    std::initializer_list<std::pair<const char*, uint64_t>> points,
    const std::string& help, const std::string& unit) {
  for (const auto& [value, count] : points) {
    Labels point_labels = labels;
    point_labels[key] = value;
    AddCounter(name, point_labels, count, help, unit);
  }
}

void MetricsWriter::AddGauge(const std::string& name, const Labels& labels,
                             double value, const std::string& help,
                             const std::string& unit) {
  if (MetricPoint* p = Point(MetricKind::kGauge, name, labels, help, unit)) {
    p->value += value;
  }
}

void MetricsWriter::AddHistogram(const std::string& name,
                                 const Labels& labels,
                                 const HistogramData& data,
                                 const std::string& help,
                                 const std::string& unit) {
  if (MetricPoint* p =
          Point(MetricKind::kHistogram, name, labels, help, unit)) {
    AccumulateHistogram(data, &p->histogram);
  }
}

template <typename T>
T* MetricsRegistry::ResolveLocked(std::deque<T>* store, MetricKind kind,
                                  const std::string& name,
                                  const Labels& labels,
                                  const std::string& help,
                                  const std::string& unit) {
  auto [fit, inserted] = families_.try_emplace(name);
  Family& family = fit->second;
  if (inserted) {
    family.kind = kind;
    family.help = help;
    family.unit = unit;
  } else if (family.kind != kind) {
    // Kind mismatch: hand back a detached sink so the call site works
    // without a null check; nothing it records is exported.
    static T sink;
    return &sink;
  }
  auto [pit, fresh] = family.points.try_emplace(labels, store->size());
  if (fresh) store->emplace_back();
  return &(*store)[pit->second];
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const Labels& labels,
                                     const std::string& help,
                                     const std::string& unit) {
  std::lock_guard<std::mutex> lock(mu_);
  return ResolveLocked(&counters_, MetricKind::kCounter, name, labels, help,
                       unit);
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const Labels& labels,
                                 const std::string& help,
                                 const std::string& unit) {
  std::lock_guard<std::mutex> lock(mu_);
  return ResolveLocked(&gauges_, MetricKind::kGauge, name, labels, help,
                       unit);
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const Labels& labels,
                                         const std::string& help,
                                         const std::string& unit) {
  std::lock_guard<std::mutex> lock(mu_);
  return ResolveLocked(&histograms_, MetricKind::kHistogram, name, labels,
                       help, unit);
}

void MetricsRegistry::AddCollector(const void* owner, Collector collect) {
  std::lock_guard<std::mutex> lock(mu_);
  collectors_.push_back({owner, std::move(collect)});
}

void MetricsRegistry::RemoveCollector(const void* owner) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = std::find_if(
      collectors_.begin(), collectors_.end(),
      [owner](const CollectorEntry& entry) { return entry.owner == owner; });
  if (it == collectors_.end()) return;
  MetricsWriter last;
  it->collect(&last);
  collectors_.erase(it);
  for (const auto& [name, family] : last.families_) {
    for (const auto& [labels, point] : family.points) {
      if (family.kind == MetricKind::kCounter) {
        ResolveLocked(&counters_, family.kind, name, labels, family.help,
                      family.unit)
            ->Add(static_cast<uint64_t>(point.value));
      } else if (family.kind == MetricKind::kHistogram) {
        ResolveLocked(&histograms_, family.kind, name, labels, family.help,
                      family.unit)
            ->Merge(point.histogram);
      }
    }
  }
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot out;
  out.meta = CommonMeta();
  MetricsWriter all;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Registry-owned series first: on a kind conflict they keep theirs.
    for (const auto& [name, family] : families_) {
      for (const auto& [labels, index] : family.points) {
        switch (family.kind) {
          case MetricKind::kCounter:
            all.AddCounter(name, labels, counters_[index].Value(),
                           family.help, family.unit);
            break;
          case MetricKind::kGauge:
            all.AddGauge(name, labels, gauges_[index].Value(), family.help,
                         family.unit);
            break;
          case MetricKind::kHistogram:
            all.AddHistogram(name, labels, histograms_[index].Snapshot(),
                             family.help, family.unit);
            break;
        }
      }
    }
    for (const CollectorEntry& entry : collectors_) entry.collect(&all);
  }
  for (auto& [name, family] : all.families_) {
    out.families.push_back({name, std::move(family.help),
                            std::move(family.unit), family.kind, {}});
    for (auto& [labels, point] : family.points) {
      out.families.back().points.push_back(std::move(point));
    }
  }
  return out;
}

std::map<std::string, std::string> CommonMeta() {
  std::map<std::string, std::string> meta;
  char host[256] = "unknown";
#ifndef _WIN32
  if (gethostname(host, sizeof(host) - 1) != 0) {
    std::snprintf(host, sizeof(host), "unknown");
  }
#endif
  meta["host"] = host;
  meta["nproc"] = std::to_string(std::thread::hardware_concurrency());
  meta["isa"] = kernels::IsaName(kernels::ActiveIsa());
  const char* shards = std::getenv("USTDB_SHARDS");
  meta["ustdb_shards"] = shards != nullptr ? shards : "";
  meta["git_sha"] = internal::kGitSha;
  std::time_t now = std::time(nullptr);
  std::tm utc{};
#ifndef _WIN32
  gmtime_r(&now, &utc);
#else
  gmtime_s(&utc, &now);
#endif
  char stamp[32];
  std::strftime(stamp, sizeof(stamp), "%Y-%m-%dT%H:%M:%SZ", &utc);
  meta["timestamp_utc"] = stamp;
  return meta;
}

std::string WriteJson(const MetricsSnapshot& snapshot) {
  std::string out = "{\n  \"name\": \"ustdb_metrics\",\n  \"meta\": {";
  bool first = true;
  for (const auto& [k, v] : snapshot.meta) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + JsonEscape(k) + "\": \"" + JsonEscape(v) + "\"";
  }
  out += "\n  },\n  \"families\": [";
  const std::vector<double>& bounds = HistogramBucketBounds();
  bool first_family = true;
  for (const MetricFamily& f : snapshot.families) {
    out += first_family ? "\n" : ",\n";
    first_family = false;
    out += "    {\"name\": \"" + JsonEscape(f.name) + "\", \"kind\": \"";
    out += KindName(f.kind);
    out += "\", \"unit\": \"" + JsonEscape(f.unit) + "\", \"help\": \"" +
           JsonEscape(f.help) + "\",\n     \"points\": [";
    bool first_point = true;
    for (const MetricPoint& p : f.points) {
      out += first_point ? "\n" : ",\n";
      first_point = false;
      out += "      {\"labels\": {";
      bool first_label = true;
      for (const auto& [k, v] : p.labels) {
        if (!first_label) out += ", ";
        first_label = false;
        out += '"';
        out += JsonEscape(k);
        out += "\": \"";
        out += JsonEscape(v);
        out += '"';
      }
      out += "}";
      if (f.kind == MetricKind::kHistogram) {
        out += ", \"count\": " + std::to_string(p.histogram.count);
        out += ", \"sum\": " + FormatDouble(p.histogram.sum);
        out += ", \"buckets\": [";
        bool first_bucket = true;
        for (size_t i = 0; i < p.histogram.buckets.size(); ++i) {
          if (p.histogram.buckets[i] == 0) continue;  // sparse output
          if (!first_bucket) out += ", ";
          first_bucket = false;
          const std::string le =
              i < bounds.size() ? FormatBound(bounds[i]) : "+Inf";
          out += "[\"" + le + "\", " +
                 std::to_string(p.histogram.buckets[i]) + "]";
        }
        out += "]";
      } else {
        out += ", \"value\": " + FormatDouble(p.value);
      }
      out += "}";
    }
    out += "\n     ]}";
  }
  out += "\n  ]\n}\n";
  return out;
}

std::string WritePrometheusText(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const auto& [k, v] : snapshot.meta) {
    out += "# meta " + k + "=" + v + "\n";
  }
  const std::vector<double>& bounds = HistogramBucketBounds();
  for (const MetricFamily& f : snapshot.families) {
    if (!f.help.empty()) {
      out += "# HELP " + f.name + " " + f.help + "\n";
    }
    out += "# TYPE " + f.name + " ";
    out += KindName(f.kind);
    out += "\n";
    for (const MetricPoint& p : f.points) {
      if (f.kind == MetricKind::kHistogram) {
        uint64_t cum = 0;
        for (size_t i = 0; i < p.histogram.buckets.size(); ++i) {
          cum += p.histogram.buckets[i];
          const std::string le =
              i < bounds.size() ? FormatBound(bounds[i]) : "+Inf";
          out += f.name + "_bucket" +
                 RenderLabels(p.labels, "le=\"" + le + "\"") + " " +
                 std::to_string(cum) + "\n";
        }
        out += f.name + "_sum" + RenderLabels(p.labels) + " " +
               FormatDouble(p.histogram.sum) + "\n";
        out += f.name + "_count" + RenderLabels(p.labels) + " " +
               std::to_string(p.histogram.count) + "\n";
      } else {
        out += f.name + RenderLabels(p.labels) + " " + FormatDouble(p.value) +
               "\n";
      }
    }
  }
  return out;
}

PeriodicLogger::PeriodicLogger(
    const MetricsRegistry* registry, std::chrono::milliseconds period,
    std::function<void(const MetricsSnapshot&)> callback)
    : registry_(registry), period_(period), callback_(std::move(callback)) {
  thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      if (cv_.wait_for(lock, period_, [this] { return stop_; })) return;
      // Snapshot + callback outside the wait lock so Stop() never blocks
      // behind a slow callback.
      lock.unlock();
      callback_(registry_->Snapshot());
      lock.lock();
    }
  });
}

PeriodicLogger::~PeriodicLogger() { Stop(); }

void PeriodicLogger::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      if (!thread_.joinable()) return;
    }
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

}  // namespace obs
}  // namespace ustdb
