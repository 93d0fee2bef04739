// Copyright 2026 the ustdb authors.

#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>

#include "core/executor.h"
#include "core/k_times.h"
#include "core/query_based.h"
#include "kernels/isa.h"
#include "util/aligned_alloc.h"

namespace ustdb {
namespace perfbench {

void Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
  std::fflush(stderr);
  std::exit(1);
}

// ---------------------------------------------------------------------------
// Report

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) Fail("metric " + name + " is not finite");
  metrics_.push_back({name, value, unit});
}

void AddLatency(Report* report, const std::string& prefix,
                const std::vector<double>& samples, const std::string& unit) {
  const std::optional<Tail> tail = SupportedTail(samples.size(), 990);
  if (!tail.has_value()) {
    Fail(prefix + ": " + std::to_string(samples.size()) +
         " samples cannot support any percentile");
  }
  report->Add(prefix + "_p50_" + unit, QuantilePermille(samples, 500), unit);
  if (tail->permille != 500) {
    report->Add(prefix + "_" + tail->name + "_" + unit,
                QuantilePermille(samples, tail->permille), unit);
  }
  report->Note(prefix + ": " + std::to_string(samples.size()) + " samples");
}

double Median(std::vector<double> samples) {
  return QuantilePermille(std::move(samples), 500);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  Fail("cannot read VmHWM from /proc/self/status");
}

// ---------------------------------------------------------------------------
// Materials

Materials MakeMaterials(const workload::SyntheticConfig& config,
                        uint32_t clusters, uint32_t per_cluster,
                        uint32_t objects_per_chain, uint64_t seed) {
  Materials m;
  m.config = config;
  m.clusters = clusters;
  m.per_cluster = per_cluster;
  util::Rng rng(seed);
  for (uint32_t c = 0; c < clusters; ++c) {
    const markov::MarkovChain base =
        Require(workload::GenerateChain(config, &rng), "GenerateChain");
    for (uint32_t k = 0; k < per_cluster; ++k) {
      m.chains.push_back(Require(workload::PerturbChain(base, 0.05, &rng),
                                 "PerturbChain"));
    }
    for (uint32_t i = 0; i < per_cluster * objects_per_chain; ++i) {
      ObjectSpec spec;
      spec.chain = c * per_cluster + i % per_cluster;
      spec.observations.push_back(
          {0, workload::GenerateObjectPdf(config, &rng)});
      m.objects.push_back(std::move(spec));
    }
  }
  return m;
}

std::unique_ptr<core::ShardedDatabase> Load(const Materials& m,
                                            uint32_t num_shards) {
  auto db = std::make_unique<core::ShardedDatabase>(
      core::ShardingOptions{.num_shards = num_shards});
  size_t next_object = 0;
  for (uint32_t c = 0; c < m.clusters; ++c) {
    for (uint32_t k = 0; k < m.per_cluster; ++k) {
      db->AddChain(m.chains[c * m.per_cluster + k]);
    }
    const ChainId end = (c + 1) * m.per_cluster;
    while (next_object < m.objects.size() &&
           m.objects[next_object].chain < end) {
      const ObjectSpec& spec = m.objects[next_object++];
      Require(db->AddObject(spec.chain, spec.observations), "AddObject");
    }
  }
  if (m.clusters == num_shards) {
    for (uint32_t s = 0; s < num_shards; ++s) {
      if (db->shard(s).num_chains() != m.per_cluster) {
        Fail("shard " + std::to_string(s) + " holds " +
             std::to_string(db->shard(s).num_chains()) +
             " chains; expected one whole cluster per shard");
      }
    }
  }
  return db;
}

service::ServiceOptions ServiceOptionsFor(size_t cache_capacity,
                                          obs::MetricsRegistry* registry) {
  service::ServiceOptions options;
  options.executor.num_threads = kWorkers;
  options.executor.cache_capacity = cache_capacity;
  options.queue_capacity = 4096;
  options.max_batch = 64;
  options.obs.enabled = registry != nullptr;
  options.obs.registry = registry;
  options.obs.trace_sample_every = 0;
  options.obs.slow_query_ring = 0;
  return options;
}

// ---------------------------------------------------------------------------
// Registry deltas

namespace {

bool Matches(const obs::Labels& labels, const obs::Labels& match) {
  for (const auto& [key, value] : match) {
    const auto it = labels.find(key);
    if (it == labels.end() || it->second != value) return false;
  }
  return true;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

double SumPoints(const obs::MetricsSnapshot& s, const std::string& family,
                 const obs::Labels& match) {
  double total = 0.0;
  for (const obs::MetricFamily& f : s.families) {
    if (f.name != family) continue;
    for (const obs::MetricPoint& p : f.points) {
      if (Matches(p.labels, match)) total += p.value;
    }
  }
  return total;
}

obs::HistogramData MergedHistogram(const obs::MetricsSnapshot& s,
                                   const std::string& family,
                                   const obs::Labels& match) {
  std::vector<obs::HistogramData> parts;
  for (const obs::MetricFamily& f : s.families) {
    if (f.name != family) continue;
    for (const obs::MetricPoint& p : f.points) {
      if (Matches(p.labels, match)) parts.push_back(p.histogram);
    }
  }
  return obs::MergeHistograms(parts);
}

double RegistryDelta::Counter(const std::string& family,
                              const obs::Labels& match) const {
  double total = 0.0;
  for (const auto& [before, after] : intervals_) {
    total += SumPoints(after, family, match) - SumPoints(before, family, match);
  }
  return total;
}

double RegistryDelta::HistogramSum(const std::string& family,
                                   const obs::Labels& match) const {
  double total = 0.0;
  for (const auto& [before, after] : intervals_) {
    total += MergedHistogram(after, family, match).sum -
             MergedHistogram(before, family, match).sum;
  }
  return total;
}

double RegistryDelta::HistogramCount(const std::string& family,
                                     const obs::Labels& match) const {
  double total = 0.0;
  for (const auto& [before, after] : intervals_) {
    total += static_cast<double>(MergedHistogram(after, family, match).count) -
             static_cast<double>(MergedHistogram(before, family, match).count);
  }
  return total;
}

double RegistryDelta::HistogramMean(const std::string& family,
                                    const obs::Labels& match) const {
  return Ratio(HistogramSum(family, match), HistogramCount(family, match));
}

double GlobalSpmvPasses() {
  return SumPoints(obs::MetricsRegistry::Global()->Snapshot(),
                   "ustdb_kernel_spmv_passes_total");
}

void AddRegistryLayers(Report* report, const RegistryDelta& d,
                       const service::ServiceStats& stats,
                       const core::ShardedDatabase& db, double answers,
                       double spmv_passes) {
  const char* kStage = "ustdb_exec_stage_seconds";
  const double entries =
      d.HistogramCount("ustdb_service_queue_wait_seconds");
  const double submitted = d.Counter("ustdb_service_submitted_total");
  report->Add("service.queue_ms",
              1e3 * d.HistogramMean("ustdb_service_queue_wait_seconds"),
              "ms");
  report->Add("service.dispatch_ms",
              1e3 * d.HistogramMean("ustdb_service_dispatch_seconds"), "ms");
  report->Add("service.coalesce_frac",
              Ratio(d.Counter("ustdb_service_coalesced_requests_total"),
                    entries),
              "fraction");
  const double scattered = d.Counter("ustdb_service_scatter_requests_total");
  report->Add(
      "service.scatter_fanout",
      Ratio(d.Counter("ustdb_service_scatter_subtasks_total") + submitted -
                scattered,
            submitted),
      "shards");
  report->Add("service.queue_peak", static_cast<double>(stats.queue_peak),
              "count");

  std::vector<double> busy;
  std::vector<double> load;
  for (uint32_t s = 0; s < db.num_shards(); ++s) {
    busy.push_back(d.HistogramSum("ustdb_service_dispatch_seconds",
                                  {{"shard", std::to_string(s)}}));
    load.push_back(static_cast<double>(db.shard_load(s)));
  }
  const auto max_over_mean = [](const std::vector<double>& v) {
    double sum = 0.0;
    for (double x : v) sum += x;
    return Ratio(*std::max_element(v.begin(), v.end()) * v.size(), sum);
  };
  report->Add("shard.busy_max_over_mean", max_over_mean(busy), "ratio");
  report->Add("shard.load_max_over_mean", max_over_mean(load), "ratio");

  report->Add("planner.plan_ms", 1e3 * d.HistogramMean(kStage, {{"stage", "plan"}}),
              "ms");
  const double qb =
      d.Counter("ustdb_exec_chains_total", {{"plan", "query_based"}});
  const double ob =
      d.Counter("ustdb_exec_chains_total", {{"plan", "object_based"}});
  report->Add("planner.qb_chain_frac", Ratio(qb, qb + ob), "fraction");
  report->Add("executor.engine_build_ms",
              1e3 * d.HistogramMean(kStage, {{"stage", "engine_build"}}), "ms");
  report->Add("executor.evaluate_ms",
              1e3 * d.HistogramMean(kStage, {{"stage", "evaluate"}}), "ms");
  const char* kCache = "ustdb_exec_cache_events_total";
  const double hits = d.Counter(kCache, {{"kind", "hit"}});
  const double misses = d.Counter(kCache, {{"kind", "miss"}});
  report->Add("cache.hit_frac", Ratio(hits, hits + misses), "fraction");
  report->Add("cache.evictions_per_request",
              Ratio(d.Counter(kCache, {{"kind", "eviction"}}), submitted),
              "count");
  report->Add("kernel.spmv_passes_per_request", Ratio(spmv_passes, answers),
              "count");
}

// ---------------------------------------------------------------------------
// Answer checks

std::string CompareAnswers(const core::QueryResult& got,
                           const core::QueryResult& want) {
  if (got.probabilities.size() != want.probabilities.size()) {
    return "answer size " + std::to_string(got.probabilities.size()) +
           " vs reference " + std::to_string(want.probabilities.size());
  }
  for (size_t i = 0; i < got.probabilities.size(); ++i) {
    const core::ObjectProbability& a = got.probabilities[i];
    const core::ObjectProbability& b = want.probabilities[i];
    if (a.id != b.id || a.probability != b.probability) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "entry %zu: object %u p=%.17g vs reference object %u "
                    "p=%.17g",
                    i, a.id, a.probability, b.id, b.probability);
      return buf;
    }
  }
  if (got.distributions.size() != want.distributions.size()) {
    return "k-times answer size differs from the reference";
  }
  for (size_t i = 0; i < got.distributions.size(); ++i) {
    const core::ObjectKTimes& a = got.distributions[i];
    const core::ObjectKTimes& b = want.distributions[i];
    if (a.id != b.id || a.distribution.size() != b.distribution.size()) {
      return "k-times entry " + std::to_string(i) + " differs in shape";
    }
    for (size_t k = 0; k < a.distribution.size(); ++k) {
      if (a.distribution[k] != b.distribution[k]) {
        return "k-times entry " + std::to_string(i) + " level " +
               std::to_string(k) + " differs";
      }
    }
  }
  return "";
}

void CheckAgainstReference(const core::ShardedDatabase& reference,
                           const std::vector<core::QueryRequest>& requests,
                           const std::vector<core::QueryResult>& answers,
                           const char* workload) {
  core::ExecutorOptions options;
  options.num_threads = kWorkers;
  options.cache_capacity = 256;
  options.obs.enabled = false;
  core::QueryExecutor executor(&reference.shard(0), options);
  for (size_t i = 0; i < requests.size(); ++i) {
    std::vector<util::Result<core::QueryResult>> want =
        executor.RunBatch(std::span<const core::QueryRequest>(&requests[i], 1));
    if (!want[0].ok()) {
      Fail(std::string(workload) + ": reference run failed: " +
           want[0].status().ToString());
    }
    const std::string diff = CompareAnswers(answers[i], want[0].value());
    if (!diff.empty()) {
      Fail(std::string(workload) + ": sampled answer " + std::to_string(i) +
           " is not bit-identical to the 1-shard RunBatch reference: " + diff);
    }
  }
}

// ---------------------------------------------------------------------------
// Probes

namespace {

/// Median over `reps` repetitions of `body`'s wall time, in seconds.
template <typename F>
double MedianSeconds(int reps, F&& body) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    body();
    t.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }
  return Median(std::move(t));
}

}  // namespace

void AddProbes(Report* report, const std::vector<ProbePair>& pairs,
               const std::vector<ProbeObject>& ktimes_objects,
               const std::vector<ProbeObject>& multi_objects,
               const core::QueryWindow& window,
               const std::vector<const markov::MarkovChain*>& chains) {
  constexpr int kReps = 5;
  double sink = 0.0;

  std::vector<double> builds;
  for (const ProbePair& p : pairs) {
    builds.push_back(MedianSeconds(kReps, [&] {
      core::QueryBasedEngine engine(p.chain, p.window);
      sink += engine.start_vector().Sum();
    }));
  }
  report->Add("engine.qb_pass_ms", 1e3 * Median(builds), "ms");

  report->Add("engine.ktimes_ms", 1e3 * MedianSeconds(kReps, [&] {
    for (const ProbeObject& o : ktimes_objects) {
      core::KTimesEngine engine(o.chain, window);
      const std::vector<double> d =
          engine.Distribution(o.observations.front().pdf);
      sink += d.front();
    }
  }), "ms");

  const double multi_s = MedianSeconds(kReps, [&] {
    for (const ProbeObject& o : multi_objects) {
      core::MultiObservationEngine engine(o.chain, window);
      const util::Result<core::MultiObsResult> r =
          engine.Evaluate(o.observations);
      if (!r.ok()) Fail("multi-observation probe: " + r.status().ToString());
      sink += r.value().exists_probability;
    }
  });
  report->Add("engine.multi_obs_us",
              1e6 * multi_s / std::max<size_t>(1, multi_objects.size()), "us");

  std::vector<double> per_nnz;
  util::Rng rng(7);
  for (const markov::MarkovChain* chain : chains) {
    const sparse::CsrMatrix& t = chain->transposed();
    if (t.nnz() == 0) continue;
    std::vector<sparse::NnzIndex> rp(t.rows() + 1, 0);
    for (uint32_t r = 0; r < t.rows(); ++r) rp[r + 1] = rp[r] + t.RowNnz(r);
    util::AlignedVector<double> x(t.cols());
    for (double& v : x) v = rng.NextDouble();
    util::AlignedVector<double> out(t.rows());
    const kernels::KernelTable& table = kernels::Active();
    constexpr int kPasses = 20;
    const double s = MedianSeconds(kReps, [&] {
      for (int k = 0; k < kPasses; ++k) {
        table.gather(rp.data(), t.RowIndices(0).data(), t.RowValues(0).data(),
                     x.data(), t.rows(), out.data());
        sink += out[k % out.size()];
      }
    });
    per_nnz.push_back(1e9 * s / (kPasses * static_cast<double>(t.nnz())));
  }
  report->Add("kernel.gather_ns_per_nnz", Median(per_nnz), "ns");
  if (!std::isfinite(sink)) Fail("probe results are not finite");
}

}  // namespace perfbench
}  // namespace ustdb
