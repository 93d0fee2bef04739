// Copyright 2026 the ustdb authors.
//
// Shared pieces of the ustdb service benchmark: the metric report, seeded
// materials (chains in similarity clusters plus objects) and their loading
// into a ShardedDatabase, service options, registry deltas, answer checks
// against a 1-shard reference executor, and the probes that time engine
// and kernel calls from outside the service.

#ifndef USTDB_PERFBENCH_HARNESS_H_
#define USTDB_PERFBENCH_HARNESS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/multi_observation.h"
#include "core/query_request.h"
#include "core/shard_router.h"
#include "markov/markov_chain.h"
#include "metrics.h"
#include "obs/metrics.h"
#include "service/query_service.h"
#include "workload/synthetic.h"

namespace ustdb {
namespace perfbench {

/// Shards of every benchmarked service, and the TOTAL executor worker
/// budget the service divides across them (one worker per shard).
inline constexpr uint32_t kShards = 4;
inline constexpr unsigned kWorkers = 4;

/// Prints the reason to stderr and exits non-zero without a result line.
[[noreturn]] void Fail(const std::string& what);

/// Value of `r`, or Fail with `what` and the status.
template <typename T>
T Require(util::Result<T> r, const char* what) {
  if (!r.ok()) Fail(std::string(what) + ": " + r.status().ToString());
  return std::move(r).value();
}

/// Command line of one benchmark run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the run's artifact (metrics and sampled spans).
  std::string out_dir = ".bench_out";
};

// ---------------------------------------------------------------------------
// Report

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Ordered list of named metrics plus free-form notes (sizes, guards,
/// lateness), printed as the human-readable part of a run's output.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  void Note(const std::string& line) { notes_.push_back(line); }
  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<std::string>& notes() const { return notes_; }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
};

/// \brief Adds `<prefix>_p50_<unit>` and the highest tail up to p99 that
/// the samples support (`<prefix>_p99_<unit>`, or e.g. `<prefix>_p95_<unit>`
/// under 1,010 samples) to `report`, plus a note with the sample count.
void AddLatency(Report* report, const std::string& prefix,
                const std::vector<double>& samples, const std::string& unit);

/// Median of `samples` (0 when empty).
double Median(std::vector<double> samples);

/// Peak resident set size of this process in MB (VmHWM).
double PeakRssMb();

// ---------------------------------------------------------------------------
// Materials

/// One object to load: its global chain id and observation history.
struct ObjectSpec {
  ChainId chain = 0;
  std::vector<core::Observation> observations;
};

/// \brief Seeded database contents: `clusters` groups of `per_cluster`
/// chains, each group jittered copies of one independently drawn base
/// chain (so it forms one similarity cluster), and objects assigned
/// round-robin to the chains of their cluster.
struct Materials {
  workload::SyntheticConfig config;
  uint32_t clusters = 0;
  uint32_t per_cluster = 0;
  std::vector<markov::MarkovChain> chains;  // global id order
  std::vector<ObjectSpec> objects;          // global id order
};

/// \brief Draws the chains and `objects_per_chain` single-observation
/// objects per chain. Objects are ordered cluster by cluster, so loading
/// them after their cluster's chains founds each cluster on the least
/// loaded (empty) shard.
Materials MakeMaterials(const workload::SyntheticConfig& config,
                        uint32_t clusters, uint32_t per_cluster,
                        uint32_t objects_per_chain, uint64_t seed);

/// \brief Loads `m` into a ShardedDatabase of `num_shards` shards. With
/// as many clusters as shards it checks that every shard got exactly one
/// cluster, so no workload silently runs on a lopsided placement.
std::unique_ptr<core::ShardedDatabase> Load(const Materials& m,
                                            uint32_t num_shards);

/// Service options of every workload: kShards lanes, kWorkers total
/// workers, `cache_capacity` engines per shard, the given registry (null
/// = observability off), no trace sampling (traces are caller-attached).
service::ServiceOptions ServiceOptionsFor(size_t cache_capacity,
                                          obs::MetricsRegistry* registry);

// ---------------------------------------------------------------------------
// Registry deltas

/// Sum of the counter/gauge points of `family` whose labels contain
/// `match`.
double SumPoints(const obs::MetricsSnapshot& s, const std::string& family,
                 const obs::Labels& match = {});

/// Merged histogram of the points of `family` whose labels contain `match`.
obs::HistogramData MergedHistogram(const obs::MetricsSnapshot& s,
                                   const std::string& family,
                                   const obs::Labels& match = {});

/// Change of the registry's metrics over one or more measured intervals
/// (Begin/End pairs), so warm-up work between them is left out.
class RegistryDelta {
 public:
  void Begin(const obs::MetricsRegistry& r) { open_ = r.Snapshot(); }
  void End(const obs::MetricsRegistry& r) {
    intervals_.push_back({std::move(open_), r.Snapshot()});
  }

  double Counter(const std::string& family,
                 const obs::Labels& match = {}) const;
  /// Mean observation (sum / count) over the interval, in the
  /// histogram's own unit; 0 when nothing was observed.
  double HistogramMean(const std::string& family,
                       const obs::Labels& match = {}) const;
  double HistogramSum(const std::string& family,
                      const obs::Labels& match = {}) const;
  double HistogramCount(const std::string& family,
                        const obs::Labels& match = {}) const;

 private:
  obs::MetricsSnapshot open_;
  std::vector<std::pair<obs::MetricsSnapshot, obs::MetricsSnapshot>>
      intervals_;
};

/// \brief Adds the per-layer metrics every workload measures the same way
/// from the registry of a traced service: queue wait, dispatch, planner
/// and executor stage means, coalescing, scatter fan-out, per-shard busy
/// skew, plan mix, cache hit and eviction rates, and kernel passes per
/// answer (`spmv_passes` is the delta of the global kernel counter).
void AddRegistryLayers(Report* report, const RegistryDelta& d,
                       const service::ServiceStats& stats,
                       const core::ShardedDatabase& db, double answers,
                       double spmv_passes);

/// Current value of the global dense-regime SpMV pass counter.
double GlobalSpmvPasses();

// ---------------------------------------------------------------------------
// Answer checks

/// \brief Compares a served answer with the reference: ids and order must
/// match, probabilities and k-times distributions bit for bit. Returns an
/// empty string on a match, else a description of the first difference.
std::string CompareAnswers(const core::QueryResult& got,
                           const core::QueryResult& want);

/// \brief Runs every request of `requests` through QueryExecutor::RunBatch
/// as a batch of one over the 1-shard ShardedDatabase `reference` and
/// checks `answers` against them bit for bit. Fails the run on the first
/// mismatch.
void CheckAgainstReference(const core::ShardedDatabase& reference,
                           const std::vector<core::QueryRequest>& requests,
                           const std::vector<core::QueryResult>& answers,
                           const char* workload);

// ---------------------------------------------------------------------------
// Outside-in probes of layers the service spans do not cover

/// A (chain, window) pair of the workload, with the chain's shard-local
/// storage in the probed database.
struct ProbePair {
  const markov::MarkovChain* chain = nullptr;
  core::QueryWindow window;
};

/// An object of the workload as the engines see it.
struct ProbeObject {
  const markov::MarkovChain* chain = nullptr;
  std::vector<core::Observation> observations;
};

/// \brief Adds the engine and kernel probes, each the median of several
/// repetitions: QueryBasedEngine build time over `pairs`
/// (engine.qb_pass_ms, per build), KTimesEngine::Distribution of every
/// object in `ktimes_objects` from its first observation over `window`
/// (engine.ktimes_ms, for the whole set), MultiObservationEngine::Evaluate
/// of every object in `multi_objects` over `window` (engine.multi_obs_us,
/// per object), and the active kernel table's gather over the transposed
/// matrix of every chain in `chains` (kernel.gather_ns_per_nnz).
void AddProbes(Report* report, const std::vector<ProbePair>& pairs,
               const std::vector<ProbeObject>& ktimes_objects,
               const std::vector<ProbeObject>& multi_objects,
               const core::QueryWindow& window,
               const std::vector<const markov::MarkovChain*>& chains);

}  // namespace perfbench
}  // namespace ustdb

#endif  // USTDB_PERFBENCH_HARNESS_H_
