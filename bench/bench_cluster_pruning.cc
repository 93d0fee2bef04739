// §V-C — cluster pruning as a first-class executor plan.
//
// When every object follows its own (similar) chain, the query-based plan
// loses its amortization: one backward pass per distinct chain *per
// window*. The kBoundsThenRefine plan bounds whole similarity clusters
// with one interval-Markov-chain envelope — window-independent, memoized
// in the EngineCache — and per window pays one interval bound pass plus
// refinement of only the objects whose bound straddles τ.
//
// The bench models a monitoring deployment: one long-lived executor
// serves a stream of shifted threshold windows (fig9-style start-time
// sweep). Every window is distinct, but each is the previous one shifted
// by one step, so the per-chain plan builds each backward pass by
// extending the cached pass of the previous window by that step
// (EngineCache::LookupShiftBase), while the interval bound pass is rebuilt
// in full for every window; only the envelope is window-independent and
// cached as is. On a 4-core AVX2 host (2026-10, 3 runs) speedup_bounds
// read 0.29-0.48 @16 and 0.56-0.59 @32, below the baseline floors (ROADMAP
// item 2: shift-extend the bound pass, price cached passes). A short
// untimed warm-up stream first populates the window-independent state
// both plans amortize in steady serving (memoized transposes; the
// envelope), then kWindows fresh windows are timed. Sweeping the number
// of distinct chains (jittered copies of one base, one registry cluster)
// reports:
//
//   per_chain_qb   — the pure query-based plan: chains × windows passes
//   bounds_refine  — the executor's kBoundsThenRefine plan (kAuto-selected
//                    on the prunable sweep points)
//   speedup_bounds — per_chain_qb / bounds_refine (machine-independent;
//                    checked against bench/baselines/cluster_pruning.json)
//   refined_frac   — fraction of object evaluations that needed refinement
//
// Result sets are asserted bit-identical between the two plans for every
// window before anything is timed. The two plans are then timed in
// kRounds alternating rounds, one stream per plan in an order that flips
// every round, each from a fresh executor (cold caches). speedup_bounds
// is the median of the per-round ratios and the two runtimes are the
// per-plan medians: a stall or frequency shift moves the round it hits,
// not the median. One timed stream takes 1–4 ms, so a best-of-3 per
// plan moves with code layout and host noise by more than the 10% the
// gate must resolve.
//
// Usage: bench_cluster_pruning [--full] [--smoke] [--json <path>]

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <vector>

#include "bench_common.h"
#include "core/executor.h"
#include "workload/synthetic.h"

namespace {

using namespace ustdb;

bool g_full = false;
bool g_smoke = false;

constexpr double kTau = 0.30;
constexpr int kRounds = 101;
constexpr int kWarmup = 2;
constexpr int kWindows = 6;

struct Fixture {
  core::Database db;
  std::vector<core::QueryWindow> warmup;  // untimed; distinct from timed
  std::vector<core::QueryWindow> windows;
};

Fixture& GetFixture(uint32_t num_chains) {
  static std::map<uint32_t, Fixture> cache;
  auto it = cache.find(num_chains);
  if (it == cache.end()) {
    workload::SyntheticConfig config;
    config.num_states = g_full ? 20'000 : (g_smoke ? 2'000 : 5'000);
    config.num_objects = g_full ? 2'000 : (g_smoke ? 300 : 400);
    config.state_spread = 4;
    config.max_step = 20;
    config.seed = 41;
    Fixture f;
    f.db = workload::GenerateMultiChainDatabase(config, num_chains,
                                                /*jitter=*/0.05)
               .ValueOrDie();
    // Shifted monitoring windows: same region, sliding time range. The
    // warm-up windows precede the timed ones, like a dashboard that has
    // been ticking for a while.
    for (int w = 0; w < kWarmup + kWindows; ++w) {
      auto window =
          core::QueryWindow::FromRanges(config.num_states, 100, 160,
                                        8 + static_cast<Timestamp>(w),
                                        14 + static_cast<Timestamp>(w))
              .ValueOrDie();
      (w < kWarmup ? f.warmup : f.windows).push_back(std::move(window));
    }
    it = cache.emplace(num_chains, std::move(f)).first;
  }
  return it->second;
}

core::QueryRequest ThresholdRequest(const core::QueryWindow& window,
                                    core::PlanChoice plan) {
  core::QueryRequest request;
  request.predicate = core::PredicateKind::kThresholdExists;
  request.window = window;
  request.tau = kTau;
  request.plan = plan;
  return request;
}

/// One trial: fresh executor, untimed warm-up stream (window-independent
/// state: transposes, the cluster envelope), then the timed stream of
/// distinct windows. Accumulates refined/evaluated object counts over the
/// timed windows.
double StreamSeconds(const Fixture& f, core::PlanChoice plan,
                     uint64_t* refined, uint64_t* evaluated) {
  core::QueryExecutor executor(&f.db, {.num_threads = 1});
  for (const core::QueryWindow& window : f.warmup) {
    auto result = executor.Run(ThresholdRequest(window, plan)).ValueOrDie();
    benchmark::DoNotOptimize(result);
  }
  util::Stopwatch sw;
  for (const core::QueryWindow& window : f.windows) {
    auto result = executor.Run(ThresholdRequest(window, plan)).ValueOrDie();
    if (refined != nullptr) {
      *refined += result.stats.prune.objects_refined;
      *evaluated += f.db.num_objects();
    }
    benchmark::DoNotOptimize(result);
  }
  return sw.ElapsedSeconds();
}

/// Asserts both plans answer every window of the stream with the same ids
/// and bit-identical probabilities; aborts otherwise (a perf number for a
/// wrong answer is worse than no number). Returns how many cluster bound
/// passes the kAuto stream ran.
uint64_t AssertBitIdenticalStream(const Fixture& f, uint32_t num_chains) {
  core::QueryExecutor qb_exec(&f.db, {.num_threads = 1});
  core::QueryExecutor auto_exec(&f.db, {.num_threads = 1});
  uint64_t clusters_bounded = 0;
  std::vector<core::QueryWindow> all_windows = f.warmup;
  all_windows.insert(all_windows.end(), f.windows.begin(), f.windows.end());
  for (const core::QueryWindow& window : all_windows) {
    const auto qb =
        qb_exec.Run(ThresholdRequest(window, core::PlanChoice::kQueryBased))
            .ValueOrDie();
    const auto bounds =
        auto_exec.Run(ThresholdRequest(window, core::PlanChoice::kAuto))
            .ValueOrDie();
    clusters_bounded += bounds.stats.prune.clusters_bounded;
    if (qb.probabilities.size() != bounds.probabilities.size()) {
      std::fprintf(stderr,
                   "FATAL: plans disagree on result count at %u chains "
                   "(%zu vs %zu)\n",
                   num_chains, qb.probabilities.size(),
                   bounds.probabilities.size());
      std::abort();
    }
    for (size_t i = 0; i < qb.probabilities.size(); ++i) {
      if (qb.probabilities[i].id != bounds.probabilities[i].id ||
          qb.probabilities[i].probability !=
              bounds.probabilities[i].probability) {
        std::fprintf(stderr, "FATAL: plans disagree at %u chains, index %zu\n",
                     num_chains, i);
        std::abort();
      }
    }
  }
  return clusters_bounded;
}

void BM_ClusterPruning(benchmark::State& state) {
  const uint32_t num_chains = static_cast<uint32_t>(state.range(0));
  Fixture& f = GetFixture(num_chains);

  // Correctness gate, off the clock.
  const uint64_t clusters_bounded = AssertBitIdenticalStream(f, num_chains);

  std::vector<double> qb_seconds;
  std::vector<double> bounds_seconds;
  std::vector<double> ratios;
  uint64_t refined = 0;
  uint64_t evaluated = 0;
  const auto qb = [&f] {
    return StreamSeconds(f, core::PlanChoice::kQueryBased, nullptr, nullptr);
  };
  const auto bounds = [&] {
    return StreamSeconds(f, core::PlanChoice::kAuto, &refined, &evaluated);
  };
  for (auto _ : state) {
    util::Stopwatch sw;
    for (int round = 0; round < kRounds; ++round) {
      refined = 0;
      evaluated = 0;
      if (round % 2 == 0) {
        qb_seconds.push_back(qb());
        bounds_seconds.push_back(bounds());
      } else {
        bounds_seconds.push_back(bounds());
        qb_seconds.push_back(qb());
      }
      ratios.push_back(qb_seconds.back() / bounds_seconds.back());
    }
    state.SetIterationTime(sw.ElapsedSeconds());
  }

  const auto median = [](std::vector<double> values) {
    std::sort(values.begin(), values.end());
    return values[values.size() / 2];
  };
  auto& recorder = benchutil::Recorder::Instance();
  recorder.Record("per_chain_qb", num_chains, median(qb_seconds));
  recorder.Record("bounds_refine", num_chains, median(bounds_seconds));
  recorder.Record("speedup_bounds", num_chains, median(ratios));
  recorder.Record("refined_frac", num_chains,
                  static_cast<double>(refined) /
                      static_cast<double>(evaluated == 0 ? 1 : evaluated));
  recorder.Record("clusters_bounded", num_chains,
                  static_cast<double>(clusters_bounded));
}

void Register() {
  for (int64_t chains : {1, 2, 4, 8, 16, 32}) {
    if (g_smoke && chains != 1 && chains != 8 && chains != 32) continue;
    benchmark::RegisterBenchmark("cluster/bounds_vs_qb", BM_ClusterPruning)
        ->Arg(chains)
        ->Iterations(1)
        ->UseManualTime()
        ->Unit(benchmark::kMillisecond);
  }
}

}  // namespace

int main(int argc, char** argv) {
  g_full = ustdb::benchutil::ExtractFlag(&argc, argv, "--full");
  g_smoke = ustdb::benchutil::ExtractFlag(&argc, argv, "--smoke");
  Register();
  return ustdb::benchutil::RunBenchMain(argc, argv, "cluster_pruning",
                                        "distinct_chains",
                                        "threshold-query runtime [s]");
}
