// Extension — continuous queries: incremental subscription refresh vs
// cold recompute.
//
// A monitoring deployment keeps N standing queries (sliding windows, one
// per watched region) open against a database that ingests observation
// updates. Each round the windows slide one step and a few objects
// receive a new observation. The subscription layer refreshes by
// extending memoized query-based backward passes (engine-cache
// shift-extension) and rebuilding only the passes the ingest invalidated
// (epoch-precise, per chain); the no-continuous-queries baseline re-runs
// every standing query from scratch, the way a polling client would.
//
// Sweep: standing-query count N x update rate u (objects mutated per
// round). Series:
//
//   cold_ms_uU        — milliseconds per round of cold recompute (fresh
//                       executor each round), N on the x axis
//   incremental_ms_uU — milliseconds per round of TickWindows +
//                       RefreshSubscriptions on the long-lived service
//   speedup_uU        — cold / incremental at the same (N, u)
//
// Higher update rates invalidate more chains per round and erode the
// incremental advantage — that erosion curve is the point of the u
// dimension. The perf gate (bench/baselines/continuous_queries.json)
// floors speedup_u1 at N = 64.
//
// Before any timing, the fixture verifies that every subscription's
// answer set — reconstructed purely from the delivered deltas — matches a
// cold executor's answer for the final slid window within the 1e-12
// kernel-parity margin.
//
// Usage: bench_continuous_queries [--full]

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "core/database.h"
#include "core/executor.h"
#include "core/query_request.h"
#include "core/query_window.h"
#include "service/query_service.h"
#include "sparse/prob_vector.h"
#include "util/stopwatch.h"
#include "workload/synthetic.h"

namespace {

using namespace ustdb;

bool g_full = false;

constexpr uint32_t kChains = 24;
constexpr uint32_t kWindowSteps = 16;   // backward-pass length per window
constexpr uint32_t kRegionWidth = 24;
constexpr int kRounds = 6;
constexpr double kParityMargin = 1e-12;

workload::SyntheticConfig Config() {
  workload::SyntheticConfig config;
  config.num_states = g_full ? 8'000 : 2'000;
  config.num_objects = 32;
  config.object_spread = 5;
  config.state_spread = 3;
  config.max_step = 24;
  config.seed = 53;
  return config;
}

/// The i-th standing query: kExists over a distinct region, explicit
/// query-based plan (the shift-extension path is QB-only).
core::QueryRequest StandingRequest(const workload::SyntheticConfig& config,
                                   uint32_t i) {
  const uint32_t stride =
      (config.num_states - kRegionWidth - 16) / 64;  // 64 = max N swept
  const uint32_t s_lo = 8 + i * stride;
  core::QueryRequest request;
  request.predicate = core::PredicateKind::kExists;
  request.plan = core::PlanChoice::kQueryBased;
  request.window = core::QueryWindow::FromRanges(config.num_states, s_lo,
                                                 s_lo + kRegionWidth, 2,
                                                 2 + kWindowSteps - 1)
                       .ValueOrDie();
  return request;
}

/// An observation guaranteed consistent with `id`'s possible worlds one
/// step after its latest observation: uniform over a band covering the
/// full one-step reachable set of that pdf (band transitions move at
/// most max_step/2 per step).
core::Observation ReachableObs(const core::Database& db, ObjectId id,
                               const workload::SyntheticConfig& config) {
  const core::Observation& last = db.object(id).observations.back();
  uint32_t lo = config.num_states;
  uint32_t hi = 0;
  last.pdf.ForEachNonZero([&](uint32_t index, double) {
    lo = std::min(lo, index);
    hi = std::max(hi, index);
  });
  const uint32_t half = config.max_step / 2;
  const uint32_t band_lo = lo > half ? lo - half : 0;
  const uint32_t band_hi = std::min(config.num_states - 1, hi + half);
  std::vector<std::pair<uint32_t, double>> pairs;
  for (uint32_t s = band_lo; s <= band_hi; ++s) pairs.emplace_back(s, 1.0);
  return {last.time + 1, sparse::ProbVector::FromPairs(config.num_states,
                                                       std::move(pairs),
                                                       /*normalize=*/true)
                             .ValueOrDie()};
}

struct RoundCost {
  double cold_seconds = 0.0;
  double incremental_seconds = 0.0;
};

/// One full configuration: N subscriptions at update rate u, kRounds
/// rounds of {ingest, slide, refresh} vs cold recompute of the same slid
/// requests. Also runs the delta-reconstruction parity check.
RoundCost RunConfig(uint32_t num_queries, uint32_t updates_per_round) {
  const workload::SyntheticConfig config = Config();
  core::ShardedDatabase db = benchutil::LoadOneShard(
      workload::GenerateMultiChainDatabase(config, kChains, 0.05)
          .ValueOrDie());

  service::ServiceOptions options;
  options.executor.num_threads = 1;
  // Room for two rounds of (N windows x kChains passes) so extension
  // bases survive until the next slide.
  options.executor.cache_capacity = 2 * num_queries * kChains + 64;
  service::QueryService service(&db, options);

  auto mirrors =
      std::make_shared<std::vector<std::map<ObjectId, double>>>(num_queries);
  std::vector<service::Subscription> subs;
  for (uint32_t i = 0; i < num_queries; ++i) {
    auto sub = service.Subscribe(
        StandingRequest(config, i), service::WindowPolicy{.slide = 1},
        [mirrors, i](const service::SubscriptionDelta& delta) {
          std::map<ObjectId, double>& mirror = (*mirrors)[i];
          for (ObjectId id : delta.left) mirror.erase(id);
          for (const auto& p : delta.entered) mirror[p.id] = p.probability;
          for (const auto& p : delta.changed) mirror[p.id] = p.probability;
        });
    if (!sub.ok()) {
      std::fprintf(stderr, "Subscribe failed: %s\n",
                   sub.status().ToString().c_str());
      std::exit(1);
    }
    subs.push_back(sub.value());
  }
  // Warmup refresh builds every backward pass once (untimed — the
  // steady state is what the bench measures).
  if (service.RefreshSubscriptions() != num_queries) {
    std::fprintf(stderr, "warmup refresh did not deliver every delta\n");
    std::exit(1);
  }

  RoundCost cost;
  std::vector<std::vector<core::ObjectProbability>> final_cold(num_queries);
  for (int round = 1; round <= kRounds; ++round) {
    // Ingest one observation on each of the u hot objects (untimed: both
    // paths see the same post-append database) — the paper's Section VI
    // story, an object reporting positions continuously. Consecutive ids
    // walk the round-robin chain assignment, so u hot objects dirty
    // min(u, kChains) chains every round.
    for (uint32_t j = 0; j < updates_per_round; ++j) {
      const ObjectId id =
          static_cast<ObjectId>(j % config.num_objects);
      const auto version = service.AppendObservation(
          id, ReachableObs(db.shard(0), id, config));
      if (!version.ok()) {
        std::fprintf(stderr, "append failed: %s\n",
                     version.status().ToString().c_str());
        std::exit(1);
      }
    }

    {
      util::Stopwatch sw;
      service.TickWindows();
      if (service.RefreshSubscriptions() != num_queries) {
        std::fprintf(stderr, "refresh round %d dropped a delta\n", round);
        std::exit(1);
      }
      cost.incremental_seconds += sw.ElapsedSeconds();
    }

    {
      util::Stopwatch sw;
      core::QueryExecutor cold(&db.shard(0), {.num_threads = 1});
      for (uint32_t i = 0; i < num_queries; ++i) {
        core::QueryRequest request = StandingRequest(config, i);
        request.window = request.window.ShiftedBy(round);
        const auto result = cold.Run(request);
        if (!result.ok()) {
          std::fprintf(stderr, "cold run failed: %s\n",
                       result.status().ToString().c_str());
          std::exit(1);
        }
        if (round == kRounds) {
          final_cold[i] = result.value().probabilities;
        }
      }
      cost.cold_seconds += sw.ElapsedSeconds();
    }
  }

  // Parity: every subscription's delta-reconstructed answer set matches
  // the cold recompute of its final window.
  for (uint32_t i = 0; i < num_queries; ++i) {
    const std::map<ObjectId, double>& mirror = (*mirrors)[i];
    if (mirror.size() != final_cold[i].size()) {
      std::fprintf(stderr,
                   "parity: query %u answer-set size %zu vs cold %zu\n", i,
                   mirror.size(), final_cold[i].size());
      std::exit(1);
    }
    for (const core::ObjectProbability& want : final_cold[i]) {
      const auto it = mirror.find(want.id);
      if (it == mirror.end() ||
          std::fabs(it->second - want.probability) > kParityMargin) {
        std::fprintf(stderr,
                     "parity: query %u object %u drifted beyond 1e-12\n", i,
                     want.id);
        std::exit(1);
      }
    }
  }
  // Engagement guard: at low update rates the refreshes must actually
  // ride the cache's shift-extension path, or the "incremental" series
  // is mislabeled. (At u >= kChains every chain is invalidated every
  // round, so zero extends is the expected full-erosion endpoint.)
  if (updates_per_round < kChains / 2 &&
      service.stats().cache.shift_extends <
          static_cast<uint64_t>(kRounds) * num_queries) {
    std::fprintf(stderr,
                 "expected >= %d shift-extends (got %llu): the refresh "
                 "path is rebuilding instead of extending\n",
                 kRounds * num_queries,
                 static_cast<unsigned long long>(
                     service.stats().cache.shift_extends));
    std::exit(1);
  }

  cost.cold_seconds /= kRounds;
  cost.incremental_seconds /= kRounds;
  return cost;
}

void BM_Continuous(benchmark::State& state) {
  const uint32_t num_queries = static_cast<uint32_t>(state.range(0));
  const uint32_t updates = static_cast<uint32_t>(state.range(1));
  RoundCost cost;
  for (auto _ : state) {
    util::Stopwatch sw;
    cost = RunConfig(num_queries, updates);
    state.SetIterationTime(sw.ElapsedSeconds());
  }
  const std::string suffix = "_u" + std::to_string(updates);
  auto& recorder = benchutil::Recorder::Instance();
  recorder.Record("cold_ms" + suffix, num_queries,
                  cost.cold_seconds * 1e3);
  recorder.Record("incremental_ms" + suffix, num_queries,
                  cost.incremental_seconds * 1e3);
  if (cost.incremental_seconds > 0.0) {
    recorder.Record("speedup" + suffix, num_queries,
                    cost.cold_seconds / cost.incremental_seconds);
  }
}

void Register() {
  for (const int64_t n : {16, 64}) {
    for (const int64_t u : {1, 4, 16}) {
      benchmark::RegisterBenchmark("continuous/refresh", BM_Continuous)
          ->Args({n, u})
          ->Iterations(1)
          ->UseManualTime()
          ->Unit(benchmark::kMillisecond);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  g_full = ustdb::benchutil::ExtractFlag(&argc, argv, "--full");
  Register();
  return ustdb::benchutil::RunBenchMain(
      argc, argv, "continuous_queries", "standing_queries",
      "per-round refresh [ms] / speedup vs cold recompute");
}
