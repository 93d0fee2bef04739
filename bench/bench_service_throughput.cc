// Extension — QueryService under open-loop traffic.
//
// The batch benchmark (bench_batch_refresh) measures the executor when a
// caller hands it a ready-made batch; this one measures the *service*,
// which must build those batches itself from an arrival stream. Two
// scenarios, each run with coalescing on and off (off = strict
// one-request-per-dispatch, the no-batching admission layer):
//
//   burst    — a 64-request single-window bulk burst submitted while
//              background interactive traffic (Poisson over other windows,
//              cache sized to thrash) keeps evicting the burst's backward
//              pass. Uncoalesced, burst members interleave with background
//              requests and re-pay the pass; coalesced, the whole burst
//              drains as one RunBatch group and pays it once. Reported as
//              burst makespan [ms] at x = 64.
//   idle_burst — the same burst on an otherwise idle service (the warm
//              cache rescues solo mode here; reported for honesty about
//              where coalescing does and does not matter).
//   sustained — Poisson arrivals over a Zipf-repeating window pool for two
//              seconds per offered rate; reports achieved qps and p99
//              latency [ms] per submission mode at x = offered qps.
//   tracing_overhead — the observability overhead contract: the same
//              closed-loop warm-cache stream of cheap exists requests
//              pushed through an uncoalesced single-thread service with
//              observability fully on (metrics + trace sampling + slow
//              ring) and fully off, in kTracingRounds alternating rounds
//              of one stream per side. Reports the median qps per side
//              (tracing_on_qps / tracing_off_qps) plus the gated
//              machine-independent tracing_qps_ratio, the median of the
//              per-round on/off ratios (>= 0.95 required: tracing may
//              cost at most 5% qps). Run with --tracing to register only
//              this series.
//   sharded_scaling — the same contended mixed stream (single-chain
//              requests over 8 independent chains, windows cycling faster
//              than the engine cache can hold, mixed exists/forall/k-times
//              predicates) pushed through a sharded service at 1, 2, and 4
//              shards under a FIXED total worker budget. Each shard owns a
//              lane, an executor, and a cache slice, so throughput scales
//              with lanes on a multi-core host. Reports achieved qps at
//              x = shard count plus the machine-independent ratio
//              sharded_speedup (qps at N shards / qps at 1 shard, both
//              measured in this process) that the perf-smoke baseline
//              gates. Run with --sharded to register only this series.
//
// Before any timing, the fixture asserts that a coalesced 64-request
// single-window burst answers bit-identically to a direct
// QueryExecutor::RunBatch of the same requests.
//
// Usage: bench_service_throughput [--full] [--sharded] [--tracing]

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/executor.h"
#include "core/shard_router.h"
#include "service/query_service.h"
#include "workload/query_gen.h"
#include "workload/synthetic.h"

namespace {

using namespace ustdb;
using Clock = std::chrono::steady_clock;

bool g_full = false;
bool g_sharded_only = false;
bool g_tracing_only = false;

constexpr size_t kBurst = 64;
constexpr auto kResolveTimeout = std::chrono::milliseconds(60'000);

struct Fixture {
  core::ShardedDatabase db;  // one shard
  core::QueryWindow burst_window;
  std::vector<core::QueryWindow> noise_windows;
  std::vector<core::QueryWindow> sustained_pool;  // Zipf-repeating stream
};

core::QueryRequest ExistsRequest(const core::QueryWindow& w) {
  core::QueryRequest request;
  request.predicate = core::PredicateKind::kExists;
  request.window = w;
  return request;
}

/// Bit-identity guard (acceptance): the service's coalesced burst answers
/// must equal a direct RunBatch of the same 64 requests, bit for bit.
void VerifyCoalescedBurstParity(const Fixture& f) {
  service::ServiceOptions options;
  options.executor.num_threads = 1;
  options.queue_capacity = 2 * kBurst;
  options.max_batch = kBurst;
  service::QueryService svc(&f.db, options);
  svc.Pause();
  std::vector<core::QueryRequest> burst(kBurst,
                                        ExistsRequest(f.burst_window));
  std::vector<service::QueryTicket> tickets = svc.SubmitBurst(burst);
  svc.Resume();

  // Drain the service before running the twin: two executors may share a
  // Database only when they do not touch it concurrently.
  std::vector<util::Result<core::QueryResult>> answers;
  for (service::QueryTicket& t : tickets) answers.push_back(t.Get());

  core::QueryExecutor twin(&f.db.shard(0), {.num_threads = 1});
  const auto expected = twin.RunBatch(
      std::vector<core::QueryRequest>(kBurst, ExistsRequest(f.burst_window)));

  for (size_t i = 0; i < answers.size(); ++i) {
    const auto& got = answers[i];
    if (!got.ok() || !expected[i].ok()) {
      std::fprintf(stderr, "burst parity: request %zu failed\n", i);
      std::exit(1);
    }
    const auto& a = got.value().probabilities;
    const auto& b = expected[i].value().probabilities;
    if (a.size() != b.size()) {
      std::fprintf(stderr, "burst parity: size mismatch at %zu\n", i);
      std::exit(1);
    }
    for (size_t j = 0; j < a.size(); ++j) {
      if (a[j].id != b[j].id || a[j].probability != b[j].probability) {
        std::fprintf(stderr,
                     "burst parity: request %zu object %zu differs "
                     "(service %.17g vs RunBatch %.17g)\n",
                     i, j, a[j].probability, b[j].probability);
        std::exit(1);
      }
    }
  }
  const service::ServiceStats stats = svc.stats();
  if (stats.coalesced_requests != kBurst) {
    std::fprintf(stderr, "burst parity: expected one coalesced drain, got "
                 "%llu coalesced requests\n",
                 static_cast<unsigned long long>(stats.coalesced_requests));
    std::exit(1);
  }
  std::printf(
      "parity: coalesced 64-burst bit-identical to RunBatch (1 batch)\n");
}

Fixture& GetFixture() {
  static std::optional<Fixture> cache;
  if (!cache.has_value()) {
    workload::SyntheticConfig config;
    config.num_states = g_full ? 50'000 : 10'000;
    config.num_objects = g_full ? 5'000 : 1'000;
    config.seed = 51;
    Fixture f{benchutil::LoadOneShard(
                  workload::GenerateDatabase(config).ValueOrDie()),
              {}, {}, {}};

    workload::QueryGenConfig qconfig;
    qconfig.num_states = config.num_states;
    qconfig.t_min = 10;
    qconfig.t_max = 30;
    qconfig.seed = 52;
    util::Rng rng(qconfig.seed);
    f.burst_window = workload::RandomWindow(qconfig, &rng).ValueOrDie();
    for (int i = 0; i < 3; ++i) {
      f.noise_windows.push_back(
          workload::RandomWindow(qconfig, &rng).ValueOrDie());
    }
    f.sustained_pool =
        workload::RepeatingWorkload(qconfig, /*distinct_windows=*/8,
                                    /*count=*/4096)
            .ValueOrDie();
    (void)f.db.shard(0).chain(0).transposed();  // pre-warm the transpose
    VerifyCoalescedBurstParity(f);
    cache.emplace(std::move(f));
  }
  return *cache;
}

/// Submits `count` interactive noise requests at Poisson arrivals until
/// stopped, cycling the noise windows (cache capacity 1 → every one
/// evicts). Joined before the service dies.
class BackgroundTraffic {
 public:
  BackgroundTraffic(service::QueryService* svc, const Fixture& f,
                    double rate_qps, uint64_t seed)
      : thread_([this, svc, &f, rate_qps, seed] {
          workload::ArrivalProcess arrivals =
              workload::ArrivalProcess::Create(
                  {.rate_qps = rate_qps, .seed = seed})
                  .ValueOrDie();
          const Clock::time_point start = Clock::now();
          double offset_s = 0.0;
          std::vector<service::QueryTicket> tickets;
          size_t i = 0;
          while (!stop_.load(std::memory_order_relaxed)) {
            offset_s += arrivals.NextGap();
            std::this_thread::sleep_until(
                start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(offset_s)));
            if (stop_.load(std::memory_order_relaxed)) break;
            tickets.push_back(svc->Submit(
                ExistsRequest(f.noise_windows[i % f.noise_windows.size()]),
                service::Priority::kInteractive));
            ++i;
          }
          for (service::QueryTicket& t : tickets) {
            (void)t.WaitFor(kResolveTimeout);
          }
        }) {}

  void Stop() {
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Burst makespan [s]: submit 64 bulk same-window requests at once, wait
/// for all of them, optionally under interactive background traffic.
double MeasureBurst(const Fixture& f, bool coalesce, bool contended) {
  service::ServiceOptions options;
  options.executor.num_threads = 1;
  // One cache slot: background traffic over several windows evicts the
  // burst's backward pass between uncoalesced burst members.
  options.executor.cache_capacity = 1;
  options.max_batch = coalesce ? 2 * kBurst : 1;
  options.queue_capacity = 1024;
  service::QueryService svc(&f.db, options);

  std::optional<BackgroundTraffic> background;
  if (contended) {
    background.emplace(&svc, f, /*rate_qps=*/1000.0, /*seed=*/61);
    // Let the background stream occupy the cache before the burst lands.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  std::vector<core::QueryRequest> burst(kBurst,
                                        ExistsRequest(f.burst_window));
  util::Stopwatch sw;
  std::vector<service::QueryTicket> tickets =
      svc.SubmitBurst(std::move(burst), service::Priority::kBulk);
  for (service::QueryTicket& t : tickets) {
    if (!t.WaitFor(kResolveTimeout)) {
      std::fprintf(stderr, "burst ticket timed out\n");
      std::exit(1);
    }
  }
  const double seconds = sw.ElapsedSeconds();
  if (background.has_value()) background->Stop();
  svc.Shutdown();
  return seconds;
}

struct SustainedResult {
  double achieved_qps = 0.0;
  double p99_ms = 0.0;
};

/// Two seconds of Poisson arrivals at `offered_qps` over the Zipf pool.
SustainedResult MeasureSustained(const Fixture& f, bool coalesce,
                                 double offered_qps) {
  service::ServiceOptions options;
  options.executor.num_threads = 1;
  options.executor.cache_capacity = 4;  // pool has 8 distinct windows
  options.max_batch = coalesce ? kBurst : 1;
  options.queue_capacity = 4096;
  service::QueryService svc(&f.db, options);

  workload::ArrivalProcess arrivals =
      workload::ArrivalProcess::Create({.rate_qps = offered_qps, .seed = 62})
          .ValueOrDie();
  const auto count =
      static_cast<size_t>(offered_qps * (g_full ? 4.0 : 2.0));

  util::Stopwatch sw;
  const Clock::time_point start = Clock::now();
  double offset_s = 0.0;
  std::vector<service::QueryTicket> tickets;
  tickets.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    offset_s += arrivals.NextGap();
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(offset_s)));
    tickets.push_back(svc.Submit(
        ExistsRequest(f.sustained_pool[i % f.sustained_pool.size()]),
        service::Priority::kInteractive));
  }
  for (service::QueryTicket& t : tickets) {
    if (!t.WaitFor(kResolveTimeout)) {
      std::fprintf(stderr, "sustained ticket timed out\n");
      std::exit(1);
    }
  }
  const double seconds = sw.ElapsedSeconds();
  const service::ServiceStats stats = svc.stats();
  svc.Shutdown();
  return {static_cast<double>(stats.completed) / seconds,
          stats.latency_p99_ms};
}

// ---------------------------------------------------------------------------
// Tracing-overhead series (the ≤5% observability contract).

/// Closed-loop qps of `count` cheap same-window exists requests through an
/// uncoalesced single-thread service with observability fully on or fully
/// off. Warm cache + cheap evaluation is the adversarial regime: the
/// per-request instrumentation (counter adds, stage clock reads, the
/// sampled traces) is largest relative to the work it measures.
double MeasureTracingQps(const Fixture& f, bool obs_on, size_t count) {
  service::ServiceOptions options;
  options.executor.num_threads = 1;
  options.max_batch = 1;  // per-request dispatch: max instrumented edges
  options.queue_capacity = count + 1;
  options.obs.enabled = obs_on;
  options.obs.trace_sample_every = 16;
  options.obs.slow_query_ring = 16;
  service::QueryService svc(&f.db, options);

  // Warm the engine cache so every measured request is admission +
  // dispatch + a cache-hit evaluation.
  (void)svc.Submit(ExistsRequest(f.burst_window)).Get();

  std::vector<core::QueryRequest> stream(count,
                                         ExistsRequest(f.burst_window));
  util::Stopwatch sw;
  std::vector<service::QueryTicket> tickets =
      svc.SubmitBurst(std::move(stream));
  for (service::QueryTicket& t : tickets) {
    if (!t.WaitFor(kResolveTimeout) || !t.Get().ok()) {
      std::fprintf(stderr, "tracing stream request failed or timed out\n");
      std::exit(1);
    }
  }
  const double seconds = sw.ElapsedSeconds();
  svc.Shutdown();
  return static_cast<double>(count) / seconds;
}

/// Alternating rounds of the tracing-overhead series. One stream takes
/// 15–45 ms, and a best-of-3 per side read 0.83–1.36 over 10 runs on a
/// 4-core host, where the median of 201 paired ratios spread by about ±2%
/// over 10 runs: narrow enough to resolve the contract's 5%.
constexpr int kTracingRounds = 201;

double MedianOf(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

void BM_TracingOverhead(benchmark::State& state) {
  Fixture& f = GetFixture();
  const size_t count = g_full ? 1024 : 384;
  std::vector<double> on;
  std::vector<double> off;
  std::vector<double> ratios;
  for (auto _ : state) {
    util::Stopwatch sw;
    // Each round times one stream per side back to back, in an order that
    // flips every round, and yields one on/off ratio. Host noise (a stall,
    // a frequency shift) moves the ratio of the round it hits, not the
    // median, so the RATIO transfers across machines even though the
    // absolute qps does not.
    for (int round = 0; round < kTracingRounds; ++round) {
      const bool off_first = round % 2 == 0;
      const double first = MeasureTracingQps(f, !off_first, count);
      const double second = MeasureTracingQps(f, off_first, count);
      off.push_back(off_first ? first : second);
      on.push_back(off_first ? second : first);
      ratios.push_back(on.back() / off.back());
    }
    state.SetIterationTime(sw.ElapsedSeconds());
  }
  benchutil::Recorder::Instance().Record("tracing_off_qps", 1.0,
                                         MedianOf(off));
  benchutil::Recorder::Instance().Record("tracing_on_qps", 1.0, MedianOf(on));
  benchutil::Recorder::Instance().Record("tracing_qps_ratio", 1.0,
                                         MedianOf(ratios));
}

// ---------------------------------------------------------------------------
// Sharded scaling series.

constexpr uint32_t kShardChains = 8;
constexpr uint32_t kShardWindows = 8;  // distinct windows per chain

/// Raw materials of the sharded fixture, kept outside any Database so the
/// SAME chain/object stream can be loaded into a ShardedDatabase per shard
/// count (and into the unsharded parity twin) with bit-identical content.
struct ShardMaterials {
  workload::SyntheticConfig config;
  std::vector<markov::MarkovChain> chains;
  std::vector<sparse::ProbVector> pdfs;  // object i follows chain i % kShardChains
  size_t num_requests = 0;
};

workload::SyntheticConfig ShardChainConfig() {
  workload::SyntheticConfig config;
  config.num_states = g_full ? 20'000 : 10'000;
  config.num_objects = g_full ? 2'000 : 800;
  return config;
}

ShardMaterials MakeShardMaterials() {
  ShardMaterials m;
  m.config = ShardChainConfig();
  m.num_requests = g_full ? 512 : 256;
  for (uint32_t c = 0; c < kShardChains; ++c) {
    // Independent seeds: each chain draws its own support pattern, founds
    // its own similarity cluster, and therefore lands on its own shard
    // (clusters never split; founding picks the least loaded shard).
    util::Rng rng(71 + c);
    m.chains.push_back(
        workload::GenerateChain(m.config, &rng).ValueOrDie());
  }
  util::Rng rng(72);
  for (uint32_t i = 0; i < m.config.num_objects; ++i) {
    m.pdfs.push_back(workload::GenerateObjectPdf(m.config, &rng));
  }
  return m;
}

std::unique_ptr<core::ShardedDatabase> BuildSharded(const ShardMaterials& m,
                                                    uint32_t num_shards) {
  auto db = std::make_unique<core::ShardedDatabase>(
      core::ShardingOptions{.num_shards = num_shards});
  for (const markov::MarkovChain& chain : m.chains) db->AddChain(chain);
  for (size_t i = 0; i < m.pdfs.size(); ++i) {
    db->AddObjectAt(static_cast<ChainId>(i % kShardChains), m.pdfs[i])
        .ValueOrDie();
  }
  return db;
}

/// Request `i` of the contended stream: single-chain (chain i mod 8, so
/// consecutive requests hit different shards), windows cycling through 8
/// distinct placements per chain — far more than the 2-slot engine cache
/// holds, so every dispatch pays an engine build, the serial per-request
/// cost that shard lanes parallelize — and predicates cycling
/// exists/forall/k-times.
core::QueryRequest ShardRequest(const ShardMaterials& m, size_t i) {
  const auto chain = static_cast<uint32_t>(i % kShardChains);
  const auto window = static_cast<uint32_t>((i / kShardChains) % kShardWindows);

  core::QueryRequest request;
  switch (i % 3) {
    case 0: request.predicate = core::PredicateKind::kExists; break;
    case 1: request.predicate = core::PredicateKind::kForAll; break;
    default: request.predicate = core::PredicateKind::kKTimes; break;
  }
  const uint32_t n = m.config.num_states;
  const uint32_t s_lo = (window * 997 + chain * 131) % (n - 40);
  const uint32_t t_lo = 10 + (window % 4) * 3;
  request.window =
      core::QueryWindow::FromRanges(n, s_lo, s_lo + 30, t_lo, t_lo + 5)
          .ValueOrDie();
  std::vector<ObjectId> filter;
  for (ObjectId g = chain; g < m.config.num_objects; g += kShardChains) {
    filter.push_back(g);
  }
  request.object_filter = std::move(filter);
  return request;
}

service::ServiceOptions ShardedServiceOptions(const ShardMaterials& m) {
  service::ServiceOptions options;
  // FIXED total worker budget, divided across the shard executors: the
  // 1-shard run gets one 4-thread executor, the 4-shard run four 1-thread
  // executors. The comparison is lanes vs one lane, not extra threads.
  options.executor.num_threads = 4;
  // Two engine slots per shard against 8 distinct windows per resident
  // chain: the stream thrashes every configuration's cache, so throughput
  // is bounded by engine builds — work a single dispatcher serializes and
  // shard lanes overlap.
  options.executor.cache_capacity = 2;
  options.max_batch = 1;  // strict per-request dispatch on every lane
  options.queue_capacity = m.num_requests;  // whole burst stages at once
  return options;
}

/// Bit-identity guard: the sharded service must answer the stream head
/// exactly like a QueryExecutor over the equivalent unsharded Database.
void VerifyShardedParity(const ShardMaterials& m) {
  core::Database unsharded;
  for (const markov::MarkovChain& chain : m.chains) {
    unsharded.AddChain(chain);
  }
  for (size_t i = 0; i < m.pdfs.size(); ++i) {
    unsharded.AddObjectAt(static_cast<ChainId>(i % kShardChains), m.pdfs[i])
        .ValueOrDie();
  }
  std::unique_ptr<core::ShardedDatabase> sharded = BuildSharded(m, 4);

  service::ServiceOptions options;
  options.executor.num_threads = 1;
  core::QueryExecutor twin(&unsharded, {.num_threads = 1});
  service::QueryService routed(sharded.get(), options);

  for (size_t i = 0; i < 24; ++i) {
    auto expected = twin.Run(ShardRequest(m, i));
    auto got = routed.Submit(ShardRequest(m, i)).Get();
    if (!expected.ok() || !got.ok()) {
      std::fprintf(stderr, "sharded parity: request %zu failed\n", i);
      std::exit(1);
    }
    const auto& a = got.value().probabilities;
    const auto& b = expected.value().probabilities;
    bool same = a.size() == b.size();
    for (size_t j = 0; same && j < a.size(); ++j) {
      same = a[j].id == b[j].id && a[j].probability == b[j].probability;
    }
    const auto& da = got.value().distributions;
    const auto& db = expected.value().distributions;
    same = same && da.size() == db.size();
    for (size_t j = 0; same && j < da.size(); ++j) {
      same = da[j].id == db[j].id && da[j].distribution == db[j].distribution;
    }
    if (!same) {
      std::fprintf(stderr,
                   "sharded parity: request %zu differs from the "
                   "single-executor pipeline\n",
                   i);
      std::exit(1);
    }
  }
  std::printf(
      "parity: sharded(4) bit-identical to single-executor pipeline "
      "(24-request stream head)\n");
}

ShardMaterials& GetShardMaterials() {
  static std::optional<ShardMaterials> cache;
  if (!cache.has_value()) {
    ShardMaterials m = MakeShardMaterials();
    VerifyShardedParity(m);
    cache.emplace(std::move(m));
  }
  return *cache;
}

/// Closed-loop makespan of the whole contended stream at `num_shards`:
/// burst-submit every request (they stage across the shard lanes), wait
/// for all, report completed requests per second.
double MeasureShardedQps(const ShardMaterials& m, uint32_t num_shards) {
  std::unique_ptr<core::ShardedDatabase> db = BuildSharded(m, num_shards);
  service::QueryService svc(db.get(), ShardedServiceOptions(m));

  std::vector<core::QueryRequest> stream;
  stream.reserve(m.num_requests);
  for (size_t i = 0; i < m.num_requests; ++i) {
    stream.push_back(ShardRequest(m, i));
  }
  util::Stopwatch sw;
  std::vector<service::QueryTicket> tickets =
      svc.SubmitBurst(std::move(stream));
  for (service::QueryTicket& t : tickets) {
    if (!t.WaitFor(kResolveTimeout) || !t.Get().ok()) {
      std::fprintf(stderr, "sharded stream request failed or timed out\n");
      std::exit(1);
    }
  }
  const double seconds = sw.ElapsedSeconds();
  svc.Shutdown();
  return static_cast<double>(m.num_requests) / seconds;
}

void BM_ShardedScaling(benchmark::State& state) {
  ShardMaterials& m = GetShardMaterials();
  for (auto _ : state) {
    util::Stopwatch sw;
    double qps_at_one = 0.0;
    for (uint32_t shards : {1u, 2u, 4u}) {
      const double qps = MeasureShardedQps(m, shards);
      benchutil::Recorder::Instance().Record(
          "sharded_qps", static_cast<double>(shards), qps);
      if (shards == 1) {
        qps_at_one = qps;
      } else {
        // Both runs measured in this process on the same stream: the
        // ratio transfers across machines (given >= `shards` cores).
        benchutil::Recorder::Instance().Record(
            "sharded_speedup", static_cast<double>(shards),
            qps / qps_at_one);
      }
    }
    state.SetIterationTime(sw.ElapsedSeconds());
  }
}

void BM_Burst(benchmark::State& state) {
  Fixture& f = GetFixture();
  const bool coalesce = state.range(0) != 0;
  const bool contended = state.range(1) != 0;
  double seconds = 0.0;
  for (auto _ : state) {
    seconds = MeasureBurst(f, coalesce, contended);
    state.SetIterationTime(seconds);
  }
  const char* series = contended
                           ? (coalesce ? "burst_coalesced_ms" : "burst_solo_ms")
                           : (coalesce ? "idle_burst_coalesced_ms"
                                       : "idle_burst_solo_ms");
  benchutil::Recorder::Instance().Record(series,
                                         static_cast<double>(kBurst),
                                         seconds * 1e3);
}

void BM_Sustained(benchmark::State& state) {
  Fixture& f = GetFixture();
  const bool coalesce = state.range(0) != 0;
  const double offered = static_cast<double>(state.range(1));
  SustainedResult result;
  for (auto _ : state) {
    util::Stopwatch sw;
    result = MeasureSustained(f, coalesce, offered);
    state.SetIterationTime(sw.ElapsedSeconds());
  }
  benchutil::Recorder::Instance().Record(
      coalesce ? "coalesced_qps" : "solo_qps", offered, result.achieved_qps);
  benchutil::Recorder::Instance().Record(
      coalesce ? "coalesced_p99_ms" : "solo_p99_ms", offered, result.p99_ms);
}

void Register() {
  if (g_tracing_only) {
    benchmark::RegisterBenchmark("service/tracing_overhead",
                                 BM_TracingOverhead)
        ->Iterations(1)
        ->UseManualTime()
        ->Unit(benchmark::kMillisecond);
    return;
  }
  benchmark::RegisterBenchmark("service/sharded_scaling", BM_ShardedScaling)
      ->Iterations(1)
      ->UseManualTime()
      ->Unit(benchmark::kMillisecond);
  if (g_sharded_only) return;
  benchmark::RegisterBenchmark("service/tracing_overhead",
                               BM_TracingOverhead)
      ->Iterations(1)
      ->UseManualTime()
      ->Unit(benchmark::kMillisecond);
  for (int64_t contended : {int64_t{1}, int64_t{0}}) {
    for (int64_t coalesce : {int64_t{0}, int64_t{1}}) {
      benchmark::RegisterBenchmark("service/burst", BM_Burst)
          ->Args({coalesce, contended})
          ->Iterations(1)
          ->UseManualTime()
          ->Unit(benchmark::kMillisecond);
    }
  }
  std::vector<int64_t> rates = {500, 1500};
  if (g_full) rates = {250, 500, 1000, 2000};
  for (int64_t qps : rates) {
    for (int64_t coalesce : {int64_t{0}, int64_t{1}}) {
      benchmark::RegisterBenchmark("service/sustained", BM_Sustained)
          ->Args({coalesce, qps})
          ->Iterations(1)
          ->UseManualTime()
          ->Unit(benchmark::kMillisecond);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  g_full = ustdb::benchutil::ExtractFlag(&argc, argv, "--full");
  g_sharded_only = ustdb::benchutil::ExtractFlag(&argc, argv, "--sharded");
  g_tracing_only = ustdb::benchutil::ExtractFlag(&argc, argv, "--tracing");
  Register();
  return ustdb::benchutil::RunBenchMain(
      argc, argv, "service_throughput", "x (burst size / offered qps)",
      "burst makespan [ms] / achieved qps / p99 [ms]");
}
