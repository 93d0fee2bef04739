// Urban traffic monitoring — the paper's road-network scenario
// (Sections I, V-C, VIII).
//
// Vehicles move on a road network; the transition matrix is the
// row-normalized adjacency matrix exactly as in the paper's experimental
// setup. Different vehicle classes (cars / delivery trucks) follow
// different chains, which exercises the per-class query-based plan and the
// interval-Markov-chain cluster pruning of Section V-C. The headline query
// is the paper's own: "predict the number of cars that will be in a
// congested road segment after 10-15 minutes".
//
// Run:  ./build/examples/traffic_monitoring

#include <cstdio>

#include "ustdb.h"

using namespace ustdb;

int main() {
  // --- A mid-size urban road network (scaled-down Munich-like). ----------
  network::RoadGenConfig road_config;
  road_config.num_nodes = 4'000;
  road_config.num_edges = 5'100;     // urban density, avg degree ~2.55
  road_config.locality_window = 24;
  road_config.seed = 2026;
  auto roads = network::GenerateRoadNetwork(road_config).ValueOrDie();
  std::printf("road network: %u junctions, %u road segments (avg degree "
              "%.2f, connected=%s)\n",
              roads.num_nodes(), roads.num_edges(), roads.AverageDegree(),
              roads.IsConnected() ? "yes" : "no");

  // --- Motion models: cars and trucks turn with different preferences. ---
  // One shard holds the whole fleet; the service at the end routes it.
  util::Rng rng(7);
  core::ShardedDatabase db(core::ShardingOptions{.num_shards = 1});
  const ChainId cars = db.AddChain(roads.ToMarkovChain(&rng).ValueOrDie());
  // Trucks follow a perturbed version of the car model (same streets,
  // different turning probabilities) — the Section V-C class setting.
  const ChainId trucks = db.AddChain(
      workload::PerturbChain(db.routing_db().chain(cars), 0.4, &rng)
          .ValueOrDie());

  // --- The fleet: 300 cars + 100 trucks with GPS-uncertain positions. ----
  auto gps_fix = [&](uint32_t junction) {
    // A GPS fix places the vehicle at the junction or one of its
    // neighbours (measurement uncertainty).
    std::vector<std::pair<uint32_t, double>> pairs = {{junction, 3.0}};
    for (uint32_t n : roads.Neighbors(junction)) pairs.emplace_back(n, 1.0);
    return sparse::ProbVector::FromPairs(roads.num_nodes(), pairs,
                                         /*normalize=*/true)
        .ValueOrDie();
  };
  for (int i = 0; i < 300; ++i) {
    const uint32_t at =
        static_cast<uint32_t>(rng.NextBounded(roads.num_nodes()));
    (void)db.AddObjectAt(cars, gps_fix(at)).ValueOrDie();
  }
  for (int i = 0; i < 100; ++i) {
    const uint32_t at =
        static_cast<uint32_t>(rng.NextBounded(roads.num_nodes()));
    (void)db.AddObjectAt(trucks, gps_fix(at)).ValueOrDie();
  }
  std::printf("fleet: %u vehicles in %u classes\n\n", db.num_objects(),
              db.num_chains());
  // The bare executor runs over the shard's Database, whose ids are the
  // global ones.
  const core::Database& fleet = db.shard(0);

  // --- The congested segment and the 10-15 minute horizon. ---------------
  // One timestep = one minute. The congested area is a cluster of
  // junctions around a hotspot.
  const uint32_t hotspot = 1'500;
  std::vector<uint32_t> congested = {hotspot};
  for (uint32_t n : roads.Neighbors(hotspot)) {
    congested.push_back(n);
    for (uint32_t m : roads.Neighbors(n)) congested.push_back(m);
  }
  auto region =
      sparse::IndexSet::FromIndices(roads.num_nodes(), congested)
          .ValueOrDie();
  auto window =
      core::QueryWindow::Create(region, {10, 11, 12, 13, 14, 15})
          .ValueOrDie();
  std::printf("congested region: %u junctions, horizon t=10..15 min\n",
              region.size());

  // --- Paper query: expected number of vehicles in the segment. ----------
  // The executor picks the plan per vehicle class (both classes are large,
  // so the cost model lands on the amortized query-based pass) and fans the
  // per-object work across the hardware threads.
  core::QueryExecutor executor(&fleet);
  util::Stopwatch timer;
  const auto result =
      executor.Run({.predicate = core::PredicateKind::kExists,
                    .window = window})
          .ValueOrDie();
  double expected_vehicles = 0.0;
  uint32_t possibly_there = 0;
  for (const auto& r : result.probabilities) {
    expected_vehicles += r.probability;
    possibly_there += (r.probability > 0.0);
  }
  std::printf("\nPST-Exists over the whole fleet (%u QB classes, %u threads, "
              "%.1f ms):\n",
              result.stats.chains_query_based, result.stats.threads_used,
              timer.ElapsedMillis());
  std::printf("  vehicles with non-zero probability : %u\n", possibly_there);
  std::printf("  expected vehicles in segment       : %.2f\n",
              expected_vehicles);

  // --- Threshold query with cluster pruning (Section V-C). ----------------
  // kBoundsThenRefine bounds whole chain clusters (the database's
  // similarity registry) with interval envelopes and refines only the
  // undecided vehicles; under kAuto the planner engages it on its own
  // once chain classes are numerous and similar.
  timer.Restart();
  const auto threshold_result =
      executor
          .Run({.predicate = core::PredicateKind::kThresholdExists,
                .window = window,
                .tau = 0.10,
                .plan = core::PlanChoice::kBoundsThenRefine})
          .ValueOrDie();
  const core::PruneStats& stats = threshold_result.stats.prune;
  std::printf("\nthreshold query tau=0.10 with interval-chain clustering "
              "(%.1f ms):\n",
              timer.ElapsedMillis());
  std::printf("  qualifying vehicles: %zu\n",
              threshold_result.probabilities.size());
  std::printf("  clusters pruned wholesale: %u / %u, objects decided by "
              "bounds: %u, refined: %u\n",
              stats.clusters_pruned, stats.clusters_total,
              stats.objects_decided_by_bounds, stats.objects_refined);

  // --- Top-k: which vehicles to reroute first. ----------------------------
  // Same pipeline, different predicate — and the backward passes computed
  // for the exists query above are served from the executor's engine cache.
  const auto top = executor
                       .Run({.predicate = core::PredicateKind::kTopKExists,
                             .window = window,
                             .k = 5})
                       .ValueOrDie()
                       .probabilities;
  std::printf("\ntop-5 vehicles by congestion probability (cache hits so "
              "far: %llu):\n",
              static_cast<unsigned long long>(executor.cache_stats().hits));
  for (const auto& r : top) {
    std::printf("  vehicle %3u (%s): %.4f\n", r.id,
                fleet.object(r.id).chain == cars ? "car  " : "truck",
                r.probability);
  }

  // --- Dwell time in the jam (PSTkQ). -------------------------------------
  if (!top.empty()) {
    const auto ktimes =
        executor
            .Run({.predicate = core::PredicateKind::kKTimes, .window = window})
            .ValueOrDie();
    const auto& dist = ktimes.distributions[top[0].id].distribution;
    std::printf("\ndwell-time distribution of vehicle %u (minutes inside "
                "during t=10..15):\n",
                top[0].id);
    for (size_t k = 0; k < dist.size(); ++k) {
      if (dist[k] > 5e-4) std::printf("  P(%zu min) = %.4f\n", k, dist[k]);
    }
  }

  // --- Observability: where did a slow request's time go? -----------------
  // A monitoring deployment serves these queries through the async
  // QueryService, which traces every Nth request and keeps the slowest in
  // a ring. The warm dashboard windows are served from the engine cache;
  // a dispatcher moving the watch region (a cache-cold window) pays the
  // full backward pass — the trace shows exactly where.
  std::printf("\n=== observability walkthrough ===\n");
  obs::MetricsRegistry registry;
  service::ServiceOptions service_options;
  service_options.obs.registry = &registry;
  service_options.obs.trace_sample_every = 1;  // trace everything (demo)
  service_options.obs.slow_query_ring = 4;
  service::QueryService service(&db, service_options);

  // Warm traffic: the dashboard re-issuing its watch window.
  for (int i = 0; i < 8; ++i) {
    (void)service
        .Submit({.predicate = core::PredicateKind::kExists, .window = window})
        .Get();
  }

  // The induced cache-cold request: a new hotspot, never queried before,
  // with an explicitly attached trace.
  std::vector<uint32_t> moved;
  const uint32_t new_hotspot = 2'700;
  moved.push_back(new_hotspot);
  for (uint32_t n : roads.Neighbors(new_hotspot)) moved.push_back(n);
  auto cold_window =
      core::QueryWindow::Create(
          sparse::IndexSet::FromIndices(roads.num_nodes(), moved)
              .ValueOrDie(),
          {10, 11, 12, 13, 14, 15})
          .ValueOrDie();
  auto cold_trace = std::make_shared<obs::QueryTrace>();
  core::QueryRequest cold_request;
  cold_request.predicate = core::PredicateKind::kExists;
  cold_request.window = cold_window;
  cold_request.trace = cold_trace;
  (void)service.Submit(std::move(cold_request)).Get();

  std::printf("\ncache-cold request trace (moved watch region, full "
              "backward pass):\n%s",
              cold_trace->Format().c_str());

  std::printf("\nslow-query ring (the %zu slowest traced requests):\n",
              service.slow_queries().size());
  for (const service::SlowQuery& slow : service.slow_queries()) {
    double evaluate_s = 0.0;
    double build_s = 0.0;
    for (const obs::TraceSpan& span : slow.spans) {
      if (span.stage == obs::Stage::kEvaluate) evaluate_s += span.seconds();
      if (span.stage == obs::Stage::kEngineBuild) build_s += span.seconds();
    }
    std::printf("  %.2f ms  spans=%zu  build=%.2f ms  evaluate=%.2f ms\n",
                slow.latency_ms, slow.spans.size(), build_s * 1e3,
                evaluate_s * 1e3);
  }

  // Full exposition includes per-bucket histogram series; elide them
  // here so the demo output stays readable (a scrape endpoint would
  // serve the string unfiltered).
  std::printf("\nmetrics snapshot (Prometheus exposition, buckets "
              "elided):\n");
  const std::string exposition =
      obs::WritePrometheusText(registry.Snapshot());
  size_t line_start = 0;
  while (line_start < exposition.size()) {
    size_t line_end = exposition.find('\n', line_start);
    if (line_end == std::string::npos) line_end = exposition.size();
    const std::string line =
        exposition.substr(line_start, line_end - line_start);
    if (line.find("_bucket{") == std::string::npos) {
      std::printf("%s\n", line.c_str());
    }
    line_start = line_end + 1;
  }
  return 0;
}
