// Iceberg monitoring — the paper's motivating application (Section I),
// run the way a monitoring deployment actually runs it: a QueryService
// with a *standing* lane-watch query, fed by observation ingest.
//
// The International Ice Patrol tracks icebergs drifting with the Labrador
// Current near the Grand Banks. Observations (from ships, aircraft, buoys)
// are sparse and uncertain; between observations the position must be
// inferred from a drift model. This example:
//
//   1. builds a 2-D ocean grid whose transition kernel follows a
//      south-eastward current that strengthens offshore,
//   2. registers several icebergs with uncertain initial sightings,
//   3. subscribes a standing PST∃Q watch on the shipping lane —
//        - "which icebergs have non-zero probability to enter the shipping
//           lane during the crossing window?"          (PST∃Q, Def. 2)
//      delivered as answer-set deltas instead of re-polled answers,
//   4. answers the one-shot companions through the same service:
//        - "which icebergs will stay inside a survey region long enough
//           for measurements?"                          (PST∀Q, Def. 3)
//        - "for how many of the crossing days will iceberg B sit inside
//           the lane?"                                  (PSTkQ, Def. 4)
//   5. ingests a second sighting of iceberg B (Section VI) and lets the
//      refresh round deliver the revised forecast as a `changed` delta —
//      no cache flush, no re-subscription, no client-side diffing.
//
// Run:  ./build/examples/iceberg_monitoring

#include <cstdio>

#include "ustdb.h"

using namespace ustdb;

namespace {

/// Labrador-current-like field: everything drifts south-east; the drift is
/// stronger in the east (offshore), dispersion higher near the coast.
geo::Drift Current(geo::Cell c) {
  const double offshore = static_cast<double>(c.x) / 40.0;
  return {0.4 + 0.4 * offshore, 0.5, 0.7 + 0.2 * offshore};
}

/// Prints one delivered delta the way an alerting pipeline would consume
/// it: sequence + data epoch, then each membership transition.
void PrintDelta(const service::SubscriptionDelta& delta) {
  std::printf("  [delta seq=%llu epoch=%llu]\n",
              static_cast<unsigned long long>(delta.sequence),
              static_cast<unsigned long long>(delta.epoch));
  for (const auto& p : delta.entered) {
    std::printf("    iceberg %c entered the watch set: P = %.4f%s\n",
                'A' + p.id, p.probability,
                p.probability > 1e-4 ? "  << alert the convoy" : "");
  }
  for (const auto& p : delta.changed) {
    std::printf("    iceberg %c forecast revised:      P = %.4f\n",
                'A' + p.id, p.probability);
  }
  for (const ObjectId id : delta.left) {
    std::printf("    iceberg %c left the watch set\n", 'A' + id);
  }
  if (delta.entered.empty() && delta.changed.empty() && delta.left.empty()) {
    std::printf("    (no membership change)\n");
  }
}

}  // namespace

int main() {
  // --- The ocean: a 40 x 30 raster, one state per cell. -----------------
  geo::Grid2D ocean = geo::Grid2D::Create(40, 30).ValueOrDie();
  auto chain = geo::BuildDriftChain(ocean, Current, /*radius=*/2)
                   .ValueOrDie();
  std::printf("ocean grid: %ux%u cells -> %u states, drift chain nnz=%llu\n",
              ocean.width(), ocean.height(), ocean.num_states(),
              static_cast<unsigned long long>(chain.matrix().nnz()));

  // --- The fleet database: icebergs with uncertain sightings. -----------
  // One shard: a fleet this size needs no more than one executor.
  core::ShardedDatabase db(core::ShardingOptions{.num_shards = 1});
  const ChainId drift = db.AddChain(std::move(chain));

  // Sightings are uncertain: a disk of cells around the reported position.
  auto sighting = [&](geo::Cell at, double radius) {
    return sparse::ProbVector::UniformOver(
               ocean.Disk(at, radius).ValueOrDie())
        .ValueOrDie();
  };
  const ObjectId berg_a =
      db.AddObjectAt(drift, sighting({6, 4}, 1.5)).ValueOrDie();
  const ObjectId berg_b =
      db.AddObjectAt(drift, sighting({14, 8}, 2.0)).ValueOrDie();
  const ObjectId berg_c =
      db.AddObjectAt(drift, sighting({30, 24}, 1.0)).ValueOrDie();
  std::printf("registered icebergs A=%u B=%u C=%u\n\n", berg_a, berg_b,
              berg_c);

  // One service owns the whole monitoring session: the executor + engine
  // cache behind it, the ingest path (mutable database pointer), and the
  // standing subscriptions. Repeated and slid windows hit its cache.
  service::QueryService service(&db);

  // --- Standing query: PST∃Q watch on the shipping lane. -----------------
  // The great-circle lane crosses the grid as a horizontal band; a convoy
  // transits during timestamps 8..14. WindowPolicy{.slide = 0} pins the
  // window to the crossing — the subscription refreshes when ingest
  // touches its answer, not on a clock.
  auto lane_states = ocean.Rectangle(10, 12, 34, 15).ValueOrDie();
  auto lane_window =
      core::QueryWindow::Create(lane_states, {8, 9, 10, 11, 12, 13, 14})
          .ValueOrDie();
  core::QueryRequest lane_watch;
  lane_watch.predicate = core::PredicateKind::kExists;
  lane_watch.window = lane_window;
  service::Subscription watch =
      service
          .Subscribe(lane_watch, service::WindowPolicy{.slide = 0},
                     PrintDelta)
          .ValueOrDie();

  std::printf("PST-Exists lane watch (t=8..14), first refresh:\n");
  service.RefreshSubscriptions();  // first delivery: full set as `entered`

  // --- One-shot 1: PST∀Q for a survey region. ---------------------------
  // The IIP wants icebergs that will *remain* inside a survey box for all
  // of t = 5..8 so a research vessel can take measurements (Section III's
  // example use-case for the for-all query). One-shots ride the same
  // service: submit, hold the ticket, block on Get().
  auto survey_states = ocean.Rectangle(12, 8, 24, 18).ValueOrDie();
  auto survey_window =
      core::QueryWindow::Create(survey_states, {5, 6, 7, 8}).ValueOrDie();
  std::printf("\nPST-ForAll: P(stay in survey box for all t=5..8)\n");
  const auto survey_result =
      service
          .Submit({.predicate = core::PredicateKind::kForAll,
                   .window = survey_window})
          .Get()
          .ValueOrDie();
  for (const auto& r : survey_result.probabilities) {
    std::printf("  iceberg %c: %.4f%s\n", 'A' + r.id, r.probability,
                r.probability > 0.5 ? "  << schedule measurements" : "");
  }

  // --- One-shot 2: PSTkQ — exposure duration of iceberg B. --------------
  std::printf("\nPST-k-Times: days iceberg B spends in the lane (t=8..14)\n");
  const auto ktimes =
      service
          .Submit({.predicate = core::PredicateKind::kKTimes,
                   .window = lane_window})
          .Get()
          .ValueOrDie();
  const auto& dist = ktimes.distributions[berg_b].distribution;
  for (size_t k = 0; k < dist.size(); ++k) {
    if (dist[k] > 5e-4) std::printf("  P(%zu days) = %.4f\n", k, dist[k]);
  }

  // --- Ingest: a second sighting revises the forecast (Section VI). -----
  // An aircraft re-sights iceberg B at t=6, further north than the drift
  // model expected. AppendObservation re-weights B's possible worlds
  // (interpolation happens inside the engine), bumps the data version,
  // lazily invalidates exactly the cached passes B's chain backs, and
  // marks the lane watch dirty — the next refresh round delivers the
  // revision as a `changed` delta against the previous answer set.
  const DataVersion version =
      service.AppendObservation(berg_b, {6, sighting({18, 9}, 1.5)})
          .ValueOrDie();
  std::printf("\nre-sighting of iceberg B at t=6 ingested"
              " (data version %llu)\n",
              static_cast<unsigned long long>(version));
  std::printf("lane watch after ingest:\n");
  service.RefreshSubscriptions();

  watch.Cancel();
  return 0;
}
