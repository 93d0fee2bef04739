// Section VI through the executor. A multi-observation object whose
// observations all lie at or before the window's first time t_b is answered
// with one dot product α(t_b) · head: α(t_b) is its filtered distribution
// and the head the query-based backward pass's vector at t_b. This suite
// pins that path to the doubled-state MultiObservationEngine (within
// 1e-12) and to exact possible worlds. It proves the answers bit-identical
// however the head was obtained: kept by a cold pass, shared along a
// shift-extension chain, rebuilt for a cached headless pass, or read at 1,
// 2 and 4 shards. Every other object must keep the doubled-state engine.
// It also holds the regression for deferred normalization on long
// histories.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/database.h"
#include "core/executor.h"
#include "core/multi_observation.h"
#include "core/query_based.h"
#include "core/query_request.h"
#include "core/query_window.h"
#include "core/shard_router.h"
#include "exact/possible_worlds.h"
#include "obs/trace.h"
#include "service/query_service.h"
#include "sparse/index_set.h"
#include "sparse/prob_vector.h"
#include "testing/random_models.h"
#include "testing/sharded_fixture.h"
#include "testing/test_seed.h"
#include "util/rng.h"
#include "workload/synthetic.h"

namespace ustdb {
namespace core {
namespace {

using ::ustdb::testing::MakeShardedPair;
using ::ustdb::testing::RandomChain;
using ::ustdb::testing::RandomDistribution;
using ::ustdb::testing::ShardedPair;
using ::ustdb::testing::ShardedSpec;

constexpr double kParity = 1e-12;
constexpr auto kGetTimeout = std::chrono::milliseconds(60'000);

/// One step of the chain from `s`, drawn by the row's weights.
StateIndex Step(const markov::MarkovChain& chain, StateIndex s,
                util::Rng* rng) {
  const auto cols = chain.matrix().RowIndices(s);
  const auto vals = chain.matrix().RowValues(s);
  double u = rng->NextDouble();
  for (size_t k = 0; k + 1 < cols.size(); ++k) {
    if (u < vals[k]) return cols[k];
    u -= vals[k];
  }
  return cols.back();
}

/// An observation of true state `s`: exact, or spread over `s` and two
/// other states. Either way it contains the truth, so a history of them
/// never rules out every world.
Observation Observe(uint32_t n, StateIndex s, Timestamp t, bool exact,
                    util::Rng* rng) {
  std::vector<std::pair<uint32_t, double>> pairs{{s, 0.5 + rng->NextDouble()}};
  if (!exact) {
    for (int k = 0; k < 2; ++k) {
      const auto other = static_cast<uint32_t>(rng->NextBounded(n));
      if (other != s) pairs.emplace_back(other, rng->NextDouble() + 0.01);
    }
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end(),
                          [](const auto& a, const auto& b) {
                            return a.first == b.first;
                          }),
              pairs.end());
  return {t, sparse::ProbVector::FromPairs(n, std::move(pairs),
                                           /*normalize=*/true)
                 .ValueOrDie()};
}

/// A history observed along one simulated trajectory from a random start,
/// at the given strictly increasing times.
std::vector<Observation> History(const markov::MarkovChain& chain,
                                 const std::vector<Timestamp>& times,
                                 util::Rng* rng) {
  const uint32_t n = chain.num_states();
  StateIndex s = static_cast<StateIndex>(rng->NextBounded(n));
  std::vector<Observation> history;
  Timestamp t = 0;
  for (Timestamp at : times) {
    for (; t < at; ++t) s = Step(chain, s, rng);
    history.push_back(Observe(n, s, at, rng->NextBounded(2) == 0, rng));
  }
  return history;
}

/// Up to `count` strictly increasing times in [lo, hi], `hi` included when
/// `end_at_hi`.
std::vector<Timestamp> Times(Timestamp lo, Timestamp hi, uint32_t count,
                             bool end_at_hi, util::Rng* rng) {
  std::set<Timestamp> picked;
  if (end_at_hi) picked.insert(hi);
  while (picked.size() < count) {
    picked.insert(static_cast<Timestamp>(rng->NextInRange(lo, hi)));
  }
  return {picked.begin(), picked.end()};
}

/// A random window: `region_size` states; times from t_begin, contiguous
/// or with gaps.
QueryWindow RandomWindow(uint32_t n, uint32_t region_size, Timestamp t_begin,
                         bool contiguous, util::Rng* rng) {
  const auto idx = rng->SampleWithoutReplacement(n, region_size);
  std::vector<uint32_t> region(idx.begin(), idx.end());
  std::sort(region.begin(), region.end());
  std::vector<Timestamp> times{t_begin};
  const Timestamp span = static_cast<Timestamp>(rng->NextInRange(1, 5));
  for (Timestamp t = t_begin + 1; t <= t_begin + span; ++t) {
    if (contiguous || rng->NextBounded(2) == 0) times.push_back(t);
  }
  return QueryWindow::Create(
             sparse::IndexSet::FromIndices(n, std::move(region)).ValueOrDie(),
             std::move(times))
      .ValueOrDie();
}

ExecutorOptions Threads(unsigned num_threads) {
  ExecutorOptions options;
  options.num_threads = num_threads;
  return options;
}

/// The executor span detail of `stage` (the first such span).
std::string Detail(const obs::QueryTrace& trace, obs::Stage stage) {
  for (const obs::TraceSpan& span : trace.spans()) {
    if (span.stage == stage) return span.detail;
  }
  return "";
}

/// via_head of a trace's evaluate span; -1 when absent.
int ViaHead(const obs::QueryTrace& trace) {
  const std::string detail = Detail(trace, obs::Stage::kEvaluate);
  const size_t at = detail.find("via_head=");
  if (at == std::string::npos) return -1;
  return std::atoi(detail.c_str() + at + 9);
}

std::map<ObjectId, double> ById(const QueryResult& result) {
  std::map<ObjectId, double> out;
  for (const ObjectProbability& p : result.probabilities) {
    out[p.id] = p.probability;
  }
  return out;
}

/// The doubled-state reference P∃ of `obj` over `window`.
double Reference(const Database& db, ObjectId id, const QueryWindow& window) {
  const UncertainObject& obj = db.object(id);
  MultiObservationEngine engine(&db.chain(obj.chain), window);
  return engine.Evaluate(obj.observations).ValueOrDie().exists_probability;
}

// --- Regression: deferred normalization on a long history. ---------------

TEST(ExecutorMultiObservationTest, LongExactHistoryReadsOne) {
  // 80 consecutive exact, reachable observations (the most likely path from
  // state 500) of a 1,000-state chain. The trajectory is fully known, so a
  // window over an observed state answers exactly 1. Deferred normalization
  // let Compact() drop the shrinking mass and reported the history
  // inconsistent at t=40. The windows end inside the history, so the
  // doubled-state engine answers, not the head.
  workload::SyntheticConfig config;
  config.num_states = 1000;
  config.state_spread = 3;
  config.max_step = 24;
  util::Rng rng(7);
  Database db;
  const ChainId chain =
      db.AddChain(workload::GenerateChain(config, &rng).ValueOrDie());
  std::vector<StateIndex> path{500};
  std::vector<Observation> history;
  for (Timestamp t = 0; t < 80; ++t) {
    if (t > 0) {
      const auto cols = db.chain(chain).matrix().RowIndices(path.back());
      const auto vals = db.chain(chain).matrix().RowValues(path.back());
      const size_t best = static_cast<size_t>(
          std::max_element(vals.begin(), vals.end()) - vals.begin());
      path.push_back(cols[best]);
    }
    history.push_back(
        {t, sparse::ProbVector::Delta(config.num_states, path.back())});
  }
  const ObjectId id = db.AddObject(chain, history).ValueOrDie();

  QueryExecutor exec(&db, Threads(1));
  for (Timestamp t = 40; t <= 43; ++t) {
    SCOPED_TRACE("region = state observed at t=" + std::to_string(t));
    QueryRequest request;
    request.predicate = PredicateKind::kExists;
    request.window = QueryWindow::FromRanges(config.num_states, path[t],
                                             path[t], 40, 43)
                         .ValueOrDie();
    request.trace = std::make_shared<obs::QueryTrace>();
    const auto result = exec.Run(request);
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_EQ(result.value().probabilities.size(), 1u);
    EXPECT_EQ(result.value().probabilities[0].id, id);
    EXPECT_EQ(result.value().probabilities[0].probability, 1.0);
    EXPECT_EQ(ViaHead(*request.trace), 0);

    MultiObservationEngine engine(&db.chain(chain), request.window);
    const auto direct = engine.Evaluate(history);
    ASSERT_TRUE(direct.ok()) << direct.status();
    EXPECT_EQ(direct.value().exists_probability, 1.0);
  }
}

// --- The head itself. -----------------------------------------------------

TEST(ExecutorMultiObservationTest, KeptHeadEqualsHeadPassAndIsShared) {
  const uint64_t seed = ustdb::testing::TestSeed(1601);
  SCOPED_TRACE(ustdb::testing::SeedTrace(seed));
  util::Rng rng(seed);
  for (int round = 0; round < 20; ++round) {
    const uint32_t n = 10 + static_cast<uint32_t>(rng.NextBounded(40));
    const markov::MarkovChain chain = RandomChain(n, 3, &rng);
    const QueryWindow window = RandomWindow(
        n, 1 + n / 5, static_cast<Timestamp>(rng.NextInRange(0, 6)),
        round % 2 == 0, &rng);
    const QueryBasedEngine kept(&chain, window, {.keep_head = true});
    ASSERT_NE(kept.head(), nullptr);
    EXPECT_EQ(kept.head()->MaxAbsDiff(
                  QueryBasedEngine::HeadPass(&chain, window)),
              0.0)
        << "round " << round;
    const QueryBasedEngine plain(&chain, window);
    EXPECT_EQ(plain.head(), nullptr);
    // Same answer either way: keeping the head never perturbs the pass.
    EXPECT_EQ(kept.start_vector().MaxAbsDiff(plain.start_vector()), 0.0);

    const Timestamp delta = static_cast<Timestamp>(rng.NextInRange(1, 4));
    const QueryBasedEngine shifted(kept, window.ShiftedBy(delta), delta);
    EXPECT_EQ(shifted.head(), kept.head()) << "extension shares the head";
    const QueryBasedEngine from_headless(plain, window.ShiftedBy(delta), delta,
                                         /*keep_head=*/true);
    ASSERT_NE(from_headless.head(), nullptr);
    EXPECT_EQ(from_headless.head()->MaxAbsDiff(*kept.head()), 0.0);
    const QueryBasedEngine cold(&chain, window.ShiftedBy(delta),
                                {.keep_head = true});
    EXPECT_EQ(cold.head()->MaxAbsDiff(*kept.head()), 0.0);
  }
}

// --- Parity against the doubled-state engine. -----------------------------

/// Randomized database of one chain: single-observation objects at t=0 and
/// multi-observation ones whose histories end at or before `t_begin`
/// (some exactly at it, some a single observation at t > 0).
struct Population {
  Database db;
  std::vector<ObjectId> multi;
};

Population MakePopulation(uint32_t n, Timestamp t_begin, util::Rng* rng) {
  Population p;
  const ChainId chain = p.db.AddChain(RandomChain(n, 3, rng));
  for (int i = 0; i < 6; ++i) {
    (void)p.db.AddObjectAt(chain, RandomDistribution(n, 3, rng)).ValueOrDie();
  }
  for (int i = 0; i < 12; ++i) {
    const uint32_t count = std::min<uint32_t>(
        1 + static_cast<uint32_t>(rng->NextBounded(4)), t_begin);
    // A lone observation lies after t = 0, else the object is a Section V
    // one.
    const std::vector<Timestamp> times =
        Times(count == 1 || i % 3 == 0 ? 1 : 0, t_begin, count,
              /*end_at_hi=*/i % 4 == 0, rng);
    p.multi.push_back(
        p.db.AddObject(chain, History(p.db.chain(chain), times, rng))
            .ValueOrDie());
  }
  return p;
}

TEST(ExecutorMultiObservationTest, HeadAnswersMatchDoubledStateEngine) {
  const uint64_t seed = ustdb::testing::TestSeed(1602);
  SCOPED_TRACE(ustdb::testing::SeedTrace(seed));
  util::Rng rng(seed);
  double worst = 0.0;
  for (int round = 0; round < 24; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const uint32_t n = 12 + static_cast<uint32_t>(rng.NextBounded(36));
    const Timestamp t_begin = static_cast<Timestamp>(rng.NextInRange(2, 7));
    Population p = MakePopulation(n, t_begin, &rng);
    const QueryWindow window =
        RandomWindow(n, 1 + n / 4, t_begin, round % 3 != 0, &rng);
    QueryExecutor exec(&p.db, Threads(1 + static_cast<unsigned>(round % 3)));

    struct Case {
      PredicateKind predicate;
      PlanChoice plan;
    };
    const Case cases[] = {
        {PredicateKind::kExists, PlanChoice::kQueryBased},
        {PredicateKind::kExists, PlanChoice::kObjectBased},
        {PredicateKind::kForAll, PlanChoice::kAuto},
        {PredicateKind::kThresholdExists, PlanChoice::kAuto},
        {PredicateKind::kThresholdExists, PlanChoice::kBoundsThenRefine},
        {PredicateKind::kTopKExists, PlanChoice::kAuto}};
    for (const Case& c : cases) {
      SCOPED_TRACE("predicate " +
                   std::to_string(static_cast<int>(c.predicate)) + " plan " +
                   std::to_string(static_cast<int>(c.plan)));
      QueryRequest request;
      request.predicate = c.predicate;
      request.plan = c.plan;
      request.window = window;
      request.tau = 0.3;
      request.k = p.db.num_objects();
      request.trace = std::make_shared<obs::QueryTrace>();
      const auto result = exec.Run(request);
      ASSERT_TRUE(result.ok()) << result.status();
      EXPECT_EQ(ViaHead(*request.trace), static_cast<int>(p.multi.size()));
      EXPECT_EQ(result.value().stats.objects_multi_observation,
                p.multi.size());
      if (c.plan == PlanChoice::kBoundsThenRefine &&
          window.has_contiguous_times()) {
        // The refine set carries every multi-observation object.
        EXPECT_GT(result.value().stats.prune.clusters_bounded, 0u);
      }

      const bool forall = c.predicate == PredicateKind::kForAll;
      const QueryWindow effective =
          forall ? window.WithComplementRegion() : window;
      const std::map<ObjectId, double> got = ById(result.value());
      for (ObjectId id : p.multi) {
        const double exists = Reference(p.db, id, effective);
        const double want = forall ? 1.0 - exists : exists;
        if (c.predicate == PredicateKind::kThresholdExists) {
          if (std::abs(want - request.tau) <= kParity) continue;
          ASSERT_EQ(got.count(id), want >= request.tau ? 1u : 0u)
              << "object " << id;
          if (want < request.tau) continue;
        }
        ASSERT_EQ(got.count(id), 1u) << "object " << id;
        const double diff = std::abs(got.at(id) - want);
        worst = std::max(worst, diff);
        EXPECT_LE(diff, kParity) << "object " << id;
      }
    }
  }
  char worst_text[32];
  std::snprintf(worst_text, sizeof(worst_text), "%.3g", worst);
  RecordProperty("worst_abs_diff", worst_text);
}

TEST(ExecutorMultiObservationTest, HeadAnswersMatchPossibleWorlds) {
  const uint64_t seed = ustdb::testing::TestSeed(1603);
  SCOPED_TRACE(ustdb::testing::SeedTrace(seed));
  util::Rng rng(seed);
  for (int round = 0; round < 16; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const uint32_t n = 4 + static_cast<uint32_t>(rng.NextBounded(2));
    const Timestamp t_begin = static_cast<Timestamp>(rng.NextInRange(2, 4));
    Database db;
    const ChainId chain = db.AddChain(RandomChain(n, 2, &rng));
    std::vector<ObjectId> ids;
    for (int i = 0; i < 4; ++i) {
      const uint32_t count = 1 + static_cast<uint32_t>(rng.NextBounded(3));
      const std::vector<Timestamp> times =
          Times(count == 1 ? 1 : 0, t_begin, count, /*end_at_hi=*/i == 0,
                &rng);
      ids.push_back(
          db.AddObject(chain, History(db.chain(chain), times, &rng))
              .ValueOrDie());
    }
    const QueryWindow window =
        RandomWindow(n, 1 + static_cast<uint32_t>(rng.NextBounded(2)), t_begin,
                     round % 2 == 0, &rng);
    QueryExecutor exec(&db, Threads(1));
    for (PredicateKind predicate :
         {PredicateKind::kExists, PredicateKind::kForAll}) {
      QueryRequest request;
      request.predicate = predicate;
      request.window = window;
      request.trace = std::make_shared<obs::QueryTrace>();
      const auto result = exec.Run(request);
      ASSERT_TRUE(result.ok()) << result.status();
      EXPECT_EQ(ViaHead(*request.trace), static_cast<int>(ids.size()));
      const bool forall = predicate == PredicateKind::kForAll;
      const QueryWindow effective =
          forall ? window.WithComplementRegion() : window;
      const std::map<ObjectId, double> got = ById(result.value());
      for (ObjectId id : ids) {
        const double exists = exact::MultiObsExistsByEnumeration(
                                  db.chain(chain), db.object(id).observations,
                                  effective)
                                  .ValueOrDie();
        EXPECT_NEAR(got.at(id), forall ? 1.0 - exists : exists, kParity)
            << "object " << id;
      }
    }
  }
}

// --- Bit-identity however the head was obtained. --------------------------

/// A sharded pair whose every fifth object gained observations at t = 1..3,
/// drawn along a trajectory from a state of its initial pdf, so windows
/// from t = 3 on read heads. Objects are dealt round-robin over six chains,
/// so every chain holds both kinds of object.
ShardedPair MakeObservedPair(uint32_t shards, uint64_t seed,
                             std::vector<ObjectId>* multi) {
  ShardedSpec spec;
  spec.num_objects = 60;
  spec.seed = seed;
  ShardedPair pair = MakeShardedPair(spec, shards);
  util::Rng rng(seed ^ 0x0B5);
  const uint32_t n = spec.num_states;
  for (ObjectId id = 0; id < pair.unsharded.num_objects(); id += 5) {
    const UncertainObject& obj = pair.unsharded.object(id);
    StateIndex s = 0;
    obj.initial_pdf().ForEachNonZero([&](uint32_t state, double) {
      s = state;
    });
    const Timestamp last = 1 + static_cast<Timestamp>(rng.NextBounded(3));
    for (Timestamp t = 1; t <= last; ++t) {
      s = Step(pair.unsharded.chain(obj.chain), s, &rng);
      const Observation o = Observe(n, s, t, t % 2 == 0, &rng);
      (void)pair.unsharded.AppendObservation(id, o).ValueOrDie();
      (void)pair.sharded.AppendObservation(id, o).ValueOrDie();
    }
    multi->push_back(id);
  }
  return pair;
}

QueryRequest Standing(Timestamp shift) {
  QueryRequest request;
  request.predicate = PredicateKind::kExists;
  request.plan = PlanChoice::kQueryBased;
  request.window =
      QueryWindow::FromRanges(30, 6, 17, 3, 7).ValueOrDie().ShiftedBy(shift);
  return request;
}

void ExpectBitIdentical(const std::map<ObjectId, double>& got,
                        const std::map<ObjectId, double>& want,
                        const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (const auto& [id, p] : want) {
    ASSERT_EQ(got.count(id), 1u) << what << ": object " << id;
    EXPECT_EQ(got.at(id), p) << what << ": object " << id;
  }
}

TEST(ExecutorMultiObservationTest, HeadSourcesAreBitIdentical) {
  const uint64_t seed = ustdb::testing::TestSeed(1604);
  SCOPED_TRACE(ustdb::testing::SeedTrace(seed));
  std::vector<ObjectId> multi;
  ShardedPair pair = MakeObservedPair(1, seed, &multi);
  const Database& db = pair.unsharded;
  std::vector<ObjectId> singles;
  for (ObjectId id = 0; id < db.num_objects(); ++id) {
    if (!db.object(id).needs_multi_observation_engine()) singles.push_back(id);
  }

  for (Timestamp shift = 0; shift <= 2; ++shift) {
    SCOPED_TRACE("shift " + std::to_string(shift));
    // Cold: every pass built by this batch keeps its head.
    QueryExecutor cold(&db, Threads(2));
    QueryRequest request = Standing(shift);
    request.trace = std::make_shared<obs::QueryTrace>();
    const auto want = cold.Run(request);
    ASSERT_TRUE(want.ok()) << want.status();
    EXPECT_EQ(ViaHead(*request.trace), static_cast<int>(multi.size()));
    const std::map<ObjectId, double> reference = ById(want.value());

    // A cache of headless passes: a singles-only request builds them, the
    // full request then borrows each and builds its head beside it.
    QueryExecutor headless(&db, Threads(2));
    QueryRequest only_singles = Standing(shift);
    only_singles.object_filter = singles;
    ASSERT_TRUE(headless.Run(only_singles).ok());
    const auto borrowed = headless.Run(Standing(shift));
    ASSERT_TRUE(borrowed.ok()) << borrowed.status();
    EXPECT_EQ(borrowed.value().stats.cache_hits, db.num_chains());
    EXPECT_EQ(borrowed.value().stats.cache_misses, 0u);
    ExpectBitIdentical(ById(borrowed.value()), reference, "borrowed headless");

    // A shift extension of a headless base builds the head it lacks.
    if (shift > 0) {
      QueryExecutor extended(&db, Threads(2));
      QueryRequest before = Standing(0);
      before.object_filter = singles;
      ASSERT_TRUE(extended.Run(before).ok());
      const auto slid = extended.Run(Standing(shift));
      ASSERT_TRUE(slid.ok()) << slid.status();
      EXPECT_EQ(slid.value().stats.cache_shift_extends, db.num_chains());
      ExpectBitIdentical(ById(slid.value()), reference,
                         "extended headless base");
    }

    // Object-based single-observation plan: no pass at all, a HeadPass
    // answers the multi-observation objects.
    QueryRequest object_based = Standing(shift);
    object_based.plan = PlanChoice::kObjectBased;
    const auto ob = cold.Run(object_based);
    ASSERT_TRUE(ob.ok()) << ob.status();
    std::map<ObjectId, double> ob_multi;
    std::map<ObjectId, double> want_multi;
    for (ObjectId id : multi) {
      ob_multi[id] = ById(ob.value()).at(id);
      want_multi[id] = reference.at(id);
    }
    ExpectBitIdentical(ob_multi, want_multi, "object-based plan");
  }
}

TEST(ExecutorMultiObservationTest, ServiceAnswersAreBitIdenticalAcrossShards) {
  const uint64_t seed = ustdb::testing::TestSeed(1605);
  SCOPED_TRACE(ustdb::testing::SeedTrace(seed));
  for (uint32_t shards : {1u, 2u, 4u}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    std::vector<ObjectId> multi;
    ShardedPair pair = MakeObservedPair(shards, seed, &multi);
    QueryExecutor cold_exec(&pair.unsharded, Threads(1));
    const auto cold = [&](Timestamp shift) {
      return ById(cold_exec.Run(Standing(shift)).ValueOrDie());
    };

    service::QueryService svc(&pair.sharded);
    // One-shot submission, scattered over the shards.
    service::QueryTicket ticket = svc.Submit(Standing(0));
    ASSERT_TRUE(ticket.WaitFor(kGetTimeout));
    const auto one_shot = ticket.Get();
    ASSERT_TRUE(one_shot.ok()) << one_shot.status();
    ExpectBitIdentical(ById(one_shot.value()), cold(0), "one-shot");

    // A standing query slid by ticks: each refresh extends the previous
    // window's pass and shares its head.
    std::map<ObjectId, double> mirror;
    auto sub = svc.Subscribe(Standing(0), service::WindowPolicy{.slide = 1},
                             [&](const service::SubscriptionDelta& d) {
                               for (ObjectId id : d.left) mirror.erase(id);
                               for (const auto& p : d.entered) {
                                 mirror[p.id] = p.probability;
                               }
                               for (const auto& p : d.changed) {
                                 mirror[p.id] = p.probability;
                               }
                             });
    ASSERT_TRUE(sub.ok()) << sub.status();
    ASSERT_EQ(svc.RefreshSubscriptions(), 1u);
    ExpectBitIdentical(mirror, cold(0), "subscription at 0");
    const uint64_t extends_before = svc.stats().cache.shift_extends;
    for (Timestamp shift = 1; shift <= 3; ++shift) {
      svc.TickWindows(1);
      ASSERT_EQ(svc.RefreshSubscriptions(), 1u);
      ExpectBitIdentical(mirror, cold(shift),
                         "subscription at " + std::to_string(shift));
    }
    EXPECT_GT(svc.stats().cache.shift_extends, extends_before);
  }
}

// --- Routing: everything else keeps the doubled-state engine. -------------

TEST(ExecutorMultiObservationTest, LaterObservationsKeepDoubledStateEngine) {
  const uint64_t seed = ustdb::testing::TestSeed(1606);
  SCOPED_TRACE(ustdb::testing::SeedTrace(seed));
  util::Rng rng(seed);
  const uint32_t n = 20;
  Database db;
  const ChainId chain = db.AddChain(RandomChain(n, 3, &rng));
  (void)db.AddObjectAt(chain, RandomDistribution(n, 3, &rng)).ValueOrDie();
  // Observations at 1 and 8 bracket the window [3, 5]: time-interpolation.
  const ObjectId bracketed =
      db.AddObject(chain, History(db.chain(chain), {1, 8}, &rng)).ValueOrDie();
  // Observations at 0 and 3 precede it: the head answers.
  const ObjectId preceding =
      db.AddObject(chain, History(db.chain(chain), {0, 3}, &rng)).ValueOrDie();
  const QueryWindow window =
      QueryWindow::FromRanges(n, 4, 9, 3, 5).ValueOrDie();

  QueryExecutor exec(&db, Threads(1));
  QueryRequest request;
  request.predicate = PredicateKind::kExists;
  request.window = window;
  request.trace = std::make_shared<obs::QueryTrace>();
  const auto result = exec.Run(request);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result.value().stats.objects_multi_observation, 2u);
  EXPECT_EQ(Detail(*request.trace, obs::Stage::kEvaluate),
            "objects=3,multi_obs=2,via_head=1,subtasks=1");
  // The doubled-state engine ran: bit-identical to a direct evaluation.
  EXPECT_EQ(ById(result.value()).at(bracketed),
            Reference(db, bracketed, window));
  EXPECT_NEAR(ById(result.value()).at(preceding),
              Reference(db, preceding, window), kParity);

  // A window that starts before the first observation is still outside the
  // paper's framework.
  QueryRequest early = request;
  early.window = QueryWindow::FromRanges(n, 4, 9, 0, 2).ValueOrDie();
  const auto unsupported = exec.Run(early);
  ASSERT_FALSE(unsupported.ok());
  EXPECT_EQ(unsupported.status().code(), util::StatusCode::kUnimplemented);
}

TEST(ExecutorMultiObservationTest, InconsistentHistoryFailsOnEitherPath) {
  // Two exact observations one step apart with no transition between them.
  const markov::MarkovChain line =
      markov::MarkovChain::FromDense(
          {{0.0, 1.0, 0.0}, {0.0, 0.0, 1.0}, {0.0, 0.0, 1.0}})
          .ValueOrDie();
  Database db;
  const ChainId chain = db.AddChain(line);
  (void)db.AddObject(chain, {{0, sparse::ProbVector::Delta(3, 0)},
                             {1, sparse::ProbVector::Delta(3, 2)}})
      .ValueOrDie();
  QueryExecutor exec(&db, Threads(1));
  for (Timestamp t_begin : {0u, 2u}) {
    // t_begin = 0 precedes the second observation (doubled-state engine);
    // t_begin = 2 follows both (head).
    QueryRequest request;
    request.predicate = PredicateKind::kExists;
    request.window =
        QueryWindow::FromRanges(3, 1, 1, t_begin, t_begin + 1).ValueOrDie();
    const auto result = exec.Run(request);
    ASSERT_FALSE(result.ok()) << "t_begin " << t_begin;
    EXPECT_EQ(result.status().code(), util::StatusCode::kInconsistent);
    EXPECT_EQ(result.status().message(),
              "observation at t=1 is inconsistent with all possible worlds");
  }
}

}  // namespace
}  // namespace core
}  // namespace ustdb
