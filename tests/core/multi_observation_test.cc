#include "core/multi_observation.h"

#include <gtest/gtest.h>

#include "core/object_based.h"
#include "exact/possible_worlds.h"
#include "testing/random_models.h"
#include "util/rng.h"

namespace ustdb {
namespace core {
namespace {

using ::ustdb::testing::PaperChainVI;
using ::ustdb::testing::RandomChain;
using ::ustdb::testing::RandomDistribution;

// Section VI example: chain with row 2 = (0.5, 0, 0.5), window
// S□ = {s1, s2} (0-based {0,1}), T□ = {1, 2}; observations at t=0 (s1)
// and t=3 (s2, uncertain between real and hit copy).
QueryWindow WindowVI() {
  return QueryWindow::FromRanges(3, 0, 1, 1, 2).ValueOrDie();
}

std::vector<Observation> PaperObservations() {
  std::vector<Observation> obs;
  obs.push_back({0, sparse::ProbVector::Delta(3, 0)});
  obs.push_back({3, sparse::ProbVector::Delta(3, 1)});
  return obs;
}

/// P(B) + P(C) by enumeration: the total probability of the worlds drawn
/// from the normalized first observation, each weighted by the later
/// observations' pdfs at their times.
double SurvivingMassByEnumeration(const markov::MarkovChain& chain,
                                  const std::vector<Observation>& obs) {
  sparse::ProbVector first = obs.front().pdf;
  EXPECT_TRUE(first.Normalize().ok());
  const Timestamp t_start = obs.front().time;
  const std::vector<exact::World> worlds =
      exact::EnumerateWorlds(chain, first, obs.back().time - t_start)
          .ValueOrDie();
  double mass = 0.0;
  for (const exact::World& world : worlds) {
    double weight = world.probability;
    for (size_t i = 1; i < obs.size(); ++i) {
      weight *= obs[i].pdf.Get(world.path[obs[i].time - t_start]);
    }
    mass += weight;
  }
  return mass;
}

TEST(MultiObservationTest, PaperExampleForcesMissedWindow) {
  // The paper's walkthrough: the only path from s1@t0 to s2@t3 avoids the
  // window, so the posterior is a point mass at s2 and P∃ = 0.
  markov::MarkovChain chain = PaperChainVI();
  MultiObservationEngine engine(&chain, WindowVI());
  const MultiObsResult r = engine.Evaluate(PaperObservations()).ValueOrDie();
  EXPECT_NEAR(r.exists_probability, 0.0, 1e-12);
  EXPECT_NEAR(r.posterior.Get(1), 1.0, 1e-12);
  EXPECT_EQ(r.posterior.Support(), 1u);
}

TEST(MultiObservationTest, PaperIntermediateVectors) {
  // Pin the intermediate forward vectors of the worked example:
  // P(o,1) = (0,0,1 | 0,0,0), P(o,2) = (0,0,0.2 | 0,0.8,0),
  // P(o,3) = (0,0.16,0.04 | 0.4,0,0.4) before conditioning.
  markov::MarkovChain chain = PaperChainVI();
  AugmentedMatrices aug = BuildDoubledMatrices(chain, WindowVI().region());
  sparse::VecMatWorkspace ws;
  sparse::ProbVector v = ExtendInitialDoubled(
      sparse::ProbVector::Delta(3, 0), WindowVI());
  ws.Multiply(v, aug.plus, &v);  // into t=1 ∈ T□
  EXPECT_NEAR(v.Get(2), 1.0, 1e-12);
  ws.Multiply(v, aug.plus, &v);  // into t=2 ∈ T□
  EXPECT_NEAR(v.Get(2), 0.2, 1e-12);
  EXPECT_NEAR(v.Get(4), 0.8, 1e-12);
  ws.Multiply(v, aug.minus, &v);  // into t=3 ∉ T□
  EXPECT_NEAR(v.Get(1), 0.16, 1e-12);
  EXPECT_NEAR(v.Get(2), 0.04, 1e-12);
  EXPECT_NEAR(v.Get(3), 0.4, 1e-12);
  EXPECT_NEAR(v.Get(5), 0.4, 1e-12);
}

TEST(MultiObservationTest, SingleObservationReducesToObjectBased) {
  util::Rng rng(53);
  for (int round = 0; round < 15; ++round) {
    markov::MarkovChain chain = RandomChain(10, 3, &rng);
    auto window = QueryWindow::FromRanges(10, 2, 5, 2, 5).ValueOrDie();
    const sparse::ProbVector initial = RandomDistribution(10, 3, &rng);

    MultiObservationEngine multi(&chain, window);
    ObjectBasedEngine single(&chain, window);
    const auto r =
        multi.Evaluate({Observation{0, initial}}).ValueOrDie();
    EXPECT_NEAR(r.exists_probability, single.ExistsProbability(initial),
                1e-10)
        << "round " << round;
    EXPECT_NEAR(r.surviving_mass, 1.0, 1e-9);
  }
}

TEST(MultiObservationTest, MatchesEnumerationWithTwoObservations) {
  util::Rng rng(59);
  for (int round = 0; round < 10; ++round) {
    markov::MarkovChain chain = RandomChain(5, 3, &rng);
    auto window = QueryWindow::FromRanges(5, 1, 2, 1, 3).ValueOrDie();
    std::vector<Observation> obs;
    obs.push_back({0, RandomDistribution(5, 2, &rng)});
    obs.push_back({5, RandomDistribution(5, 3, &rng)});

    MultiObservationEngine engine(&chain, window);
    const auto got = engine.Evaluate(obs);
    const auto want =
        exact::MultiObsExistsByEnumeration(chain, obs, window);
    ASSERT_EQ(got.ok(), want.ok()) << "round " << round;
    if (got.ok()) {
      EXPECT_NEAR(got.value().exists_probability, want.value(), 1e-9)
          << "round " << round;
      EXPECT_NEAR(got.value().surviving_mass,
                  SurvivingMassByEnumeration(chain, obs), 1e-9)
          << "round " << round;
    }
  }
}

TEST(MultiObservationTest, ThreeObservationsMatchEnumeration) {
  util::Rng rng(61);
  for (int round = 0; round < 6; ++round) {
    markov::MarkovChain chain = RandomChain(4, 2, &rng);
    auto window = QueryWindow::FromRanges(4, 1, 1, 1, 3).ValueOrDie();
    std::vector<Observation> obs;
    obs.push_back({0, RandomDistribution(4, 2, &rng)});
    obs.push_back({2, RandomDistribution(4, 3, &rng)});
    obs.push_back({5, RandomDistribution(4, 3, &rng)});

    MultiObservationEngine engine(&chain, window);
    const auto got = engine.Evaluate(obs);
    const auto want = exact::MultiObsExistsByEnumeration(chain, obs, window);
    ASSERT_EQ(got.ok(), want.ok()) << "round " << round;
    if (got.ok()) {
      EXPECT_NEAR(got.value().exists_probability, want.value(), 1e-9)
          << "round " << round;
      EXPECT_NEAR(got.value().surviving_mass,
                  SurvivingMassByEnumeration(chain, obs), 1e-9)
          << "round " << round;
    }
  }
}

TEST(MultiObservationTest, ObservationAfterWindowChangesAnswer) {
  // A later observation re-weights worlds and must shift P∃ away from the
  // single-observation value (the "interpolation beats extrapolation"
  // point of Section VI).
  markov::MarkovChain chain = PaperChainVI();
  MultiObservationEngine engine(&chain, WindowVI());
  const double with_one =
      engine.Evaluate({Observation{0, sparse::ProbVector::Delta(3, 0)}})
          .ValueOrDie()
          .exists_probability;
  const double with_two =
      engine.Evaluate(PaperObservations()).ValueOrDie().exists_probability;
  EXPECT_GT(with_one, 0.0);   // without the second obs, hitting is possible
  EXPECT_NEAR(with_two, 0.0, 1e-12);
}

TEST(MultiObservationTest, ContradictoryObservationsRejected) {
  // Deterministic cycle 0->1->2->0; observing s0 at t=0 and s0 at t=1 is
  // impossible.
  auto chain = markov::MarkovChain::FromDense(
                   {{0, 1, 0}, {0, 0, 1}, {1, 0, 0}})
                   .ValueOrDie();
  auto window = QueryWindow::FromRanges(3, 2, 2, 1, 2).ValueOrDie();
  MultiObservationEngine engine(&chain, window);
  std::vector<Observation> obs;
  obs.push_back({0, sparse::ProbVector::Delta(3, 0)});
  obs.push_back({1, sparse::ProbVector::Delta(3, 0)});
  const auto r = engine.Evaluate(obs);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kInconsistent);
}

TEST(MultiObservationTest, ValidationErrors) {
  markov::MarkovChain chain = PaperChainVI();
  MultiObservationEngine engine(&chain, WindowVI());
  EXPECT_FALSE(engine.Evaluate({}).ok());

  // Unsorted times.
  std::vector<Observation> unsorted;
  unsorted.push_back({3, sparse::ProbVector::Delta(3, 0)});
  unsorted.push_back({0, sparse::ProbVector::Delta(3, 1)});
  EXPECT_FALSE(engine.Evaluate(unsorted).ok());

  // Wrong pdf dimension.
  std::vector<Observation> wrong_dim;
  wrong_dim.push_back({0, sparse::ProbVector::Delta(4, 0)});
  EXPECT_FALSE(engine.Evaluate(wrong_dim).ok());

  // First observation after the window start requires smoothing.
  std::vector<Observation> late;
  late.push_back({2, sparse::ProbVector::Delta(3, 0)});
  const auto r = engine.Evaluate(late);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kUnimplemented);
}

TEST(MultiObservationTest, ExactObservationBetweenWindowTimes) {
  // Observation inside the window interval conditions the pass mid-flight;
  // verified against enumeration.
  util::Rng rng(67);
  markov::MarkovChain chain = RandomChain(5, 3, &rng);
  auto window = QueryWindow::FromRanges(5, 1, 2, 1, 4).ValueOrDie();
  std::vector<Observation> obs;
  obs.push_back({0, RandomDistribution(5, 2, &rng)});
  obs.push_back({3, RandomDistribution(5, 4, &rng)});
  MultiObservationEngine engine(&chain, window);
  const auto got = engine.Evaluate(obs);
  const auto want = exact::MultiObsExistsByEnumeration(chain, obs, window);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(want.ok());
  EXPECT_NEAR(got.value().exists_probability, want.value(), 1e-9);
}

}  // namespace
}  // namespace core
}  // namespace ustdb
