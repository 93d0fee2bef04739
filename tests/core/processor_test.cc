// Identities between the query predicates (Sections IV-V), checked end to
// end through QueryExecutor::Run.
#include <gtest/gtest.h>

#include "core/executor.h"
#include "testing/random_models.h"
#include "util/rng.h"

namespace ustdb {
namespace core {
namespace {

using ::ustdb::testing::RandomChain;
using ::ustdb::testing::RandomDistribution;

Database MakeDb(uint32_t num_objects, uint64_t seed, uint32_t num_states) {
  util::Rng rng(seed);
  Database db;
  const ChainId c = db.AddChain(RandomChain(num_states, 3, &rng));
  for (uint32_t i = 0; i < num_objects; ++i) {
    (void)db.AddObjectAt(c, RandomDistribution(num_states, 2, &rng))
        .ValueOrDie();
  }
  return db;
}

TEST(QueryProcessingTest, ForAllComplementsExists) {
  // PST∀Q over S□ is 1 − PST∃Q over the complement of S□.
  Database db = MakeDb(10, 909, 15);
  QueryExecutor executor(&db);
  const QueryWindow window =
      QueryWindow::FromRanges(15, 4, 9, 2, 5).ValueOrDie();
  const auto forall =
      executor.Run({.predicate = PredicateKind::kForAll, .window = window})
          .ValueOrDie();
  const auto exists_complement =
      executor
          .Run({.predicate = PredicateKind::kExists,
                .window = window.WithComplementRegion()})
          .ValueOrDie();
  ASSERT_EQ(forall.probabilities.size(), 10u);
  ASSERT_EQ(forall.probabilities.size(),
            exists_complement.probabilities.size());
  for (size_t i = 0; i < forall.probabilities.size(); ++i) {
    EXPECT_EQ(forall.probabilities[i].id,
              exists_complement.probabilities[i].id);
    EXPECT_NEAR(forall.probabilities[i].probability,
                1.0 - exists_complement.probabilities[i].probability, 1e-12);
  }
}

TEST(QueryProcessingTest, KTimesConsistentWithExists) {
  // Visiting the window at least once is the complement of zero visits.
  Database db = MakeDb(6, 222, 12);
  QueryExecutor executor(&db);
  const QueryWindow window =
      QueryWindow::FromRanges(12, 3, 6, 1, 4).ValueOrDie();
  const auto ktimes =
      executor.Run({.predicate = PredicateKind::kKTimes, .window = window})
          .ValueOrDie();
  const auto exists =
      executor.Run({.predicate = PredicateKind::kExists, .window = window})
          .ValueOrDie();
  ASSERT_EQ(ktimes.distributions.size(), 6u);
  ASSERT_EQ(ktimes.distributions.size(), exists.probabilities.size());
  for (size_t i = 0; i < ktimes.distributions.size(); ++i) {
    EXPECT_EQ(ktimes.distributions[i].id, exists.probabilities[i].id);
    EXPECT_NEAR(1.0 - ktimes.distributions[i].distribution[0],
                exists.probabilities[i].probability, 1e-10);
  }
}

}  // namespace
}  // namespace core
}  // namespace ustdb
