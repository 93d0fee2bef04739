// Parallel query processing: QueryExecutor::Run over a thread pool must give
// the sequential answers, bit for bit, under either pinned plan.
#include <gtest/gtest.h>

#include "core/executor.h"
#include "testing/random_models.h"
#include "util/rng.h"

namespace ustdb {
namespace core {
namespace {

using ::ustdb::testing::RandomChain;
using ::ustdb::testing::RandomDistribution;

Database MakeDb(uint32_t num_chains, uint32_t num_objects, uint64_t seed) {
  util::Rng rng(seed);
  Database db;
  std::vector<ChainId> chains;
  for (uint32_t c = 0; c < num_chains; ++c) {
    chains.push_back(db.AddChain(RandomChain(25, 3, &rng)));
  }
  for (uint32_t i = 0; i < num_objects; ++i) {
    (void)db.AddObjectAt(chains[i % num_chains],
                         RandomDistribution(25, 3, &rng))
        .ValueOrDie();
  }
  return db;
}

TEST(ParallelQueryTest, PinnedPlansAreBitIdenticalAcrossThreadCounts) {
  Database db = MakeDb(3, 40, 401);
  QueryRequest request;
  request.window = QueryWindow::FromRanges(25, 6, 12, 3, 8).ValueOrDie();
  QueryExecutor sequential(&db, {.num_threads = 1});
  for (PlanChoice plan : {PlanChoice::kQueryBased, PlanChoice::kObjectBased}) {
    request.plan = plan;
    const auto want = sequential.Run(request).ValueOrDie();
    ASSERT_EQ(want.probabilities.size(), 40u);
    for (unsigned threads : {2u, 4u}) {
      QueryExecutor parallel(&db, {.num_threads = threads});
      const auto got = parallel.Run(request).ValueOrDie();
      ASSERT_EQ(got.probabilities.size(), want.probabilities.size());
      for (size_t i = 0; i < want.probabilities.size(); ++i) {
        EXPECT_EQ(got.probabilities[i].id, want.probabilities[i].id);
        // Bit-identical: the same arithmetic runs per object either way.
        EXPECT_EQ(got.probabilities[i].probability,
                  want.probabilities[i].probability)
            << "plan " << static_cast<int>(plan) << " threads " << threads
            << " obj " << i;
      }
    }
  }
}

TEST(ParallelQueryTest, MoreThreadsThanObjects) {
  Database db = MakeDb(1, 3, 402);
  QueryExecutor executor(&db, {.num_threads = 32});
  const auto result =
      executor
          .Run({.predicate = PredicateKind::kExists,
                .window = QueryWindow::FromRanges(25, 6, 12, 2, 5)
                              .ValueOrDie()})
          .ValueOrDie();
  EXPECT_EQ(result.probabilities.size(), 3u);
  EXPECT_EQ(result.stats.objects_evaluated, 3u);
}

}  // namespace
}  // namespace core
}  // namespace ustdb
