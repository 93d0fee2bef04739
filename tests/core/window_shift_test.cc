// Incremental window-shift reuse: extending a memoized query-based
// backward pass by delta propagation steps must match a cold rebuild of
// the shifted window bit-identically or within the 1e-12 kernel-parity
// margin — at the engine level (extension constructor, including a base
// window containing t=0), at the cache level (LookupShiftBase picks the
// nearest same-epoch base; Get() extends instead of rebuilding), and at
// the executor level (ExecStats::cache_shift_extends, answer parity).

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/database.h"
#include "core/engine_cache.h"
#include "core/executor.h"
#include "core/query_based.h"
#include "core/query_request.h"
#include "core/query_window.h"
#include "sparse/prob_vector.h"
#include "testing/random_models.h"
#include "testing/test_seed.h"
#include "util/rng.h"

namespace ustdb {
namespace core {
namespace {

using ::ustdb::testing::RandomChain;
using ::ustdb::testing::RandomDistribution;

constexpr uint32_t kStates = 24;
constexpr double kParityMargin = 1e-12;

/// Start vectors compared through every basis state: v_a[s] == v_b[s]
/// within the kernel-parity margin.
void ExpectStartVectorParity(const QueryBasedEngine& extended,
                             const QueryBasedEngine& cold) {
  for (uint32_t s = 0; s < kStates; ++s) {
    const sparse::ProbVector basis = sparse::ProbVector::Delta(kStates, s);
    EXPECT_NEAR(extended.ExistsProbability(basis),
                cold.ExistsProbability(basis), kParityMargin)
        << "start-vector drift at state " << s;
  }
}

TEST(WindowShiftTest, ExtensionMatchesColdBuild) {
  const uint64_t seed = ustdb::testing::TestSeed(821);
  SCOPED_TRACE(ustdb::testing::SeedTrace(seed));
  util::Rng rng(seed);
  const markov::MarkovChain chain = RandomChain(kStates, 3, &rng);

  for (const Timestamp t_lo : {Timestamp(0), Timestamp(3)}) {
    for (const Timestamp delta : {Timestamp(1), Timestamp(2), Timestamp(7)}) {
      SCOPED_TRACE("t_lo=" + std::to_string(t_lo) +
                   " delta=" + std::to_string(delta));
      const QueryWindow base_window =
          QueryWindow::FromRanges(kStates, 4, 11, t_lo, t_lo + 5)
              .ValueOrDie();
      const QueryWindow shifted = base_window.ShiftedBy(delta);

      const QueryBasedEngine base(&chain, base_window);
      const QueryBasedEngine extended(base, shifted, delta);
      const QueryBasedEngine cold(&chain, shifted);
      ExpectStartVectorParity(extended, cold);
      EXPECT_EQ(extended.transitions(), cold.transitions());
    }
  }
}

TEST(WindowShiftTest, ExtensionMatchesColdBuildOnGapWindows) {
  const uint64_t seed = ustdb::testing::TestSeed(822);
  SCOPED_TRACE(ustdb::testing::SeedTrace(seed));
  util::Rng rng(seed);
  const markov::MarkovChain chain = RandomChain(kStates, 3, &rng);

  // Non-contiguous time set: {2, 4, 5, 7} — the shift identity does not
  // depend on contiguity, only on the uniform +delta relabeling.
  const QueryWindow base_window =
      QueryWindow::Create(
          sparse::IndexSet::FromRange(kStates, 6, 12).ValueOrDie(),
          {2, 4, 5, 7})
          .ValueOrDie();
  for (const Timestamp delta : {Timestamp(1), Timestamp(3)}) {
    SCOPED_TRACE("delta=" + std::to_string(delta));
    const QueryWindow shifted = base_window.ShiftedBy(delta);
    const QueryBasedEngine base(&chain, base_window);
    const QueryBasedEngine extended(base, shifted, delta);
    const QueryBasedEngine cold(&chain, shifted);
    ExpectStartVectorParity(extended, cold);
  }
}

TEST(WindowShiftTest, CacheExtendsFromNearestSameEpochBase) {
  const uint64_t seed = ustdb::testing::TestSeed(823);
  SCOPED_TRACE(ustdb::testing::SeedTrace(seed));
  util::Rng rng(seed);
  const markov::MarkovChain chain = RandomChain(kStates, 3, &rng);
  const QueryWindow w0 =
      QueryWindow::FromRanges(kStates, 4, 11, 2, 6).ValueOrDie();

  EngineCache cache(8);
  ASSERT_NE(cache.Put(&chain, w0,
                      std::make_unique<QueryBasedEngine>(&chain, w0),
                      /*epoch=*/0),
            nullptr);
  // w0+1 misses and finds w0 as its base, one step back; the extension is
  // admitted like any built pass.
  const QueryWindow w1 = w0.ShiftedBy(1);
  EXPECT_EQ(cache.Lookup(&chain, w1, 0), nullptr);
  Timestamp delta = 0;
  const QueryBasedEngine* base = cache.LookupShiftBase(&chain, w1, 0, &delta);
  ASSERT_NE(base, nullptr);
  EXPECT_EQ(delta, 1u);
  ASSERT_NE(cache.Put(&chain, w1,
                      std::make_unique<QueryBasedEngine>(*base, w1, delta), 0),
            nullptr);
  EXPECT_EQ(cache.stats().shift_extends, 1u);

  // Nearest base wins: w0+1 (delta 2), not w0 (delta 3). The probe
  // itself counts a shift_extend — callers pair it with the miss that
  // motivated it.
  const QueryWindow w3 = w0.ShiftedBy(3);
  delta = 0;
  base = cache.LookupShiftBase(&chain, w3, 0, &delta);
  ASSERT_NE(base, nullptr);
  EXPECT_EQ(delta, 2u);
  EXPECT_EQ(cache.stats().shift_extends, 2u);

  // The extension must match a cold engine for that window.
  const QueryBasedEngine* extended = cache.Put(
      &chain, w3, std::make_unique<QueryBasedEngine>(*base, w3, delta), 0);
  ASSERT_NE(extended, nullptr);
  const QueryBasedEngine cold(&chain, w3);
  ExpectStartVectorParity(*extended, cold);

  // A base at a stale epoch is no shift base: at epoch 1 nothing in the
  // cache qualifies, and the miss rebuilds cold (invalidations counted by
  // the paired lookups).
  delta = 0;
  EXPECT_EQ(cache.LookupShiftBase(&chain, w0.ShiftedBy(4), /*epoch=*/1,
                                  &delta),
            nullptr);
}

TEST(WindowShiftTest, ExecutorReusesSlidPassesWithAnswerParity) {
  const uint64_t seed = ustdb::testing::TestSeed(824);
  SCOPED_TRACE(ustdb::testing::SeedTrace(seed));
  Database db;
  util::Rng rng(seed);
  const ChainId chain = db.AddChain(RandomChain(kStates, 3, &rng));
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        db.AddObjectAt(chain, RandomDistribution(kStates, 3, &rng)).ok());
  }

  QueryRequest request;
  request.predicate = PredicateKind::kExists;
  request.plan = PlanChoice::kQueryBased;
  request.window = QueryWindow::FromRanges(kStates, 4, 11, 2, 6).ValueOrDie();

  QueryExecutor warm_exec(&db, {.num_threads = 1});
  ASSERT_TRUE(warm_exec.Run(request).ok());

  // Slide the window forward step by step: every step extends the
  // previous pass instead of rebuilding, and every answer matches a cold
  // executor evaluating the slid window from scratch.
  for (Timestamp slide = 1; slide <= 3; ++slide) {
    SCOPED_TRACE("slide=" + std::to_string(slide));
    QueryRequest slid = request;
    slid.window = request.window.ShiftedBy(slide);
    auto warm = warm_exec.Run(slid);
    ASSERT_TRUE(warm.ok()) << warm.status();
    EXPECT_EQ(warm.value().stats.cache_shift_extends, 1u);

    QueryExecutor cold_exec(&db, {.num_threads = 1});
    auto cold = cold_exec.Run(slid);
    ASSERT_TRUE(cold.ok());
    ASSERT_EQ(warm.value().probabilities.size(),
              cold.value().probabilities.size());
    for (size_t i = 0; i < cold.value().probabilities.size(); ++i) {
      EXPECT_EQ(warm.value().probabilities[i].id,
                cold.value().probabilities[i].id);
      EXPECT_NEAR(warm.value().probabilities[i].probability,
                  cold.value().probabilities[i].probability, kParityMargin);
    }
  }
  EXPECT_EQ(warm_exec.cache_stats().shift_extends, 3u);
}

}  // namespace
}  // namespace core
}  // namespace ustdb
