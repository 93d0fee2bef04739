// Database ingest path: AppendObservation validation (the sorted-history
// invariant rejects out-of-order and duplicate timestamps WITHOUT
// corrupting the history), epoch bookkeeping (data_version / object /
// chain / cluster epochs advance together and only for the touched
// lineage), the lock-free census mirror, the version-stamped variant's
// monotonicity guard, the incremental cluster-registry invariant (appends
// never re-cluster), and the sharded router's single global version
// sequence.

#include <gtest/gtest.h>

#include <vector>

#include "core/database.h"
#include "core/shard_router.h"
#include "sparse/prob_vector.h"
#include "testing/random_models.h"
#include "testing/sharded_fixture.h"
#include "testing/test_seed.h"
#include "util/rng.h"

namespace ustdb {
namespace core {
namespace {

using ::ustdb::testing::PaperChainV;
using ::ustdb::testing::PaperChainVI;
using ::ustdb::testing::RandomDistribution;

Observation ObsAt(Timestamp t, uint32_t n, uint32_t state) {
  return {t, sparse::ProbVector::Delta(n, state)};
}

TEST(IngestTest, AppendExtendsHistoryAndReturnsVersion) {
  Database db;
  const ChainId chain = db.AddChain(PaperChainV());
  const ObjectId id =
      db.AddObjectAt(chain, sparse::ProbVector::Delta(3, 0)).ValueOrDie();
  ASSERT_EQ(db.data_version(), 0u);

  const auto v1 = db.AppendObservation(id, ObsAt(2, 3, 1));
  ASSERT_TRUE(v1.ok()) << v1.status();
  EXPECT_EQ(v1.value(), 1u);
  const auto v2 = db.AppendObservation(id, ObsAt(5, 3, 2));
  ASSERT_TRUE(v2.ok()) << v2.status();
  EXPECT_EQ(v2.value(), 2u);

  const UncertainObject& obj = db.object(id);
  ASSERT_EQ(obj.observations.size(), 3u);
  EXPECT_EQ(obj.observations[0].time, 0u);
  EXPECT_EQ(obj.observations[1].time, 2u);
  EXPECT_EQ(obj.observations[2].time, 5u);
  EXPECT_EQ(db.data_version(), 2u);
}

TEST(IngestTest, UnknownObjectIsNotFound) {
  Database db;
  db.AddChain(PaperChainV());
  const auto result = db.AppendObservation(7, ObsAt(1, 3, 0));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kNotFound);
  EXPECT_EQ(db.data_version(), 0u);
}

TEST(IngestTest, DimensionMismatchRejected) {
  Database db;
  const ChainId chain = db.AddChain(PaperChainV());
  const ObjectId id =
      db.AddObjectAt(chain, sparse::ProbVector::Delta(3, 0)).ValueOrDie();
  const auto result = db.AppendObservation(id, ObsAt(1, 5, 0));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(db.object(id).observations.size(), 1u);
  EXPECT_EQ(db.data_version(), 0u);
}

TEST(IngestTest, OutOfOrderAndDuplicateTimesRejectedWithoutCorruption) {
  Database db;
  const ChainId chain = db.AddChain(PaperChainV());
  const ObjectId id =
      db.AddObjectAt(chain, sparse::ProbVector::Delta(3, 0)).ValueOrDie();
  ASSERT_TRUE(db.AppendObservation(id, ObsAt(4, 3, 1)).ok());

  // Duplicate timestamp.
  auto dup = db.AppendObservation(id, ObsAt(4, 3, 2));
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), util::StatusCode::kInvalidArgument);
  // Time strictly before the latest observation.
  auto stale = db.AppendObservation(id, ObsAt(2, 3, 2));
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), util::StatusCode::kInvalidArgument);

  // History uncorrupted, epochs unchanged by the rejected appends.
  const UncertainObject& obj = db.object(id);
  ASSERT_EQ(obj.observations.size(), 2u);
  EXPECT_EQ(obj.observations.back().time, 4u);
  EXPECT_EQ(db.data_version(), 1u);

  // A later valid time is still accepted — rejections leave the object
  // appendable.
  EXPECT_TRUE(db.AppendObservation(id, ObsAt(5, 3, 2)).ok());
  EXPECT_EQ(db.object(id).observations.size(), 3u);
}

TEST(IngestTest, EpochsAdvanceOnlyForTheTouchedLineage) {
  Database db;
  const ChainId c0 = db.AddChain(PaperChainV());
  // PaperChainVI is a perturbation of PaperChainV — same cluster.
  const ChainId c1 = db.AddChain(PaperChainVI());
  util::Rng rng(7);
  // A 30-state chain founds a separate cluster (different state count).
  const ChainId c2 = db.AddChain(testing::RandomChain(30, 3, &rng));
  ASSERT_NE(db.cluster_of(c0), db.cluster_of(c2));

  const ObjectId o0 =
      db.AddObjectAt(c0, sparse::ProbVector::Delta(3, 0)).ValueOrDie();
  const ObjectId o1 =
      db.AddObjectAt(c1, sparse::ProbVector::Delta(3, 1)).ValueOrDie();
  ASSERT_TRUE(db.AddObjectAt(c2, RandomDistribution(30, 3, &rng)).ok());

  ASSERT_TRUE(db.AppendObservation(o0, ObsAt(3, 3, 2)).ok());

  // Touched lineage: o0's chain c0 is at 1.
  EXPECT_EQ(db.data_version(), 1u);
  EXPECT_EQ(db.chain_epoch(c0), 1u);
  // Untouched: c1 shares c0's cluster, c2 shares nothing.
  EXPECT_EQ(db.chain_epoch(c1), 0u);
  EXPECT_EQ(db.chain_epoch(c2), 0u);

  // Appending to o1 bumps its chain only.
  ASSERT_TRUE(db.AppendObservation(o1, ObsAt(2, 3, 0)).ok());
  EXPECT_EQ(db.data_version(), 2u);
  EXPECT_EQ(db.chain_epoch(c0), 1u);
  EXPECT_EQ(db.chain_epoch(c1), 2u);
}

TEST(IngestTest, CensusMirrorFlipsOnFirstAppend) {
  Database db;
  const ChainId chain = db.AddChain(PaperChainV());
  const ObjectId at0 =
      db.AddObjectAt(chain, sparse::ProbVector::Delta(3, 0)).ValueOrDie();
  const ObjectId late =
      db.AddObjectAt(chain, sparse::ProbVector::Delta(3, 1), /*t=*/3)
          .ValueOrDie();
  EXPECT_FALSE(db.object_needs_multi_engine(at0));
  // A single observation NOT at t=0 already needs the Section VI engine.
  EXPECT_TRUE(db.object_needs_multi_engine(late));

  ASSERT_TRUE(db.AppendObservation(at0, ObsAt(2, 3, 2)).ok());
  EXPECT_TRUE(db.object_needs_multi_engine(at0));
  EXPECT_TRUE(db.object(at0).needs_multi_observation_engine());
}

TEST(IngestTest, AppendNeverTouchesTheClusterRegistry) {
  Database db;
  const ChainId c0 = db.AddChain(PaperChainV());
  const ChainId c1 = db.AddChain(PaperChainVI());
  const ObjectId id =
      db.AddObjectAt(c0, sparse::ProbVector::Delta(3, 0)).ValueOrDie();

  const std::vector<ChainCluster> before = db.chain_clusters();
  for (Timestamp t = 1; t <= 8; ++t) {
    ASSERT_TRUE(db.AppendObservation(id, ObsAt(t, 3, t % 3)).ok());
  }
  const std::vector<ChainCluster>& after = db.chain_clusters();
  ASSERT_EQ(after.size(), before.size());
  for (size_t c = 0; c < before.size(); ++c) {
    EXPECT_EQ(after[c].leader, before[c].leader);
    EXPECT_EQ(after[c].members, before[c].members);
  }
  EXPECT_EQ(db.cluster_of(c0), db.cluster_of(c1));
}

TEST(IngestTest, VersionStampMustExceedCurrent) {
  Database db;
  const ChainId chain = db.AddChain(PaperChainV());
  const ObjectId id =
      db.AddObjectAt(chain, sparse::ProbVector::Delta(3, 0)).ValueOrDie();
  ASSERT_TRUE(db.AppendObservationAtVersion(id, ObsAt(1, 3, 1), 5).ok());
  EXPECT_EQ(db.data_version(), 5u);

  // Equal and lower stamps are rejected; the history stays put.
  auto equal = db.AppendObservationAtVersion(id, ObsAt(2, 3, 1), 5);
  ASSERT_FALSE(equal.ok());
  EXPECT_EQ(equal.status().code(), util::StatusCode::kInvalidArgument);
  auto lower = db.AppendObservationAtVersion(id, ObsAt(2, 3, 1), 3);
  ASSERT_FALSE(lower.ok());
  EXPECT_EQ(db.object(id).observations.size(), 2u);
  EXPECT_EQ(db.data_version(), 5u);

  // Gaps are fine: monotonicity, not density.
  EXPECT_TRUE(db.AppendObservationAtVersion(id, ObsAt(2, 3, 1), 9).ok());
  EXPECT_EQ(db.data_version(), 9u);
}

TEST(IngestTest, ShardedAppendsShareOneGlobalVersionSequence) {
  const uint64_t seed = ustdb::testing::TestSeed(731);
  SCOPED_TRACE(ustdb::testing::SeedTrace(seed));
  testing::ShardedSpec spec;
  spec.seed = seed;
  testing::ShardedPair pair = testing::MakeShardedPair(spec, 4);
  util::Rng rng(seed ^ 0x1A6E57);

  std::vector<Timestamp> next_time(spec.num_objects, 1);
  DataVersion expected = 0;
  for (int round = 0; round < 64; ++round) {
    const ObjectId id =
        static_cast<ObjectId>(rng.NextBounded(spec.num_objects));
    Observation obs{next_time[id],
                    RandomDistribution(spec.num_states, 2, &rng)};
    next_time[id] += 1 + rng.NextBounded(3);
    const auto version = pair.sharded.AppendObservation(id, std::move(obs));
    ASSERT_TRUE(version.ok()) << version.status();
    // Sequential appends draw consecutive versions from the one global
    // counter regardless of which shard owns the object.
    EXPECT_EQ(version.value(), ++expected);
    const uint32_t s = pair.sharded.shard_of_object(id);
    EXPECT_EQ(pair.sharded.shard(s).data_version(), expected);
  }
  EXPECT_EQ(pair.sharded.data_version(), expected);

  // A rejected append burns its version: the global counter advances, no
  // shard applies it.
  const auto rejected =
      pair.sharded.AppendObservation(0, ObsAt(0, spec.num_states, 0));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(pair.sharded.data_version(), expected + 1);

  const auto unknown = pair.sharded.AppendObservation(
      spec.num_objects + 5, ObsAt(1, spec.num_states, 0));
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), util::StatusCode::kNotFound);
}

}  // namespace
}  // namespace core
}  // namespace ustdb
