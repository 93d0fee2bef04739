// ShardedDatabase placement: cluster co-location, stable global ids and
// id-map round trips, registry mirroring against the unsharded twin,
// USTDB_SHARDS resolution, and the rebalance migration (trigger, listener,
// id stability, object integrity after the rebuild).

#include "core/shard_router.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "core/database.h"
#include "testing/random_models.h"
#include "testing/sharded_fixture.h"
#include "testing/test_seed.h"
#include "util/rng.h"

namespace ustdb {
namespace core {
namespace {

using ::ustdb::testing::MakeShardedPair;
using ::ustdb::testing::RandomChain;
using ::ustdb::testing::RandomDistribution;
using ::ustdb::testing::ShardedPair;
using ::ustdb::testing::ShardedSpec;

TEST(ResolveNumShardsTest, RequestedWinsOverEnvironment) {
  setenv("USTDB_SHARDS", "8", 1);
  EXPECT_EQ(ShardedDatabase::ResolveNumShards(3), 3u);
  unsetenv("USTDB_SHARDS");
}

TEST(ResolveNumShardsTest, EnvironmentAppliesWhenUnrequested) {
  setenv("USTDB_SHARDS", "4", 1);
  EXPECT_EQ(ShardedDatabase::ResolveNumShards(0), 4u);
  unsetenv("USTDB_SHARDS");
  EXPECT_EQ(ShardedDatabase::ResolveNumShards(0), 1u);
}

TEST(ResolveNumShardsTest, MalformedEnvironmentIgnored) {
  setenv("USTDB_SHARDS", "lots", 1);
  EXPECT_EQ(ShardedDatabase::ResolveNumShards(0), 1u);
  setenv("USTDB_SHARDS", "-2", 1);
  EXPECT_EQ(ShardedDatabase::ResolveNumShards(0), 1u);
  setenv("USTDB_SHARDS", "0", 1);
  EXPECT_EQ(ShardedDatabase::ResolveNumShards(0), 1u);
  unsetenv("USTDB_SHARDS");
}

/// The submit path's threshold census reads O(chains) counts: a chain's
/// load is its object count minus its objects flagged for the
/// multi-observation engine. Through appends that flag objects (and an
/// object born multi-observation), it must equal the per-object walk over
/// the lock-free mirror at every epoch — same chains in ascending global
/// order, zero loads omitted — at 1, 2 and 4 shards.
TEST(ShardRouterTest, ChainCountCensusMatchesPerObjectWalk) {
  const uint64_t seed = ustdb::testing::TestSeed(310);
  SCOPED_TRACE(ustdb::testing::SeedTrace(seed));
  for (uint32_t num_shards : {1u, 2u, 4u}) {
    SCOPED_TRACE("shards " + std::to_string(num_shards));
    ShardedSpec spec;
    spec.seed = seed;
    spec.num_objects = 60;
    ShardedPair pair = MakeShardedPair(spec, num_shards);
    ShardedDatabase& db = pair.sharded;
    util::Rng rng(seed + num_shards);
    // A single observation after t = 0 needs the multi-observation engine
    // from the start.
    (void)db.AddObjectAt(1, RandomDistribution(spec.num_states, 3, &rng), 2)
        .ValueOrDie();
    std::vector<Timestamp> last(db.num_objects(), 0);
    last.back() = 2;

    using Loads = std::vector<std::pair<ChainId, uint32_t>>;
    const auto walk = [&db] {
      std::map<ChainId, uint32_t> loads;
      for (uint32_t s = 0; s < db.num_shards(); ++s) {
        const Database& shard = db.shard(s);
        for (ObjectId local = 0; local < shard.num_objects(); ++local) {
          if (shard.object_needs_multi_engine(local)) continue;
          ++loads[db.global_chain(s, shard.object(local).chain)];
        }
      }
      return Loads(loads.begin(), loads.end());
    };
    const auto census = [&db] {
      std::map<ChainId, uint32_t> loads;
      for (uint32_t s = 0; s < db.num_shards(); ++s) {
        const Database& shard = db.shard(s);
        for (ChainId c = 0; c < shard.num_chains(); ++c) {
          if (const uint32_t n = shard.single_observation_count(c)) {
            loads[db.global_chain(s, c)] += n;
          }
        }
      }
      return Loads(loads.begin(), loads.end());
    };
    const auto flagged_list_matches = [&db] {
      for (uint32_t s = 0; s < db.num_shards(); ++s) {
        const Database& shard = db.shard(s);
        std::vector<ObjectId> flagged;
        for (ObjectId local = 0; local < shard.num_objects(); ++local) {
          if (shard.object_needs_multi_engine(local)) flagged.push_back(local);
        }
        std::vector<ObjectId> listed = shard.multi_engine_objects();
        std::sort(listed.begin(), listed.end());
        if (listed != flagged) return false;
      }
      return true;
    };

    ASSERT_EQ(census(), walk());
    ASSERT_TRUE(flagged_list_matches());
    for (int step = 0; step < 80; ++step) {
      // Repeats on one object included: only its first append flags it.
      const ObjectId id =
          static_cast<ObjectId>(rng.NextBounded(db.num_objects() / 3));
      last[id] += 1 + static_cast<Timestamp>(rng.NextBounded(3));
      ASSERT_TRUE(db.AppendObservation(
                        id, {last[id], RandomDistribution(spec.num_states,
                                                          spec.num_states,
                                                          &rng)})
                      .ok());
      ASSERT_EQ(census(), walk()) << "after append " << step;
      ASSERT_TRUE(flagged_list_matches()) << "after append " << step;
    }
  }
}

/// Every member of every global cluster must live on one shard — the
/// invariant the bounds-then-refine plan's correctness rests on.
TEST(ShardRouterTest, ClustersStayCoLocated) {
  const uint64_t seed = ustdb::testing::TestSeed(301);
  SCOPED_TRACE(ustdb::testing::SeedTrace(seed));
  ShardedSpec spec;
  spec.seed = seed;
  spec.num_families = 4;
  spec.chains_per_family = 3;
  for (uint32_t shards : {2u, 3u, 8u}) {
    ShardedPair pair = MakeShardedPair(spec, shards);
    for (const ChainCluster& cluster :
         pair.sharded.routing_db().chain_clusters()) {
      const uint32_t home = pair.sharded.shard_of_chain(cluster.members[0]);
      for (ChainId member : cluster.members) {
        EXPECT_EQ(pair.sharded.shard_of_chain(member), home)
            << "cluster split across shards at " << shards << " shards";
      }
    }
  }
}

/// The routing db's registry (ids and clusters) is bit-identical to the
/// unsharded Database built from the same stream, and each shard's local
/// registry mirrors the global assignment for its resident chains.
TEST(ShardRouterTest, RoutingRegistryMatchesUnsharded) {
  const uint64_t seed = ustdb::testing::TestSeed(302);
  SCOPED_TRACE(ustdb::testing::SeedTrace(seed));
  ShardedSpec spec;
  spec.seed = seed;
  ShardedPair pair = MakeShardedPair(spec, 3);

  const Database& routing = pair.sharded.routing_db();
  ASSERT_EQ(routing.num_chains(), pair.unsharded.num_chains());
  EXPECT_EQ(routing.num_objects(), 0u);
  ASSERT_EQ(routing.chain_clusters().size(),
            pair.unsharded.chain_clusters().size());
  for (size_t c = 0; c < routing.chain_clusters().size(); ++c) {
    EXPECT_EQ(routing.chain_clusters()[c].leader,
              pair.unsharded.chain_clusters()[c].leader);
    EXPECT_EQ(routing.chain_clusters()[c].members,
              pair.unsharded.chain_clusters()[c].members);
  }

  // Local mirroring: two chains share a shard-local cluster iff they
  // share a global cluster.
  for (uint32_t s = 0; s < pair.sharded.num_shards(); ++s) {
    const Database& local = pair.sharded.shard(s);
    for (ChainId a = 0; a < local.num_chains(); ++a) {
      for (ChainId b = 0; b < local.num_chains(); ++b) {
        const bool local_together =
            local.cluster_of(a) == local.cluster_of(b);
        const bool global_together =
            routing.cluster_of(pair.sharded.global_chain(s, a)) ==
            routing.cluster_of(pair.sharded.global_chain(s, b));
        EXPECT_EQ(local_together, global_together);
      }
    }
  }
}

/// Global ids equal the unsharded twin's, and every map round-trips.
TEST(ShardRouterTest, IdMapsRoundTrip) {
  const uint64_t seed = ustdb::testing::TestSeed(303);
  SCOPED_TRACE(ustdb::testing::SeedTrace(seed));
  ShardedSpec spec;
  spec.seed = seed;
  ShardedPair pair = MakeShardedPair(spec, 4);

  ASSERT_EQ(pair.sharded.num_objects(), pair.unsharded.num_objects());
  uint32_t resident_total = 0;
  for (uint32_t s = 0; s < pair.sharded.num_shards(); ++s) {
    resident_total += pair.sharded.shard(s).num_objects();
  }
  EXPECT_EQ(resident_total, pair.sharded.num_objects());

  for (ChainId g = 0; g < pair.sharded.num_chains(); ++g) {
    const uint32_t s = pair.sharded.shard_of_chain(g);
    EXPECT_EQ(pair.sharded.global_chain(s, pair.sharded.local_chain(g)), g);
  }
  for (ObjectId g = 0; g < pair.sharded.num_objects(); ++g) {
    const uint32_t s = pair.sharded.shard_of_object(g);
    const ObjectId local = pair.sharded.local_object(g);
    EXPECT_EQ(pair.sharded.global_object(s, local), g);
    // The resident copy holds the same observations as the unsharded twin
    // (chain translated to the shard-local id).
    const UncertainObject& mine = pair.sharded.shard(s).object(local);
    const UncertainObject& twin = pair.unsharded.object(g);
    EXPECT_EQ(pair.sharded.global_chain(s, mine.chain), twin.chain);
    ASSERT_EQ(mine.observations.size(), twin.observations.size());
    EXPECT_EQ(mine.observations[0].time, twin.observations[0].time);
    EXPECT_EQ(mine.observations[0].pdf.ToDense(),
              twin.observations[0].pdf.ToDense());
  }
}

TEST(ShardRouterTest, AddObjectToMissingChainReportsGlobalId) {
  ShardedDatabase db(ShardingOptions{.num_shards = 2});
  util::Rng rng(7);
  (void)db.AddChain(RandomChain(10, 2, &rng));
  const auto result = db.AddObjectAt(5, RandomDistribution(10, 2, &rng));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().message(), "chain 5 does not exist");
}

/// Drives a deliberately skewed load until the rebalance migrates one
/// cluster, then checks: the trigger fired once, the listener saw it,
/// global ids survived, maps round-trip, and the migrated objects are
/// intact on their new shard.
TEST(ShardRouterTest, RebalanceMigratesOneClusterAndKeepsIds) {
  const uint64_t seed = ustdb::testing::TestSeed(304);
  SCOPED_TRACE(ustdb::testing::SeedTrace(seed));
  util::Rng rng(seed);
  constexpr uint32_t kStates = 20;

  ShardedDatabase db(ShardingOptions{.num_shards = 2, .load_factor = 1.5});
  std::vector<std::pair<uint32_t, uint32_t>> migrations;
  db.SetRebalanceListener([&migrations](uint32_t from, uint32_t to) {
    migrations.emplace_back(from, to);
  });

  // Three independent chains (three clusters; equal per-object weight).
  // Seeding a few objects on a and b lets earlier rebalances settle;
  // flooding c then overloads its shard until moving b's (lighter)
  // cluster toward a is the best strict improvement.
  const ChainId a = db.AddChain(RandomChain(kStates, 3, &rng));
  const ChainId b = db.AddChain(RandomChain(kStates, 3, &rng));
  const ChainId c = db.AddChain(RandomChain(kStates, 3, &rng));
  ASSERT_EQ(db.routing_db().chain_clusters().size(), 3u)
      << "independent chains unexpectedly clustered together";

  std::vector<sparse::ProbVector> pdfs;
  std::vector<ObjectId> ids;
  const auto add = [&](ChainId chain) {
    pdfs.push_back(RandomDistribution(kStates, 3, &rng));
    ids.push_back(
        db.AddObjectAt(chain, sparse::ProbVector(pdfs.back())).ValueOrDie());
    // Mirror insertion's one-time normalization so the saved copy stays
    // bit-comparable to the stored pdf even across a migration rebuild.
    ASSERT_TRUE(pdfs.back().Normalize().ok());
  };
  for (int i = 0; i < 4; ++i) add(a);
  add(b);
  ASSERT_NE(db.shard_of_chain(a), db.shard_of_chain(b));
  const uint64_t before = db.rebalances();
  migrations.clear();
  for (int i = 0; i < 20 && db.rebalances() == before; ++i) add(c);

  ASSERT_EQ(db.rebalances(), before + 1) << "skewed load never rebalanced";
  ASSERT_EQ(migrations.size(), 1u);
  EXPECT_EQ(migrations[0].first, db.shard_of_chain(c));   // overloaded source
  EXPECT_EQ(migrations[0].second, db.shard_of_chain(b));  // b migrated there

  // B moved next to A; C stayed. Ids and contents survived the rebuild.
  EXPECT_EQ(db.shard_of_chain(b), db.shard_of_chain(a));
  for (size_t i = 0; i < ids.size(); ++i) {
    const ObjectId g = ids[i];
    EXPECT_EQ(g, static_cast<ObjectId>(i));  // global ids are insertion order
    const uint32_t s = db.shard_of_object(g);
    const ObjectId local = db.local_object(g);
    EXPECT_EQ(db.global_object(s, local), g);
    EXPECT_EQ(db.shard(s).object(local).observations[0].pdf.ToDense(),
              pdfs[i].ToDense());
  }
  // Loads still account for every object.
  uint64_t total = 0;
  for (uint32_t s = 0; s < db.num_shards(); ++s) total += db.shard_load(s);
  uint64_t expected = 0;
  for (ObjectId g = 0; g < db.num_objects(); ++g) {
    const uint32_t s = db.shard_of_object(g);
    const ChainId chain = db.shard(s).object(db.local_object(g)).chain;
    expected += db.shard(s).chain(chain).matrix().nnz();
  }
  EXPECT_EQ(total, expected);
}

}  // namespace
}  // namespace core
}  // namespace ustdb
