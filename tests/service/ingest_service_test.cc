// Service ingest front door: const-constructed services keep ingest
// disabled, mutable ones apply appends with monotonic versions and
// serialize against the owning shard's dispatch, validation failures are
// counted and leave the database untouched, and — the central parity
// property — a database grown by N interleaved AppendObservation calls
// answers every query bit-identically to a database bulk-loaded with the
// final observation state, at 1, 2, and 4 shards. A reader/ingest hammer
// (run under TSan in CI) pins the concurrency contract: queries may run
// while observations land, and every answer reflects a consistent epoch.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "core/executor.h"
#include "core/query_request.h"
#include "core/query_window.h"
#include "core/shard_router.h"
#include "markov/markov_chain.h"
#include "obs/trace.h"
#include "service/query_service.h"
#include "sparse/prob_vector.h"
#include "testing/random_models.h"
#include "testing/sharded_fixture.h"
#include "testing/test_seed.h"
#include "util/rng.h"

namespace ustdb {
namespace service {
namespace {

using ::ustdb::testing::MakeShardedPair;
using ::ustdb::testing::PaperChainV;
using ::ustdb::testing::RandomDistribution;
using ::ustdb::testing::ShardedPair;
using ::ustdb::testing::ShardedSpec;

constexpr auto kGetTimeout = std::chrono::milliseconds(60'000);

util::Result<core::QueryResult> GetWithin(QueryTicket* ticket) {
  EXPECT_TRUE(ticket->WaitFor(kGetTimeout)) << "ticket never resolved";
  return ticket->Get();
}

core::Observation ObsAt(Timestamp t, uint32_t n, uint32_t state) {
  return {t, sparse::ProbVector::Delta(n, state)};
}

/// Uniform full-support observation: consistent with every possible
/// world, so objects carrying it always survive the Section VI engine's
/// reachability conditioning.
core::Observation UniformObs(Timestamp t, uint32_t n) {
  std::vector<std::pair<uint32_t, double>> pairs;
  for (uint32_t i = 0; i < n; ++i) pairs.emplace_back(i, 1.0);
  return {t, sparse::ProbVector::FromPairs(n, std::move(pairs),
                                           /*normalize=*/true)
                 .ValueOrDie()};
}

/// The one-shard database the single-executor service routes.
core::ShardedDatabase OneShard() {
  return core::ShardedDatabase(core::ShardingOptions{.num_shards = 1});
}

TEST(IngestServiceTest, ConstServiceKeepsIngestDisabled) {
  core::ShardedDatabase db = OneShard();
  const ChainId chain = db.AddChain(PaperChainV());
  ASSERT_TRUE(db.AddObjectAt(chain, sparse::ProbVector::Delta(3, 0)).ok());

  const core::ShardedDatabase* frozen = &db;
  QueryService service(frozen);
  const auto result = service.AppendObservation(0, ObsAt(1, 3, 1));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kFailedPrecondition);
  EXPECT_EQ(db.data_version(), 0u);
}

TEST(IngestServiceTest, MutableServiceAppliesWithMonotonicVersions) {
  core::ShardedDatabase db = OneShard();
  const ChainId chain = db.AddChain(PaperChainV());
  ASSERT_TRUE(db.AddObjectAt(chain, sparse::ProbVector::Delta(3, 0)).ok());
  ASSERT_TRUE(db.AddObjectAt(chain, sparse::ProbVector::Delta(3, 1)).ok());

  QueryService service(&db);
  DataVersion last = 0;
  for (Timestamp t = 1; t <= 3; ++t) {
    const auto version = service.AppendObservation(0, UniformObs(t, 3));
    ASSERT_TRUE(version.ok()) << version.status();
    EXPECT_GT(version.value(), last);
    last = version.value();
  }
  EXPECT_EQ(db.data_version(), last);

  // Rejections: unknown object, duplicate timestamp. Both counted, both
  // leaving the shard's data untouched; the rejected duplicate burns the
  // global version it was allocated (ShardedDatabase::AppendObservation).
  EXPECT_EQ(service.AppendObservation(9, ObsAt(4, 3, 0)).status().code(),
            util::StatusCode::kNotFound);
  EXPECT_EQ(service.AppendObservation(0, ObsAt(3, 3, 0)).status().code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(db.shard(0).data_version(), last);
  EXPECT_EQ(db.data_version(), last + 1);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.ingested, 3u);
  EXPECT_EQ(stats.ingest_rejected, 2u);

  // Serving continues over the mutated database.
  core::QueryRequest request;
  request.predicate = core::PredicateKind::kExists;
  request.window = core::QueryWindow::FromRanges(3, 0, 2, 1, 4).ValueOrDie();
  QueryTicket ticket = service.Submit(std::move(request));
  const auto answer = GetWithin(&ticket);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(answer.value().epoch, last);
}

TEST(IngestServiceTest, ShutdownRejectsIngest) {
  core::ShardedDatabase db = OneShard();
  const ChainId chain = db.AddChain(PaperChainV());
  ASSERT_TRUE(db.AddObjectAt(chain, sparse::ProbVector::Delta(3, 0)).ok());
  QueryService service(&db);
  service.Shutdown();
  const auto result = service.AppendObservation(0, ObsAt(1, 3, 1));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kUnavailable);
}

TEST(IngestServiceTest, IngestTraceRecordsTheApplySpan) {
  core::ShardedDatabase db = OneShard();
  const ChainId chain = db.AddChain(PaperChainV());
  ASSERT_TRUE(db.AddObjectAt(chain, sparse::ProbVector::Delta(3, 0)).ok());
  QueryService service(&db);

  auto applied = std::make_shared<obs::QueryTrace>();
  ASSERT_TRUE(service.AppendObservation(0, ObsAt(1, 3, 1), applied).ok());
  auto rejected = std::make_shared<obs::QueryTrace>();
  ASSERT_FALSE(service.AppendObservation(0, ObsAt(1, 3, 1), rejected).ok());

  const auto applied_spans = applied->spans();
  ASSERT_EQ(applied_spans.size(), 1u);
  EXPECT_EQ(applied_spans[0].stage, obs::Stage::kIngest);
  EXPECT_EQ(applied_spans[0].detail, "applied");
  const auto rejected_spans = rejected->spans();
  ASSERT_EQ(rejected_spans.size(), 1u);
  EXPECT_EQ(rejected_spans[0].detail, "rejected");
}

/// One random read query over the fixture's domain. Gap windows and
/// filters included; kKTimes excluded (appends create multi-observation
/// objects, for which PSTkQ is outside the paper's framework).
core::QueryRequest RandomReadRequest(const ShardedSpec& spec,
                                     util::Rng* rng) {
  core::QueryRequest request;
  switch (rng->NextBounded(4)) {
    case 0:
      request.predicate = core::PredicateKind::kExists;
      break;
    case 1:
      request.predicate = core::PredicateKind::kForAll;
      break;
    case 2:
      request.predicate = core::PredicateKind::kThresholdExists;
      request.tau = 0.05 + 0.5 * rng->NextDouble();
      break;
    default:
      request.predicate = core::PredicateKind::kTopKExists;
      request.k = 1 + rng->NextBounded(12);
      break;
  }
  const uint32_t n = spec.num_states;
  const uint32_t s_lo = static_cast<uint32_t>(rng->NextBounded(n - 8));
  const uint32_t s_hi = s_lo + 1 + static_cast<uint32_t>(rng->NextBounded(6));
  const Timestamp t_lo = 1 + static_cast<Timestamp>(rng->NextBounded(4));
  const Timestamp t_hi = t_lo + 1 + static_cast<Timestamp>(rng->NextBounded(5));
  request.window =
      core::QueryWindow::FromRanges(n, s_lo, s_hi, t_lo, t_hi).ValueOrDie();
  if (rng->NextBounded(3) == 0) {
    std::vector<ObjectId> filter;
    const uint32_t count =
        1 + static_cast<uint32_t>(rng->NextBounded(spec.num_objects / 2));
    for (uint32_t i = 0; i < count; ++i) {
      filter.push_back(
          static_cast<ObjectId>(rng->NextBounded(spec.num_objects)));
    }
    request.object_filter = std::move(filter);
  }
  return request;
}

void ExpectSamePayload(const core::QueryResult& a,
                       const core::QueryResult& b) {
  ASSERT_EQ(a.probabilities.size(), b.probabilities.size());
  for (size_t i = 0; i < b.probabilities.size(); ++i) {
    EXPECT_EQ(a.probabilities[i].id, b.probabilities[i].id);
    EXPECT_EQ(a.probabilities[i].probability, b.probabilities[i].probability)
        << "probability drift at entry " << i;
  }
}

class IngestRebuildParityTest : public ::testing::TestWithParam<uint32_t> {};

/// N interleaved appends and queries through the service, at every shard
/// count: (a) mid-stream, the sharded service answers bit-identically to
/// a QueryExecutor over the unsharded twin, grown by the same appends, at
/// the same epoch; (b) after the stream, a FRESH database bulk-loaded with
/// the final observation state answers every probe bit-identically to the
/// grown one — ingest leaves no trace an equivalent cold load would not
/// have.
TEST_P(IngestRebuildParityTest, GrownEqualsRebuilt) {
  const uint64_t seed = ustdb::testing::TestSeed(650);
  SCOPED_TRACE(ustdb::testing::SeedTrace(seed));
  SCOPED_TRACE("shards=" + std::to_string(GetParam()));
  ShardedSpec spec;
  spec.seed = seed;
  spec.num_objects = 72;
  ShardedPair pair = MakeShardedPair(spec, GetParam());

  ServiceOptions options;
  options.executor.num_threads = 2;
  core::QueryExecutor twin(&pair.unsharded, {.num_threads = 2});
  QueryService sharded(&pair.sharded, options);

  util::Rng rng(seed ^ 0x16E57);
  std::vector<Timestamp> next_time(spec.num_objects, 1);
  for (int round = 0; round < 80; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    if (rng.NextBounded(2) == 0) {
      const ObjectId id =
          static_cast<ObjectId>(rng.NextBounded(spec.num_objects));
      core::Observation obs{next_time[id],
                            RandomDistribution(spec.num_states, spec.num_states, &rng)};
      next_time[id] += 1 + rng.NextBounded(3);
      // The SAME observation into both databases; versions agree
      // because both share one append history.
      const auto va =
          pair.unsharded.AppendObservation(id, core::Observation(obs));
      const auto vb = sharded.AppendObservation(id, std::move(obs));
      ASSERT_TRUE(va.ok()) << va.status();
      ASSERT_TRUE(vb.ok()) << vb.status();
      EXPECT_EQ(va.value(), vb.value());
    } else {
      const core::QueryRequest request = RandomReadRequest(spec, &rng);
      const auto ra = twin.Run(request);
      QueryTicket b = sharded.Submit(core::QueryRequest(request));
      const auto rb = GetWithin(&b);
      ASSERT_EQ(ra.ok(), rb.ok()) << ra.status() << " vs " << rb.status();
      if (!ra.ok()) continue;
      ExpectSamePayload(rb.value(), ra.value());
      EXPECT_EQ(ra.value().epoch, pair.unsharded.data_version());
      // The sharded epoch max-merges over the shards that answered: an
      // unfiltered query spans every shard and lands on the global
      // version; a filtered one reflects only the owning shards, which
      // may trail it.
      if (request.object_filter.has_value()) {
        EXPECT_LE(rb.value().epoch, ra.value().epoch);
      } else {
        EXPECT_EQ(rb.value().epoch, ra.value().epoch);
      }
    }
  }
  const DataVersion final_epoch = pair.unsharded.data_version();
  EXPECT_EQ(pair.sharded.data_version(), final_epoch);

  // Bulk-load a fresh database with the grown database's final state.
  // ReAddNormalizedObject re-inserts the exact pdf bits (observations
  // already normalized once on their way in), so any payload difference
  // below would be a real ingest-path defect, not float noise.
  core::Database rebuilt;
  for (ChainId c = 0; c < pair.unsharded.num_chains(); ++c) {
    rebuilt.AddChain(markov::MarkovChain(pair.unsharded.chain(c)));
  }
  for (ObjectId id = 0; id < pair.unsharded.num_objects(); ++id) {
    const core::UncertainObject& obj = pair.unsharded.object(id);
    rebuilt.ReAddNormalizedObject(obj.chain, obj.observations);
  }
  core::QueryExecutor reference(&rebuilt, {.num_threads = 1});

  for (int probe = 0; probe < 25; ++probe) {
    SCOPED_TRACE("probe " + std::to_string(probe));
    const core::QueryRequest request = RandomReadRequest(spec, &rng);
    const auto want = reference.Run(request);
    const auto ra = twin.Run(request);
    QueryTicket b = sharded.Submit(core::QueryRequest(request));
    const auto rb = GetWithin(&b);
    ASSERT_EQ(ra.ok(), want.ok()) << ra.status() << " vs " << want.status();
    ASSERT_EQ(rb.ok(), want.ok());
    if (!want.ok()) continue;
    ExpectSamePayload(ra.value(), want.value());
    ExpectSamePayload(rb.value(), want.value());
    // The grown databases name the epoch they serve; the rebuilt one is
    // frozen at 0 by construction.
    EXPECT_EQ(ra.value().epoch, final_epoch);
    EXPECT_EQ(want.value().epoch, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, IngestRebuildParityTest,
                         ::testing::Values(1u, 2u, 4u));

/// Readers and the ingester race freely: submissions overlap appends on
/// every shard. Run under TSan in CI to pin the locking contract (the
/// per-shard ingest lock vs the dispatcher's run lock, the census
/// mirror's atomics, the epoch stamps).
TEST(IngestServiceTest, ConcurrentReadersAndIngestAreRaceFree) {
  const uint64_t seed = ustdb::testing::TestSeed(651);
  SCOPED_TRACE(ustdb::testing::SeedTrace(seed));
  ShardedSpec spec;
  spec.seed = seed;
  spec.num_objects = 48;
  ShardedPair pair = MakeShardedPair(spec, 2);

  ServiceOptions options;
  options.executor.num_threads = 2;
  QueryService service(&pair.sharded, options);

  constexpr int kReaders = 2;
  constexpr int kQueriesPerReader = 30;
  constexpr int kAppends = 60;
  std::atomic<uint32_t> answered{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      util::Rng rng(seed ^ (0xA0u + r));
      for (int q = 0; q < kQueriesPerReader; ++q) {
        QueryTicket ticket = service.Submit(RandomReadRequest(spec, &rng));
        const auto result = GetWithin(&ticket);
        ASSERT_TRUE(result.ok()) << result.status();
        answered.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  util::Rng rng(seed ^ 0x17);
  std::vector<Timestamp> next_time(spec.num_objects, 1);
  for (int i = 0; i < kAppends; ++i) {
    const ObjectId id =
        static_cast<ObjectId>(rng.NextBounded(spec.num_objects));
    core::Observation obs{next_time[id],
                          RandomDistribution(spec.num_states, spec.num_states, &rng)};
    next_time[id] += 1 + rng.NextBounded(3);
    const auto version = service.AppendObservation(id, std::move(obs));
    ASSERT_TRUE(version.ok()) << version.status();
  }
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(answered.load(), kReaders * kQueriesPerReader);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.ingested, static_cast<uint64_t>(kAppends));
  EXPECT_EQ(pair.sharded.data_version(), static_cast<DataVersion>(kAppends));
}

}  // namespace
}  // namespace service
}  // namespace ustdb
