// RunBatch — batched execution with shared backward passes. The contract
// under test: every member's answer equals a solo Run of the same request
// (bit-identical whenever both pick the same plan, which the parity
// fixtures guarantee by construction), errors stay per-member, and
// same-window requests share one group / one backward pass.

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/executor.h"
#include "core/query_based.h"
#include "obs/trace.h"
#include "testing/random_models.h"
#include "util/rng.h"
#include "workload/query_gen.h"

namespace ustdb {
namespace core {
namespace {

using ::ustdb::testing::PaperChainVI;
using ::ustdb::testing::RandomChain;
using ::ustdb::testing::RandomDistribution;

// Chains get enough objects that the solo cost model already prefers the
// query-based plan, so batch amortization never flips a plan and parity
// is bit-for-bit (the flip case is exercised separately below).
Database MakeDb(uint32_t num_chains, uint32_t num_objects, uint64_t seed,
                uint32_t num_states = 30) {
  util::Rng rng(seed);
  Database db;
  std::vector<ChainId> chains;
  for (uint32_t c = 0; c < num_chains; ++c) {
    chains.push_back(db.AddChain(RandomChain(num_states, 3, &rng)));
  }
  for (uint32_t i = 0; i < num_objects; ++i) {
    (void)db.AddObjectAt(chains[i % num_chains],
                         RandomDistribution(num_states, 3, &rng))
        .ValueOrDie();
  }
  return db;
}

workload::QueryGenConfig StreamConfig(uint32_t num_states = 30) {
  workload::QueryGenConfig config;
  config.num_states = num_states;
  config.region_extent = num_states < 5 ? 2 : 5;
  config.window_length = 4;
  config.t_min = 1;
  config.t_max = 8;
  config.seed = 515;
  return config;
}

void ExpectSameResult(const QueryResult& batch, const QueryResult& solo) {
  ASSERT_EQ(batch.probabilities.size(), solo.probabilities.size());
  for (size_t i = 0; i < solo.probabilities.size(); ++i) {
    EXPECT_EQ(batch.probabilities[i].id, solo.probabilities[i].id);
    EXPECT_DOUBLE_EQ(batch.probabilities[i].probability,
                     solo.probabilities[i].probability);
  }
  ASSERT_EQ(batch.distributions.size(), solo.distributions.size());
  for (size_t i = 0; i < solo.distributions.size(); ++i) {
    EXPECT_EQ(batch.distributions[i].id, solo.distributions[i].id);
    EXPECT_EQ(batch.distributions[i].distribution,
              solo.distributions[i].distribution);
  }
}

TEST(ExecutorBatchTest, EmptyBatch) {
  Database db = MakeDb(1, 4, 100);
  QueryExecutor executor(&db);
  EXPECT_TRUE(executor.RunBatch({}).empty());
  EXPECT_EQ(executor.cache_stats().hits, 0u);
  EXPECT_EQ(executor.cache_stats().misses, 0u);
}

TEST(ExecutorBatchTest, ParityWithSoloRunAcrossMixedWorkload) {
  Database db = MakeDb(2, 24, 101);
  const auto stream =
      workload::MixedRequestWorkload(StreamConfig(), 5, 80).ValueOrDie();

  QueryExecutor batch_exec(&db, {.num_threads = 2, .cache_capacity = 8});
  QueryExecutor solo_exec(&db, {.num_threads = 2, .cache_capacity = 8});
  const auto batch = batch_exec.RunBatch(stream);
  ASSERT_EQ(batch.size(), stream.size());
  for (size_t i = 0; i < stream.size(); ++i) {
    const auto solo = solo_exec.Run(stream[i]);
    ASSERT_EQ(batch[i].ok(), solo.ok()) << "request " << i;
    if (!solo.ok()) continue;
    ExpectSameResult(batch[i].value(), solo.value());
  }
}

TEST(ExecutorBatchTest, ParityIncludesMultiObservationObjects) {
  util::Rng rng(77);
  Database db;
  const ChainId paper = db.AddChain(PaperChainVI());
  std::vector<Observation> obs;
  obs.push_back({0, sparse::ProbVector::Delta(3, 0)});
  obs.push_back({3, sparse::ProbVector::Delta(3, 1)});
  (void)db.AddObject(paper, obs).ValueOrDie();
  for (int i = 0; i < 6; ++i) {
    (void)db.AddObjectAt(paper, RandomDistribution(3, 2, &rng)).ValueOrDie();
  }

  const auto stream =
      workload::MixedRequestWorkload(StreamConfig(3), 3, 40).ValueOrDie();
  QueryExecutor batch_exec(&db, {.num_threads = 1});
  QueryExecutor solo_exec(&db, {.num_threads = 1});
  const auto batch = batch_exec.RunBatch(stream);
  ASSERT_EQ(batch.size(), stream.size());
  bool saw_ktimes_error = false;
  for (size_t i = 0; i < stream.size(); ++i) {
    const auto solo = solo_exec.Run(stream[i]);
    ASSERT_EQ(batch[i].ok(), solo.ok()) << "request " << i;
    if (!solo.ok()) {
      // PSTkQ over the multi-observation object fails identically per
      // member without poisoning the rest of the batch.
      EXPECT_EQ(batch[i].status().code(), solo.status().code());
      saw_ktimes_error = true;
      continue;
    }
    ExpectSameResult(batch[i].value(), solo.value());
  }
  EXPECT_TRUE(saw_ktimes_error);
}

TEST(ExecutorBatchTest, PinnedPlansStayPinnedAndBitIdentical) {
  Database db = MakeDb(2, 10, 102);
  const QueryWindow window =
      QueryWindow::FromRanges(30, 6, 12, 3, 8).ValueOrDie();

  std::vector<QueryRequest> requests;
  for (PlanChoice plan : {PlanChoice::kObjectBased, PlanChoice::kQueryBased,
                          PlanChoice::kAuto}) {
    QueryRequest request;
    request.predicate = PredicateKind::kExists;
    request.window = window;
    request.plan = plan;
    requests.push_back(request);
  }

  QueryExecutor executor(&db, {.num_threads = 1});
  const auto batch = executor.RunBatch(requests);
  ASSERT_EQ(batch.size(), 3u);
  QueryExecutor solo(&db, {.num_threads = 1});
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(batch[i].ok());
    const auto want = solo.Run(requests[i]).ValueOrDie();
    ExpectSameResult(batch[i].value(), want);
  }
  // All three share one group (same window and mode) even though their
  // plans differ; the OB member must have run object-based.
  EXPECT_EQ(batch[0]->stats.batch_group_members, 3u);
  EXPECT_EQ(batch[0]->stats.chains_object_based, 2u);
  EXPECT_EQ(batch[1]->stats.chains_query_based, 2u);
}

TEST(ExecutorBatchTest, SameWindowRequestsShareOneBackwardPass) {
  Database db = MakeDb(1, 16, 103);
  const QueryWindow window =
      QueryWindow::FromRanges(30, 4, 9, 2, 7).ValueOrDie();
  std::vector<QueryRequest> requests(8);
  for (auto& request : requests) {
    request.predicate = PredicateKind::kExists;
    request.window = window;
  }

  QueryExecutor executor(&db, {.num_threads = 2, .cache_capacity = 4});
  const auto first = executor.RunBatch(requests);
  ASSERT_EQ(first.size(), 8u);
  // One group, one backward pass: exactly one cache miss, reported on the
  // first member; the other members carry no cache traffic of their own.
  EXPECT_EQ(first[0]->stats.cache_misses, 1u);
  EXPECT_EQ(first[0]->stats.cache_hits, 0u);
  for (size_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(first[i].ok());
    EXPECT_EQ(first[i]->stats.batch_group_members, 8u);
    EXPECT_EQ(first[i]->stats.chains_query_based, 1u);
    if (i > 0) {
      EXPECT_EQ(first[i]->stats.cache_misses, 0u);
      EXPECT_EQ(first[i]->stats.cache_hits, 0u);
    }
  }

  // The pass built inside the batch was admitted to the cache: the next
  // refresh of the same dashboard borrows it instead of rebuilding.
  const auto second = executor.RunBatch(requests);
  EXPECT_EQ(second[0]->stats.cache_hits, 1u);
  EXPECT_EQ(second[0]->stats.cache_misses, 0u);
  // And a solo Run of the same window hits the very same entry.
  QueryRequest solo;
  solo.predicate = PredicateKind::kExists;
  solo.window = window;
  const auto solo_result = executor.Run(solo).ValueOrDie();
  EXPECT_EQ(solo_result.stats.cache_hits, 1u);
}

TEST(ExecutorBatchTest, ForAllGroupsApartFromExistsOnSameWindow) {
  Database db = MakeDb(1, 12, 104);
  const QueryWindow window =
      QueryWindow::FromRanges(30, 4, 9, 2, 7).ValueOrDie();
  std::vector<QueryRequest> requests(2);
  requests[0].predicate = PredicateKind::kExists;
  requests[0].window = window;
  requests[1].predicate = PredicateKind::kForAll;
  requests[1].window = window;

  QueryExecutor executor(&db, {.num_threads = 1});
  const auto batch = executor.RunBatch(requests);
  // ∀ evaluates on the complemented region — a different backward pass, so
  // the two requests must not share a group.
  EXPECT_EQ(batch[0]->stats.batch_group_members, 1u);
  EXPECT_EQ(batch[1]->stats.batch_group_members, 1u);

  QueryExecutor solo(&db, {.num_threads = 1});
  for (size_t i = 0; i < 2; ++i) {
    ExpectSameResult(batch[i].value(), solo.Run(requests[i]).ValueOrDie());
  }
}

TEST(ExecutorBatchTest, PerMemberErrorsDoNotPoisonTheBatch) {
  Database db = MakeDb(1, 6, 105);
  const QueryWindow window =
      QueryWindow::FromRanges(30, 4, 9, 2, 7).ValueOrDie();
  std::vector<QueryRequest> requests(3);
  requests[0].predicate = PredicateKind::kExists;
  requests[0].window = window;
  requests[1].predicate = PredicateKind::kExists;
  requests[1].window = window;
  requests[1].object_filter = std::vector<ObjectId>{99};  // out of range
  requests[2].predicate = PredicateKind::kTopKExists;
  requests[2].window = window;
  requests[2].k = 3;

  QueryExecutor executor(&db, {.num_threads = 1});
  const auto batch = executor.RunBatch(requests);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_TRUE(batch[0].ok());
  ASSERT_FALSE(batch[1].ok());
  EXPECT_EQ(batch[1].status().code(), util::StatusCode::kInvalidArgument);
  ASSERT_TRUE(batch[2].ok());
  EXPECT_EQ(batch[2]->probabilities.size(), 3u);
  // The failed member never joined the group.
  EXPECT_EQ(batch[0]->stats.batch_group_members, 2u);
}

TEST(ExecutorBatchTest, CacheStatsFallToFirstSuccessfulMember) {
  // The first member of the group fails mid-evaluation (its filtered
  // object carries contradictory observations); the group's cache
  // counters must not vanish with it but land on the next member.
  Database db;
  const ChainId chain = db.AddChain(PaperChainVI());
  std::vector<Observation> contradictory;
  contradictory.push_back({0, sparse::ProbVector::Delta(3, 0)});
  contradictory.push_back({1, sparse::ProbVector::Delta(3, 0)});
  const ObjectId bad = db.AddObject(chain, contradictory).ValueOrDie();
  const ObjectId good =
      db.AddObjectAt(chain, sparse::ProbVector::Delta(3, 1)).ValueOrDie();

  const QueryWindow window =
      QueryWindow::FromRanges(3, 0, 1, 1, 2).ValueOrDie();
  std::vector<QueryRequest> requests(2);
  requests[0].predicate = PredicateKind::kExists;
  requests[0].window = window;
  requests[0].object_filter = std::vector<ObjectId>{bad};
  requests[1].predicate = PredicateKind::kExists;
  requests[1].window = window;
  requests[1].object_filter = std::vector<ObjectId>{good};
  requests[1].plan = PlanChoice::kQueryBased;  // forces one cache miss

  QueryExecutor executor(&db, {.num_threads = 1});
  const auto batch = executor.RunBatch(requests);
  ASSERT_FALSE(batch[0].ok());
  EXPECT_EQ(batch[0].status().code(), util::StatusCode::kInconsistent);
  ASSERT_TRUE(batch[1].ok());
  EXPECT_EQ(batch[1]->stats.cache_misses, 1u);
  EXPECT_EQ(batch[1]->stats.batch_group_members, 2u);
}

TEST(ExecutorBatchTest, BatchCostModelAmortizesSparseChainsToQueryBased) {
  // One object per chain: a solo run picks the object-based plan for every
  // chain (nothing to amortize), but a 16-request batch shares one
  // backward pass per chain, so PlanBatch flips the group to query-based.
  Database db = MakeDb(4, 4, 106);
  const QueryWindow window =
      QueryWindow::FromRanges(30, 6, 12, 3, 8).ValueOrDie();
  QueryRequest request;
  request.predicate = PredicateKind::kExists;
  request.window = window;

  QueryExecutor solo(&db, {.num_threads = 1});
  const auto solo_result = solo.Run(request).ValueOrDie();
  EXPECT_EQ(solo_result.stats.chains_object_based, 4u);

  std::vector<QueryRequest> requests(16, request);
  QueryExecutor batch_exec(&db, {.num_threads = 1});
  const auto batch = batch_exec.RunBatch(requests);
  for (const auto& member : batch) {
    ASSERT_TRUE(member.ok());
    EXPECT_EQ(member->stats.chains_query_based, 4u);
    EXPECT_EQ(member->stats.chains_object_based, 0u);
    // Plans differ from the solo run, so the answers agree to rounding
    // (both plans are exact) rather than bit-for-bit.
    ASSERT_EQ(member->probabilities.size(),
              solo_result.probabilities.size());
    for (size_t i = 0; i < solo_result.probabilities.size(); ++i) {
      EXPECT_NEAR(member->probabilities[i].probability,
                  solo_result.probabilities[i].probability, 1e-10);
    }
  }
}

TEST(ExecutorBatchTest, IntraGroupSplittingIsBitIdenticalToSequential) {
  // A single-window batch forms one group; on a multi-threaded executor
  // the scheduler splits each member's object range into
  // kStopCheckStride-object subtasks across the pool. Splitting must be
  // invisible in the results: bit-identical to the sequential executor
  // and to solo runs.
  Database db = MakeDb(1, 300, 109);
  const QueryWindow window =
      QueryWindow::FromRanges(30, 6, 12, 3, 8).ValueOrDie();
  QueryRequest request;
  request.predicate = PredicateKind::kExists;
  request.window = window;
  std::vector<QueryRequest> requests(8, request);

  QueryExecutor split_exec(&db, {.num_threads = 4});
  QueryExecutor seq_exec(&db, {.num_threads = 1});
  QueryExecutor solo_exec(&db, {.num_threads = 1});
  const auto split = split_exec.RunBatch(requests);
  const auto seq = seq_exec.RunBatch(requests);
  ASSERT_EQ(split.size(), 8u);
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(split[i].ok());
    ASSERT_TRUE(seq[i].ok());
    ExpectSameResult(split[i].value(), seq[i].value());
    const auto solo = solo_exec.Run(requests[i]).ValueOrDie();
    ExpectSameResult(split[i].value(), solo);

    // 300 objects / 64-object stride = 5 subtasks per member, reported on
    // both executors (the sequential one simply runs them in order).
    EXPECT_EQ(split[i]->stats.group_subtasks, 5u);
    EXPECT_EQ(seq[i]->stats.group_subtasks, 5u);
    EXPECT_EQ(split[i]->stats.batch_group_members, 8u);
  }
  // A Run is a one-member batch: it splits into the same 5 subtasks.
  EXPECT_EQ(solo_exec.last_run_stats().group_subtasks, 5u);
}

TEST(ExecutorBatchTest, IntraGroupSplittingCoversKTimesAndThreshold) {
  Database db = MakeDb(2, 150, 110);
  const QueryWindow window =
      QueryWindow::FromRanges(30, 4, 9, 2, 6).ValueOrDie();
  QueryRequest ktimes;
  ktimes.predicate = PredicateKind::kKTimes;
  ktimes.window = window;
  QueryRequest threshold;
  threshold.predicate = PredicateKind::kThresholdExists;
  threshold.window = window;
  threshold.tau = 0.2;
  std::vector<QueryRequest> requests{ktimes, threshold, ktimes, threshold};

  QueryExecutor split_exec(&db, {.num_threads = 3});
  QueryExecutor solo_exec(&db, {.num_threads = 1});
  const auto split = split_exec.RunBatch(requests);
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(split[i].ok()) << split[i].status().ToString();
    EXPECT_EQ(split[i]->stats.group_subtasks, 3u);  // ceil(150 / 64)
    ExpectSameResult(split[i].value(),
                     solo_exec.Run(requests[i]).ValueOrDie());
  }
}

TEST(ExecutorBatchTest, EmptySelectionMemberObservesLateCancellation) {
  // A member with zero objects produces no subtasks, so the assembly
  // phase polls its stop state once: cancellation arriving after the
  // submission check must still resolve the member with kCancelled, as
  // the sequential member loop did.
  Database db = MakeDb(1, 8, 111);
  const QueryWindow window =
      QueryWindow::FromRanges(30, 6, 12, 3, 8).ValueOrDie();
  QueryRequest empty;
  empty.predicate = PredicateKind::kExists;
  empty.window = window;
  empty.object_filter.emplace();  // evaluates nothing
  util::CancellationSource source;
  // Budget: the submission-time check passes, the assembly-phase poll
  // trips (deterministic: this request is polled nowhere else).
  source.RequestStopAfterPolls(1);
  empty.cancel = source.token();
  QueryRequest normal;
  normal.predicate = PredicateKind::kExists;
  normal.window = window;

  QueryExecutor executor(&db, {.num_threads = 1});
  std::vector<QueryRequest> requests{empty, normal};
  const auto results = executor.RunBatch(requests);
  EXPECT_EQ(results[0].status().code(), util::StatusCode::kCancelled);
  ASSERT_TRUE(results[1].ok());
  EXPECT_EQ(results[1]->probabilities.size(), 8u);
}

/// The evaluate span's detail, "" when the trace has none.
std::string EvaluateDetail(const obs::QueryTrace& trace) {
  for (const obs::TraceSpan& span : trace.spans()) {
    if (span.stage == obs::Stage::kEvaluate) return span.detail;
  }
  return "";
}

TEST(ExecutorBatchTest, GroupPassAnswersAreBitIdenticalToColdSoloRuns) {
  // One batch on one window holding every kind of member a group pass
  // serves or skips, next to a group of filtered members only. Each chain
  // holds enough objects that kAuto picks query-based alone as in the
  // batch, so every member decides the same plan per chain either way and
  // its answer must match a cold solo run bit for bit.
  util::Rng rng(2211);
  constexpr uint32_t kStates = 30;
  Database db;
  std::vector<ChainId> chains;
  for (int c = 0; c < 3; ++c) {
    chains.push_back(db.AddChain(RandomChain(kStates, 3, &rng)));
  }
  for (uint32_t i = 0; i < 240; ++i) {
    (void)db.AddObjectAt(chains[i % 3], RandomDistribution(kStates, 3, &rng))
        .ValueOrDie();
  }
  // Multi-observation objects: a second observation at t = 2 precedes the
  // window (α · head), one at t = 9 follows its first time (doubled-state
  // engine). Full-support pdfs keep every history consistent.
  std::vector<ObjectId> multi;
  for (int j = 0; j < 6; ++j) {
    std::vector<Observation> obs;
    obs.push_back({0, RandomDistribution(kStates, 3, &rng)});
    obs.push_back({j % 2 == 0 ? Timestamp{2} : Timestamp{9},
                   RandomDistribution(kStates, kStates, &rng)});
    multi.push_back(db.AddObject(chains[j % 3], obs).ValueOrDie());
  }
  const QueryWindow window =
      QueryWindow::FromRanges(kStates, 6, 14, 4, 7).ValueOrDie();
  const QueryWindow other =
      QueryWindow::FromRanges(kStates, 0, 9, 3, 6).ValueOrDie();
  const auto make = [](PredicateKind predicate, const QueryWindow& w,
                       PlanChoice plan = PlanChoice::kAuto) {
    QueryRequest request;
    request.predicate = predicate;
    request.window = w;
    request.plan = plan;
    request.tau = 0.3;
    request.k = 10;
    return request;
  };
  std::vector<QueryRequest> requests{
      make(PredicateKind::kExists, window),
      make(PredicateKind::kForAll, window),
      make(PredicateKind::kTopKExists, window),
      make(PredicateKind::kThresholdExists, window),
      make(PredicateKind::kThresholdExists, window,
           PlanChoice::kBoundsThenRefine),
      make(PredicateKind::kExists, window, PlanChoice::kObjectBased),
      make(PredicateKind::kExists, window, PlanChoice::kQueryBased),
      make(PredicateKind::kExists, other, PlanChoice::kQueryBased),
      make(PredicateKind::kThresholdExists, other, PlanChoice::kQueryBased),
  };
  const std::vector<ObjectId> filter{3, 7, 8, 100, 239, multi[0], multi[1]};
  for (size_t i = 6; i < requests.size(); ++i) {
    requests[i].object_filter = filter;
  }
  constexpr size_t kFilteredInPass = 6;
  constexpr size_t kFilteredOnly = 7;

  std::vector<QueryResult> solo;
  for (const QueryRequest& request : requests) {
    QueryExecutor cold(&db, {.num_threads = 1});
    solo.push_back(cold.Run(request).ValueOrDie());
  }
  ASSERT_EQ(solo[0].stats.chains_query_based, 3u);
  ASSERT_EQ(solo[0].stats.objects_evaluated, 240u);
  ASSERT_EQ(solo[0].stats.objects_multi_observation, 6u);
  ASSERT_GT(solo[4].stats.prune.clusters_bounded, 0u);

  for (unsigned threads : {1u, 4u}) {
    QueryExecutor executor(&db, {.num_threads = threads});
    for (const char* cache : {"cold", "warm"}) {
      SCOPED_TRACE(std::to_string(threads) + " threads, " + cache);
      std::vector<QueryRequest> traced = requests;
      for (QueryRequest& request : traced) {
        request.trace = std::make_shared<obs::QueryTrace>();
      }
      const auto batch = executor.RunBatch(traced);
      for (size_t i = 0; i < requests.size(); ++i) {
        SCOPED_TRACE("request " + std::to_string(i));
        ASSERT_TRUE(batch[i].ok()) << batch[i].status();
        const QueryResult& got = batch[i].value();
        ASSERT_EQ(got.probabilities.size(), solo[i].probabilities.size());
        for (size_t j = 0; j < got.probabilities.size(); ++j) {
          EXPECT_EQ(got.probabilities[j].id, solo[i].probabilities[j].id);
          EXPECT_EQ(got.probabilities[j].probability,
                    solo[i].probabilities[j].probability);
        }
        // A member still counts the objects it answered.
        EXPECT_EQ(got.stats.objects_evaluated, solo[i].stats.objects_evaluated);
        EXPECT_EQ(got.stats.objects_multi_observation,
                  solo[i].stats.objects_multi_observation);
        EXPECT_EQ(got.stats.group_subtasks, solo[i].stats.group_subtasks);
      }
      // The filtered member beside the unfiltered ones reads the group
      // pass for its five single-observation objects; the group of
      // filtered members alone has no pass.
      EXPECT_NE(EvaluateDetail(*traced[kFilteredInPass].trace)
                    .find(",shared=5"),
                std::string::npos);
      EXPECT_EQ(EvaluateDetail(*traced[kFilteredOnly].trace).find("shared="),
                std::string::npos);
    }
    EXPECT_GT(executor.cache_stats().hits, 0u);
  }
}

/// A chain on a line of `n` states that moves at most one state per step:
/// a backward pass over a short window reaches only states near its
/// region, so the pass's start vector stays sparse.
markov::MarkovChain LineChain(uint32_t n, util::Rng* rng) {
  std::vector<sparse::Triplet> t;
  for (uint32_t r = 0; r < n; ++r) {
    const uint32_t lo = r == 0 ? 0 : r - 1;
    const uint32_t hi = r + 1 == n ? r : r + 1;
    std::vector<double> w;
    for (uint32_t c = lo; c <= hi; ++c) w.push_back(0.1 + rng->NextDouble());
    double total = 0.0;
    for (double x : w) total += x;
    for (uint32_t c = lo; c <= hi; ++c) t.push_back({r, c, w[c - lo] / total});
  }
  return markov::MarkovChain::FromTriplets(n, std::move(t)).ValueOrDie();
}

TEST(ExecutorBatchTest, GroupPassesOverSparseVectorsMatchColdSoloRuns) {
  // Two groups on windows at opposite ends of a 400-state line: each
  // chain's start vector is sparse, so every group pass reads it through
  // the worker-local scatter, and one worker runs one group's tasks after
  // the other's. Objects hold mass near both ends, so an entry of one view
  // that outlived it would change answers in the other.
  util::Rng rng(2212);
  constexpr uint32_t kStates = 400;
  Database db;
  const ChainId a = db.AddChain(LineChain(kStates, &rng));
  const ChainId b = db.AddChain(LineChain(kStates, &rng));
  for (uint32_t i = 0; i < 200; ++i) {
    std::vector<std::pair<uint32_t, double>> pairs;
    for (int k = 0; k < 3; ++k) {
      pairs.emplace_back(static_cast<uint32_t>(rng.NextBounded(30)),
                         0.1 + rng.NextDouble());
      pairs.emplace_back(kStates - 1 - static_cast<uint32_t>(
                                           rng.NextBounded(30)),
                         0.1 + rng.NextDouble());
    }
    (void)db.AddObjectAt(i % 2 == 0 ? a : b,
                         sparse::ProbVector::FromPairs(kStates, pairs, true)
                             .ValueOrDie())
        .ValueOrDie();
  }
  const QueryWindow low =
      QueryWindow::FromRanges(kStates, 5, 12, 3, 6).ValueOrDie();
  const QueryWindow high =
      QueryWindow::FromRanges(kStates, 385, 392, 3, 6).ValueOrDie();
  for (const QueryWindow* w : {&low, &high}) {
    for (ChainId c : {a, b}) {
      ASSERT_TRUE(
          QueryBasedEngine(&db.chain(c), *w).start_vector().IsSparse());
    }
  }
  std::vector<QueryRequest> requests;
  for (const QueryWindow* w : {&low, &high, &low, &high}) {
    QueryRequest request;
    request.predicate = PredicateKind::kExists;
    request.window = *w;
    request.plan = PlanChoice::kQueryBased;
    requests.push_back(request);
  }
  std::vector<QueryResult> solo;
  for (const QueryRequest& request : requests) {
    solo.push_back(
        QueryExecutor(&db, {.num_threads = 1}).Run(request).ValueOrDie());
  }
  for (unsigned threads : {1u, 4u}) {
    QueryExecutor executor(&db, {.num_threads = threads});
    for (int run = 0; run < 2; ++run) {  // cold, then warm
      const auto batch = executor.RunBatch(requests);
      for (size_t i = 0; i < requests.size(); ++i) {
        ASSERT_TRUE(batch[i].ok());
        EXPECT_EQ(batch[i]->stats.batch_group_members, 2u);
        ASSERT_EQ(batch[i]->probabilities.size(),
                  solo[i].probabilities.size());
        for (size_t j = 0; j < solo[i].probabilities.size(); ++j) {
          EXPECT_EQ(batch[i]->probabilities[j].probability,
                    solo[i].probabilities[j].probability)
              << threads << " threads, run " << run << ", request " << i
              << ", object " << j;
        }
      }
    }
  }
}

TEST(ExecutorBatchTest, RefreshBatchesRunEndToEnd) {
  Database db = MakeDb(2, 20, 107);
  const auto batches =
      workload::RefreshBatches(StreamConfig(), 4, 12, 5).ValueOrDie();
  ASSERT_EQ(batches.size(), 5u);

  QueryExecutor executor(&db, {.num_threads = 2, .cache_capacity = 8});
  uint64_t members_executed = 0;
  for (const auto& refresh : batches) {
    ASSERT_EQ(refresh.size(), 12u);
    const auto results = executor.RunBatch(refresh);
    for (const auto& member : results) {
      ASSERT_TRUE(member.ok());
      EXPECT_GE(member->stats.batch_group_members, 1u);
    }
    members_executed += results.size();
  }
  // Later refreshes re-issue the hot windows: the cross-batch cache must
  // have served some groups without rebuilding their passes.
  EXPECT_GT(executor.cache_stats().hits, 0u);
  EXPECT_EQ(members_executed, 60u);
}

}  // namespace
}  // namespace core
}  // namespace ustdb
