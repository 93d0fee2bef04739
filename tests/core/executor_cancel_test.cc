// Cancellation and deadline behavior of the QueryExecutor: cooperative
// stops must resolve with the right status, leave unevaluated objects
// unevaluated (provably, via last_run_stats), and never poison sibling
// members of a batch.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "core/executor.h"
#include "testing/random_models.h"
#include "util/cancellation.h"
#include "util/rng.h"

namespace ustdb {
namespace core {
namespace {

using ::ustdb::testing::RandomChain;
using ::ustdb::testing::RandomDistribution;

constexpr uint32_t kStates = 25;
constexpr uint32_t kObjects = 1000;

Database MakeDb(uint64_t seed) {
  util::Rng rng(seed);
  Database db;
  const ChainId chain = db.AddChain(RandomChain(kStates, 3, &rng));
  for (uint32_t i = 0; i < kObjects; ++i) {
    (void)db.AddObjectAt(chain, RandomDistribution(kStates, 3, &rng))
        .ValueOrDie();
  }
  return db;
}

QueryRequest ExistsRequest() {
  QueryRequest request;
  request.predicate = PredicateKind::kExists;
  request.window = QueryWindow::FromRanges(kStates, 6, 12, 3, 8).ValueOrDie();
  return request;
}

TEST(ExecutorCancelTest, PreCancelledRunEvaluatesNothing) {
  Database db = MakeDb(11);
  QueryExecutor executor(&db, {.num_threads = 1});
  util::CancellationSource source;
  source.RequestStop();

  QueryRequest request = ExistsRequest();
  request.cancel = source.token();
  const auto result = executor.Run(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kCancelled);
  EXPECT_EQ(executor.last_run_stats().objects_evaluated, 0u);
}

// The acceptance check of the async-service PR: a request cancelled
// mid-parallel-loop resolves with Status::Cancelled AND provably stopped
// early — its ExecStats shows fewer objects evaluated than an uncancelled
// twin of the same request.
TEST(ExecutorCancelTest, CancelMidLoopStopsProvablyEarly) {
  Database db = MakeDb(12);
  QueryExecutor executor(&db, {.num_threads = 1});

  const auto full = executor.Run(ExistsRequest()).ValueOrDie();
  EXPECT_EQ(full.stats.objects_evaluated, kObjects);

  // Budget: one poll for the submission-time check, two for the first two
  // 64-object sub-chunks; the next check trips mid-loop (deterministic at
  // one thread).
  util::CancellationSource source;
  source.RequestStopAfterPolls(3);
  QueryRequest cancelled = ExistsRequest();
  cancelled.cancel = source.token();
  const auto result = executor.Run(cancelled);

  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kCancelled);
  const uint32_t evaluated = executor.last_run_stats().objects_evaluated;
  EXPECT_GT(evaluated, 0u);
  EXPECT_LT(evaluated, full.stats.objects_evaluated);
  EXPECT_EQ(evaluated, 2 * util::kStopCheckStride);
}

TEST(ExecutorCancelTest, CancelMidLoopAcrossThreads) {
  Database db = MakeDb(13);
  QueryExecutor executor(&db, {.num_threads = 4});

  // With concurrent pollers the trip point is approximate, but a budget of
  // 5 sub-chunk polls bounds evaluation to 5 sub-chunks — strictly fewer
  // objects than the full run, whichever workers get there first.
  util::CancellationSource source;
  source.RequestStopAfterPolls(5);
  QueryRequest request = ExistsRequest();
  request.cancel = source.token();
  const auto result = executor.Run(request);

  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kCancelled);
  EXPECT_LT(executor.last_run_stats().objects_evaluated, kObjects);
}

TEST(ExecutorCancelTest, ExpiredDeadlineFailsBeforeEvaluation) {
  Database db = MakeDb(14);
  QueryExecutor executor(&db, {.num_threads = 1});

  QueryRequest request = ExistsRequest();
  request.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  const auto result = executor.Run(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(executor.last_run_stats().objects_evaluated, 0u);
}

TEST(ExecutorCancelTest, FutureDeadlineDoesNotPerturbResults) {
  Database db = MakeDb(15);
  QueryExecutor executor(&db, {.num_threads = 1});

  const auto plain = executor.Run(ExistsRequest()).ValueOrDie();
  QueryRequest request = ExistsRequest();
  request.deadline = std::chrono::steady_clock::now() + std::chrono::hours(1);
  const auto with_deadline = executor.Run(request).ValueOrDie();

  ASSERT_EQ(plain.probabilities.size(), with_deadline.probabilities.size());
  for (size_t i = 0; i < plain.probabilities.size(); ++i) {
    EXPECT_EQ(plain.probabilities[i].id, with_deadline.probabilities[i].id);
    EXPECT_EQ(plain.probabilities[i].probability,
              with_deadline.probabilities[i].probability);
  }
}

TEST(ExecutorCancelTest, KTimesCancelsMidLoop) {
  Database db = MakeDb(16);
  QueryExecutor executor(&db, {.num_threads = 1});

  QueryRequest request;
  request.predicate = PredicateKind::kKTimes;
  request.window = QueryWindow::FromRanges(kStates, 6, 12, 3, 5).ValueOrDie();

  const auto full = executor.Run(request).ValueOrDie();
  EXPECT_EQ(full.stats.objects_evaluated, kObjects);

  util::CancellationSource source;
  source.RequestStopAfterPolls(3);
  request.cancel = source.token();
  const auto result = executor.Run(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kCancelled);
  EXPECT_LT(executor.last_run_stats().objects_evaluated, kObjects);
}

TEST(ExecutorCancelTest, BatchIsolatesCancelledMember) {
  Database db = MakeDb(17);
  QueryExecutor batch_executor(&db, {.num_threads = 1});

  util::CancellationSource source;
  source.RequestStop();
  std::vector<QueryRequest> requests(3, ExistsRequest());
  requests[1].cancel = source.token();

  const auto results = batch_executor.RunBatch(requests);
  ASSERT_EQ(results.size(), 3u);
  ASSERT_FALSE(results[1].ok());
  EXPECT_EQ(results[1].status().code(), util::StatusCode::kCancelled);

  // The healthy members answer exactly what solo runs answer.
  QueryExecutor solo(&db, {.num_threads = 1});
  const auto expected = solo.Run(ExistsRequest()).ValueOrDie();
  for (size_t member : {size_t{0}, size_t{2}}) {
    ASSERT_TRUE(results[member].ok()) << results[member].status();
    const auto& got = results[member].value();
    ASSERT_EQ(got.probabilities.size(), expected.probabilities.size());
    for (size_t i = 0; i < expected.probabilities.size(); ++i) {
      EXPECT_EQ(got.probabilities[i].probability,
                expected.probabilities[i].probability);
    }
  }
}

TEST(ExecutorCancelTest, BatchIsolatesExpiredMember) {
  Database db = MakeDb(18);
  QueryExecutor executor(&db, {.num_threads = 1});

  std::vector<QueryRequest> requests(2, ExistsRequest());
  requests[0].deadline =
      std::chrono::steady_clock::now() - std::chrono::seconds(1);
  const auto results = executor.RunBatch(requests);
  ASSERT_FALSE(results[0].ok());
  EXPECT_EQ(results[0].status().code(), util::StatusCode::kDeadlineExceeded);
  ASSERT_TRUE(results[1].ok());
  EXPECT_EQ(results[1].value().probabilities.size(), kObjects);
}

// Two unfiltered members share one group pass. The cancelled one trips
// in the pass's third task and counts only the two tasks computed while it
// was live; the pass keeps going for its live neighbour, whose answer is
// bit-identical to a solo run.
TEST(ExecutorCancelTest, CancelledMemberLeavesTheSharedPassToItsNeighbour) {
  Database db = MakeDb(19);
  QueryExecutor executor(&db, {.num_threads = 1});
  util::CancellationSource source;
  source.RequestStopAfterPolls(3);  // the submission check, two tasks
  std::vector<QueryRequest> requests(2, ExistsRequest());
  requests[1].cancel = source.token();
  const auto results = executor.RunBatch(requests);
  ASSERT_FALSE(results[1].ok());
  EXPECT_EQ(results[1].status().code(), util::StatusCode::kCancelled);
  EXPECT_EQ(executor.last_run_stats().objects_evaluated,
            2 * util::kStopCheckStride);
  ASSERT_TRUE(results[0].ok()) << results[0].status();

  QueryExecutor solo(&db, {.num_threads = 1});
  const auto expected = solo.Run(ExistsRequest()).ValueOrDie();
  const QueryResult& got = results[0].value();
  ASSERT_EQ(got.probabilities.size(), expected.probabilities.size());
  for (size_t i = 0; i < expected.probabilities.size(); ++i) {
    EXPECT_EQ(got.probabilities[i].probability,
              expected.probabilities[i].probability);
  }
  EXPECT_EQ(got.stats.objects_evaluated, kObjects);
}

// The only member evaluating every object is cancelled mid-pass, but a
// filtered member reads the same pass: the pass runs on for it, and its
// answer is bit-identical to a solo run.
TEST(ExecutorCancelTest, PassRunsOnForAFilteredReader) {
  Database db = MakeDb(21);
  QueryExecutor executor(&db, {.num_threads = 1});
  util::CancellationSource source;
  source.RequestStopAfterPolls(3);
  std::vector<QueryRequest> requests(2, ExistsRequest());
  requests[0].cancel = source.token();
  requests[1].plan = PlanChoice::kQueryBased;
  requests[1].object_filter.emplace();
  for (ObjectId id = 3; id < kObjects; id += 7) {
    requests[1].object_filter->push_back(id);
  }
  const auto results = executor.RunBatch(requests);
  ASSERT_FALSE(results[0].ok());
  EXPECT_EQ(results[0].status().code(), util::StatusCode::kCancelled);
  ASSERT_TRUE(results[1].ok()) << results[1].status();

  QueryExecutor solo(&db, {.num_threads = 1});
  const auto expected = solo.Run(requests[1]).ValueOrDie();
  const QueryResult& got = results[1].value();
  ASSERT_EQ(got.probabilities.size(), expected.probabilities.size());
  for (size_t i = 0; i < expected.probabilities.size(); ++i) {
    EXPECT_EQ(got.probabilities[i].id, expected.probabilities[i].id);
    EXPECT_EQ(got.probabilities[i].probability,
              expected.probabilities[i].probability);
  }
  EXPECT_EQ(got.stats.objects_evaluated, requests[1].object_filter->size());
}

// A one-member group whose request is cancelled while the group pass runs:
// the pass stops at the next task, and the member's own subtasks never
// run.
TEST(ExecutorCancelTest, OneMemberGroupStopsMidPass) {
  Database db = MakeDb(20);
  QueryExecutor executor(&db, {.num_threads = 1});
  util::CancellationSource source;
  source.RequestStopAfterPolls(4);  // the submission check, three tasks
  QueryRequest request = ExistsRequest();
  request.cancel = source.token();
  const auto result = executor.Run(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kCancelled);
  const ExecStats& stats = executor.last_run_stats();
  EXPECT_EQ(stats.objects_evaluated, 3 * util::kStopCheckStride);
  EXPECT_LT(stats.objects_evaluated, kObjects);
  EXPECT_EQ(stats.group_subtasks, 0u);
}

}  // namespace
}  // namespace core
}  // namespace ustdb
