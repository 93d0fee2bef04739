// QueryService behavior: ticket resolution parity with the bare executor,
// burst coalescing (bit-identical to RunBatch), cancellation and deadline
// edges, backpressure, priority ordering, and drain-on-shutdown with no
// lost or double-resolved tickets, all on a one-shard service. Tests stage
// deterministic queue states with Pause() + Resume(). The admission
// refusals (expired deadline, shutdown, injected fault, unroutable
// filter, full lane) run through both entry points, Submit and a
// one-request SubmitBurst: same status, same message, same counters; the
// window-domain refusal also at two shards.

#include "service/query_service.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "core/executor.h"
#include "core/shard_router.h"
#include "testing/random_models.h"
#include "util/cancellation.h"
#include "util/fault_injector.h"
#include "util/rng.h"

namespace ustdb {
namespace service {
namespace {

using ::ustdb::testing::RandomChain;
using ::ustdb::testing::RandomDistribution;

constexpr uint32_t kStates = 25;
constexpr uint32_t kObjects = 200;
constexpr auto kTestTimeout = std::chrono::milliseconds(30'000);

core::ShardedDatabase MakeDb(uint64_t seed) {
  util::Rng rng(seed);
  core::ShardedDatabase db(core::ShardingOptions{.num_shards = 1});
  const ChainId chain = db.AddChain(RandomChain(kStates, 3, &rng));
  for (uint32_t i = 0; i < kObjects; ++i) {
    (void)db.AddObjectAt(chain, RandomDistribution(kStates, 3, &rng))
        .ValueOrDie();
  }
  return db;
}

core::QueryRequest ExistsRequest() {
  core::QueryRequest request;
  request.predicate = core::PredicateKind::kExists;
  request.window =
      core::QueryWindow::FromRanges(kStates, 6, 12, 3, 8).ValueOrDie();
  return request;
}

ServiceOptions OneThreadOptions() {
  ServiceOptions options;
  options.executor.num_threads = 1;
  return options;
}

/// The two admission entry points: Submit, and SubmitBurst of one request.
enum class Entry { kSubmit, kBurst };
constexpr Entry kEntries[] = {Entry::kSubmit, Entry::kBurst};

QueryTicket SubmitVia(Entry entry, QueryService* service,
                      core::QueryRequest request) {
  if (entry == Entry::kSubmit) return service->Submit(std::move(request));
  std::vector<core::QueryRequest> burst;
  burst.push_back(std::move(request));
  return service->SubmitBurst(std::move(burst)).front();
}

/// A refusal as one entry point saw it: the resolved status and the
/// counters right after.
struct Refusal {
  util::Status status;
  ServiceStats stats;
};

/// Resolves `ticket`, which must already be refused, into a Refusal.
Refusal Refused(QueryTicket* ticket, const QueryService& service) {
  EXPECT_TRUE(ticket->resolved());
  const auto result = ticket->Get();
  EXPECT_FALSE(result.ok());
  return {result.status(), service.stats()};
}

void ExpectSameRefusal(const Refusal& submit, const Refusal& burst) {
  EXPECT_EQ(submit.status.code(), burst.status.code());
  EXPECT_EQ(submit.status.message(), burst.status.message());
  const ServiceStats& a = submit.stats;
  const ServiceStats& b = burst.stats;
  EXPECT_EQ(a.submitted, b.submitted);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.cancelled, b.cancelled);
  EXPECT_EQ(a.deadline_expired, b.deadline_expired);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.solo_dispatches, b.solo_dispatches);
  EXPECT_EQ(a.coalesced_batches, b.coalesced_batches);
  EXPECT_EQ(a.probes, b.probes);
  EXPECT_EQ(a.queue_depth, b.queue_depth);
}

TEST(QueryServiceTest, SubmitResolvesLikeSoloRun) {
  core::ShardedDatabase db = MakeDb(21);
  QueryService service(&db, OneThreadOptions());

  QueryTicket ticket = service.Submit(ExistsRequest());
  ASSERT_TRUE(ticket.valid());
  const auto result = ticket.Get();
  ASSERT_TRUE(result.ok()) << result.status();

  core::QueryExecutor twin(&db.shard(0), {.num_threads = 1});
  const auto expected = twin.Run(ExistsRequest()).ValueOrDie();
  ASSERT_EQ(result.value().probabilities.size(),
            expected.probabilities.size());
  for (size_t i = 0; i < expected.probabilities.size(); ++i) {
    EXPECT_EQ(result.value().probabilities[i].probability,
              expected.probabilities[i].probability);
  }

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.solo_dispatches, 1u);
}

// Acceptance: a 64-request single-window burst coalesces into one RunBatch
// dispatch whose per-request answers are bit-identical to a direct
// RunBatch of the same requests.
TEST(QueryServiceTest, BurstCoalescesBitIdenticalToRunBatch) {
  core::ShardedDatabase db = MakeDb(22);
  ServiceOptions options = OneThreadOptions();
  options.queue_capacity = 128;
  options.max_batch = 64;

  QueryService service(&db, options);
  service.Pause();
  std::vector<core::QueryRequest> burst(64, ExistsRequest());
  std::vector<QueryTicket> tickets = service.SubmitBurst(burst);
  ASSERT_EQ(tickets.size(), 64u);
  EXPECT_EQ(service.queue_depth(), 64u);
  service.Resume();

  // Collect every service answer first: the dispatcher and the twin
  // executor share the Database, whose transpose cache is built lazily and
  // unsynchronized — the executor contract is one executor per thread *at
  // a time*, so the comparison run happens after the service is idle.
  std::vector<util::Result<core::QueryResult>> results;
  for (QueryTicket& ticket : tickets) results.push_back(ticket.Get());

  core::QueryExecutor twin(&db.shard(0), {.num_threads = 1});
  const auto expected =
      twin.RunBatch(std::vector<core::QueryRequest>(64, ExistsRequest()));

  for (size_t i = 0; i < results.size(); ++i) {
    const auto& result = results[i];
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_TRUE(expected[i].ok());
    const auto& got = result.value().probabilities;
    const auto& want = expected[i].value().probabilities;
    ASSERT_EQ(got.size(), want.size());
    for (size_t j = 0; j < want.size(); ++j) {
      EXPECT_EQ(got[j].id, want[j].id);
      EXPECT_EQ(got[j].probability, want[j].probability);
    }
    EXPECT_EQ(result.value().stats.batch_group_members, 64u);
  }

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, 64u);
  EXPECT_EQ(stats.coalesced_batches, 1u);
  EXPECT_EQ(stats.coalesced_requests, 64u);
  EXPECT_EQ(stats.solo_dispatches, 0u);
  EXPECT_EQ(stats.queue_peak, 64u);
  // The whole burst paid one backward pass (satellite: cache counters
  // surfaced through ServiceStats).
  EXPECT_EQ(stats.cache.misses, 1u);
  EXPECT_EQ(stats.cache.evictions, 0u);
}

TEST(QueryServiceTest, CancelBeforeDequeueSkipsExecution) {
  core::ShardedDatabase db = MakeDb(23);
  ServiceOptions options = OneThreadOptions();

  QueryService service(&db, options);
  service.Pause();
  QueryTicket ticket = service.Submit(ExistsRequest());
  ticket.Cancel();
  service.Resume();

  const auto result = ticket.Get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kCancelled);

  ASSERT_TRUE(ticket.resolved());
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.completed, 0u);
  // Never reached the executor: no cache traffic at all.
  EXPECT_EQ(stats.cache.hits + stats.cache.misses, 0u);
}

TEST(QueryServiceTest, CancelMidFlightResolvesCancelled) {
  core::ShardedDatabase db = MakeDb(24);
  QueryService service(&db, OneThreadOptions());

  // A caller-owned token linked beneath the ticket's: its poll budget
  // trips inside the executor's loop (after the dispatcher's pre-check and
  // the executor's submission check), so the run provably started and was
  // then stopped mid-flight.
  util::CancellationSource source;
  source.RequestStopAfterPolls(3);
  core::QueryRequest request = ExistsRequest();
  request.cancel = source.token();

  QueryTicket ticket = service.Submit(std::move(request));
  const auto result = ticket.Get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kCancelled);
  EXPECT_EQ(service.stats().cancelled, 1u);
}

TEST(QueryServiceTest, ExpiredDeadlineResolvesAtSubmit) {
  core::ShardedDatabase db = MakeDb(25);
  std::vector<Refusal> refusals;
  for (Entry entry : kEntries) {
    QueryService service(&db, OneThreadOptions());
    service.Pause();
    core::QueryRequest request = ExistsRequest();
    request.deadline =
        std::chrono::steady_clock::now() - std::chrono::seconds(1);
    QueryTicket ticket = SubmitVia(entry, &service, std::move(request));

    // Resolved synchronously: the dispatcher is paused, yet the ticket is
    // already answered and nothing was queued.
    refusals.push_back(Refused(&ticket, service));
    EXPECT_EQ(service.queue_depth(), 0u);
    EXPECT_EQ(refusals.back().status.code(),
              util::StatusCode::kDeadlineExceeded);
    EXPECT_EQ(refusals.back().stats.deadline_expired, 1u);
  }
  ExpectSameRefusal(refusals[0], refusals[1]);
}

TEST(QueryServiceTest, DeadlineExpiringInQueueResolvesExpired) {
  core::ShardedDatabase db = MakeDb(26);
  ServiceOptions options = OneThreadOptions();

  QueryService service(&db, options);
  service.Pause();
  core::QueryRequest request = ExistsRequest();
  request.deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(1);
  QueryTicket ticket = service.Submit(std::move(request));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  service.Resume();

  const auto result = ticket.Get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kDeadlineExceeded);
}

TEST(QueryServiceTest, FullQueueRejectsWhenPolicyIsReject) {
  core::ShardedDatabase db = MakeDb(27);
  ServiceOptions options = OneThreadOptions();
  options.queue_capacity = 2;
  options.backpressure = BackpressurePolicy::kReject;

  std::vector<Refusal> refusals;
  for (Entry entry : kEntries) {
    QueryService service(&db, options);
    service.Pause();
    QueryTicket first = service.Submit(ExistsRequest());
    QueryTicket second = service.Submit(ExistsRequest());
    QueryTicket third = SubmitVia(entry, &service, ExistsRequest());

    refusals.push_back(Refused(&third, service));
    EXPECT_EQ(refusals.back().status.code(), util::StatusCode::kUnavailable);
    EXPECT_EQ(refusals.back().stats.rejected, 1u);

    service.Resume();
    EXPECT_TRUE(first.Get().ok());
    EXPECT_TRUE(second.Get().ok());
    EXPECT_EQ(service.stats().completed, 2u);
  }
  ExpectSameRefusal(refusals[0], refusals[1]);
}

TEST(QueryServiceTest, FullQueueBlocksWhenPolicyIsBlock) {
  core::ShardedDatabase db = MakeDb(28);
  ServiceOptions options = OneThreadOptions();
  options.queue_capacity = 1;
  options.backpressure = BackpressurePolicy::kBlock;

  QueryService service(&db, options);
  service.Pause();
  QueryTicket first = service.Submit(ExistsRequest());
  QueryTicket blocked;
  std::thread producer([&service, &blocked] {
    blocked = service.Submit(ExistsRequest());
  });
  service.Resume();  // dispatcher frees the slot, unblocking the producer
  producer.join();

  EXPECT_TRUE(first.Get().ok());
  EXPECT_TRUE(blocked.Get().ok());
  EXPECT_EQ(service.stats().completed, 2u);
  EXPECT_EQ(service.stats().rejected, 0u);
}

// A burst must never block mid-enqueue (it holds the queue lock, and on a
// paused service there is no dispatcher progress to wait for): overflow
// entries reject immediately even under the blocking policy.
TEST(QueryServiceTest, BurstOverflowRejectsEvenUnderBlockPolicy) {
  core::ShardedDatabase db = MakeDb(34);
  ServiceOptions options = OneThreadOptions();
  options.queue_capacity = 2;
  options.backpressure = BackpressurePolicy::kBlock;

  QueryService service(&db, options);
  service.Pause();
  std::vector<QueryTicket> tickets =
      service.SubmitBurst(std::vector<core::QueryRequest>(4, ExistsRequest()));
  ASSERT_EQ(tickets.size(), 4u);
  EXPECT_EQ(service.queue_depth(), 2u);

  service.Resume();
  uint32_t ok = 0;
  uint32_t rejected = 0;
  for (QueryTicket& ticket : tickets) {
    const auto result = ticket.Get();
    if (result.ok()) {
      ++ok;
    } else {
      EXPECT_EQ(result.status().code(), util::StatusCode::kUnavailable);
      ++rejected;
    }
  }
  EXPECT_EQ(ok, 2u);
  EXPECT_EQ(rejected, 2u);
  EXPECT_EQ(service.stats().rejected, 2u);
}

// Priority: a paused service holds one bulk and one interactive request
// (submitted in that order). Dispatches never cross lanes, so the
// interactive request runs in its own earlier dispatch — observable
// because its one-member run pays the cold cache miss while the later
// bulk run hits the pass the interactive run admitted.
TEST(QueryServiceTest, InteractiveLaneDrainsBeforeBulk) {
  core::ShardedDatabase db = MakeDb(29);
  ServiceOptions options = OneThreadOptions();

  QueryService service(&db, options);
  service.Pause();
  QueryTicket bulk = service.Submit(ExistsRequest(), Priority::kBulk);
  QueryTicket interactive =
      service.Submit(ExistsRequest(), Priority::kInteractive);
  service.Resume();

  const auto interactive_result = interactive.Get();
  const auto bulk_result = bulk.Get();
  ASSERT_TRUE(interactive_result.ok());
  ASSERT_TRUE(bulk_result.ok());
  // Each single-entry drain runs as a one-member batch group.
  EXPECT_EQ(interactive_result.value().stats.batch_group_members, 1u);
  EXPECT_EQ(bulk_result.value().stats.batch_group_members, 1u);
  EXPECT_EQ(interactive_result.value().stats.cache_misses, 1u);
  EXPECT_EQ(interactive_result.value().stats.cache_hits, 0u);
  EXPECT_EQ(bulk_result.value().stats.cache_hits, 1u);
  EXPECT_EQ(bulk_result.value().stats.cache_misses, 0u);
  EXPECT_EQ(service.stats().solo_dispatches, 2u);
}

TEST(QueryServiceTest, ShutdownDrainsEveryQueuedTicket) {
  core::ShardedDatabase db = MakeDb(30);
  ServiceOptions options = OneThreadOptions();
  options.queue_capacity = 16;

  QueryService service(&db, options);
  service.Pause();
  std::vector<QueryTicket> tickets;
  for (int i = 0; i < 10; ++i) {
    tickets.push_back(service.Submit(
        ExistsRequest(), i % 2 == 0 ? Priority::kInteractive
                                    : Priority::kBulk));
  }
  // Never resumed: Shutdown itself must drain the paused queue.
  service.Shutdown();

  for (QueryTicket& ticket : tickets) {
    ASSERT_TRUE(ticket.WaitFor(kTestTimeout));
    EXPECT_TRUE(ticket.Get().ok());
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, 10u);
  EXPECT_EQ(stats.submitted, 10u);
  EXPECT_EQ(service.queue_depth(), 0u);
}

TEST(QueryServiceTest, SubmitAfterShutdownIsRejected) {
  core::ShardedDatabase db = MakeDb(31);
  std::vector<Refusal> refusals;
  for (Entry entry : kEntries) {
    QueryService service(&db, OneThreadOptions());
    service.Shutdown();

    QueryTicket ticket = SubmitVia(entry, &service, ExistsRequest());
    refusals.push_back(Refused(&ticket, service));
    EXPECT_EQ(refusals.back().status.code(), util::StatusCode::kUnavailable);

    // Shutdown outranks every other submission-time verdict: an expired
    // request still resolves Unavailable, not DeadlineExceeded.
    core::QueryRequest expired = ExistsRequest();
    expired.deadline =
        std::chrono::steady_clock::now() - std::chrono::seconds(1);
    QueryTicket late = SubmitVia(entry, &service, std::move(expired));
    refusals.push_back(Refused(&late, service));
    EXPECT_EQ(refusals.back().status.code(), util::StatusCode::kUnavailable);
  }
  ExpectSameRefusal(refusals[0], refusals[2]);
  ExpectSameRefusal(refusals[1], refusals[3]);
}

TEST(QueryServiceTest, InjectedAdmissionFaultResolvesAtSubmit) {
  core::ShardedDatabase db = MakeDb(35);
  std::vector<Refusal> refusals;
  for (Entry entry : kEntries) {
    QueryService service(&db, OneThreadOptions());
    service.Pause();
    {
      util::ScopedFaultInjection scope(
          util::FaultInjector::Parse("queue_admission:fail", 1)
              .ValueOrDie());
      QueryTicket ticket = SubmitVia(entry, &service, ExistsRequest());
      refusals.push_back(Refused(&ticket, service));
    }
    EXPECT_EQ(refusals.back().status.code(), util::StatusCode::kUnavailable);
    EXPECT_EQ(refusals.back().stats.rejected, 1u);
    EXPECT_EQ(service.queue_depth(), 0u);
  }
  ExpectSameRefusal(refusals[0], refusals[1]);
}

/// An object_filter id outside the database cannot be routed: it resolves
/// kInvalidArgument at submission with the executor's message, and never
/// reaches a dispatcher.
TEST(QueryServiceTest, OutOfRangeFilterResolvesAtSubmit) {
  core::ShardedDatabase db = MakeDb(36);
  core::QueryRequest request = ExistsRequest();
  request.object_filter = std::vector<ObjectId>{0, kObjects + 3};
  const auto executor_verdict =
      core::QueryExecutor(&db.shard(0), {.num_threads = 1}).Run(request);
  ASSERT_FALSE(executor_verdict.ok());

  std::vector<Refusal> refusals;
  for (Entry entry : kEntries) {
    QueryService service(&db, OneThreadOptions());
    service.Pause();
    QueryTicket ticket = SubmitVia(entry, &service, request);
    refusals.push_back(Refused(&ticket, service));
    EXPECT_EQ(refusals.back().status.code(),
              util::StatusCode::kInvalidArgument);
    EXPECT_EQ(refusals.back().status.message(),
              executor_verdict.status().message());
    EXPECT_EQ(refusals.back().stats.failed, 1u);
    EXPECT_EQ(service.queue_depth(), 0u);
  }
  ExpectSameRefusal(refusals[0], refusals[1]);
}

/// A window over another state count than the chains a request evaluates
/// cannot be answered: the engines only assert the match, and unchecked a
/// 400-state window against 50-state chains crashes a shard. It resolves
/// kInvalidArgument at submission with the executor's message — filtered
/// or not, at 1 and 2 shards — and never reaches a dispatcher.
TEST(QueryServiceTest, WindowOverAnotherStateCountResolvesAtSubmit) {
  constexpr uint32_t kChainStates = 50;
  for (uint32_t num_shards : {1u, 2u}) {
    SCOPED_TRACE(num_shards);
    util::Rng rng(38);
    core::ShardedDatabase db(core::ShardingOptions{.num_shards = num_shards});
    for (uint32_t c = 0; c < 4; ++c) {
      const ChainId chain = db.AddChain(RandomChain(kChainStates, 3, &rng));
      for (uint32_t i = 0; i < 8; ++i) {
        (void)db.AddObjectAt(chain, RandomDistribution(kChainStates, 3, &rng))
            .ValueOrDie();
      }
    }
    core::QueryRequest unfiltered;
    unfiltered.predicate = core::PredicateKind::kThresholdExists;
    unfiltered.window =
        core::QueryWindow::FromRanges(400, 360, 399, 2, 6).ValueOrDie();
    unfiltered.tau = 0.2;
    core::QueryRequest filtered = unfiltered;
    filtered.object_filter = std::vector<ObjectId>{31};

    std::vector<Refusal> refusals;
    for (const core::QueryRequest& request : {unfiltered, filtered}) {
      for (Entry entry : kEntries) {
        QueryService service(&db, OneThreadOptions());
        service.Pause();
        QueryTicket ticket = SubmitVia(entry, &service, request);
        ASSERT_TRUE(ticket.resolved());  // refused before any queue
        refusals.push_back(Refused(&ticket, service));
        EXPECT_EQ(refusals.back().stats.failed, 1u);
        EXPECT_EQ(service.queue_depth(), 0u);
      }
      ExpectSameRefusal(refusals[refusals.size() - 2], refusals.back());
    }
    const auto executor_verdict =
        core::QueryExecutor(&db.shard(0), {.num_threads = 1}).Run(unfiltered);
    ASSERT_FALSE(executor_verdict.ok());
    for (const Refusal& refusal : refusals) {
      EXPECT_EQ(refusal.status.code(), util::StatusCode::kInvalidArgument);
      EXPECT_EQ(refusal.status.message(), executor_verdict.status().message());
    }
  }
}

/// A caller-set bounds-only answer of any predicate is the executor's
/// answer: no position is invented, and the undecided intervals survive
/// the merge.
TEST(QueryServiceTest, BoundsOnlyAnswersMatchTheExecutor) {
  core::ShardedDatabase db = MakeDb(37);
  QueryService service(&db, OneThreadOptions());
  core::QueryExecutor twin(&db.shard(0), {.num_threads = 1});
  for (core::PredicateKind predicate :
       {core::PredicateKind::kExists, core::PredicateKind::kForAll,
        core::PredicateKind::kKTimes, core::PredicateKind::kThresholdExists,
        core::PredicateKind::kTopKExists}) {
    SCOPED_TRACE(static_cast<int>(predicate));
    core::QueryRequest request = ExistsRequest();
    request.predicate = predicate;
    request.tau = 0.3;
    request.k = 5;
    request.degrade = core::DegradeMode::kBoundsOnly;
    const auto got = service.Submit(core::QueryRequest(request)).Get();
    const auto want = twin.Run(request);
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_TRUE(want.ok()) << want.status();
    EXPECT_TRUE(got.value().degraded_bounds);
    EXPECT_EQ(got.value().probabilities, want.value().probabilities);
    EXPECT_EQ(got.value().undecided, want.value().undecided);
    EXPECT_EQ(got.value().distributions.size(),
              want.value().distributions.size());
  }
}

TEST(QueryServiceTest, TicketResultIsOneShot) {
  core::ShardedDatabase db = MakeDb(32);
  QueryService service(&db, OneThreadOptions());
  QueryTicket ticket = service.Submit(ExistsRequest());
  ASSERT_TRUE(ticket.Get().ok());
  const auto again = ticket.Get();
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), util::StatusCode::kFailedPrecondition);
}

TEST(QueryServiceTest, InvalidTicketFailsGracefully) {
  QueryTicket ticket;
  EXPECT_FALSE(ticket.valid());
  EXPECT_FALSE(ticket.resolved());
  EXPECT_FALSE(ticket.WaitFor(std::chrono::milliseconds(1)));
  EXPECT_EQ(ticket.Get().status().code(),
            util::StatusCode::kFailedPrecondition);
  ticket.Cancel();  // no-op, must not crash
}

TEST(QueryServiceTest, ConcurrentSubmittersAllResolve) {
  core::ShardedDatabase db = MakeDb(33);
  ServiceOptions options = OneThreadOptions();
  options.queue_capacity = 64;
  QueryService service(&db, options);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 8;
  std::vector<std::vector<QueryTicket>> tickets(kThreads);
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&service, &tickets, t] {
      for (int i = 0; i < kPerThread; ++i) {
        tickets[t].push_back(service.Submit(
            ExistsRequest(),
            i % 2 == 0 ? Priority::kInteractive : Priority::kBulk));
      }
    });
  }
  for (std::thread& t : submitters) t.join();

  uint64_t ok = 0;
  for (auto& lane : tickets) {
    for (QueryTicket& ticket : lane) {
      ASSERT_TRUE(ticket.WaitFor(kTestTimeout));
      if (ticket.Get().ok()) ++ok;
    }
  }
  EXPECT_EQ(ok, static_cast<uint64_t>(kThreads * kPerThread));
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_GT(stats.latency_p99_ms, 0.0);
  EXPECT_GE(stats.latency_p99_ms, stats.latency_p50_ms);
}

}  // namespace
}  // namespace service
}  // namespace ustdb
