// Regression test for the QueryTicket resolution race: submissions that
// are being shed by admission control while Shutdown() concurrently
// rejects-and-drains must resolve exactly once — never twice (the old
// race double-resolved a ticket when the shed path and the shutdown
// drain both reached Resolve), never zero times (a hung Get()). The
// schedule is hammered across iterations with submitters racing
// Shutdown() on a paused service whose queues are small enough that
// every code path (shed, reject, stale-drain, executed) is hit; run
// under TSan in CI. See docs/RESILIENCE.md.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "core/shard_router.h"
#include "service/query_service.h"
#include "testing/random_models.h"
#include "util/rng.h"

namespace ustdb {
namespace service {
namespace {

using ::ustdb::testing::RandomChain;
using ::ustdb::testing::RandomDistribution;

constexpr uint32_t kStates = 20;
constexpr uint32_t kObjects = 40;
constexpr auto kGetTimeout = std::chrono::milliseconds(30'000);

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
      core::QueryWindow::FromRanges(kStates, 4, 10, 2, 6).ValueOrDie();
  return request;
}

TEST(ShutdownShedRaceTest, EveryTicketResolvesExactlyOnce) {
  core::ShardedDatabase db = MakeDb(31);

  constexpr int kIterations = 20;
  constexpr int kSubmitters = 4;
  constexpr int kPerSubmitter = 16;

  for (int iter = 0; iter < kIterations; ++iter) {
    ServiceOptions options;
    options.executor.num_threads = 1;
    options.queue_capacity = 2;  // tiny: shedding and rejection both fire
    options.backpressure = BackpressurePolicy::kReject;
    options.overload.enabled = true;
    options.overload.shed_bulk_at = 0.25;
    options.overload.shed_interactive_at = 0.5;

    QueryService service(&db, options);
    // Pause the dispatcher so queue depth builds to the shed thresholds
    // while the submitters race Shutdown()'s drain.
    service.Pause();

    std::vector<std::vector<QueryTicket>> tickets(kSubmitters);
    std::atomic<int> started{0};
    std::vector<std::thread> submitters;
    submitters.reserve(kSubmitters);
    for (int s = 0; s < kSubmitters; ++s) {
      submitters.emplace_back([&, s] {
        started.fetch_add(1, std::memory_order_relaxed);
        for (int i = 0; i < kPerSubmitter; ++i) {
          const Priority priority =
              (i % 2 == 0) ? Priority::kInteractive : Priority::kBulk;
          tickets[s].push_back(service.Submit(ExistsRequest(), priority));
        }
      });
    }

    // Let the submitters pile into the tiny paused queues, then yank the
    // service down mid-stream — the race under test.
    while (started.load(std::memory_order_relaxed) < kSubmitters) {
      std::this_thread::yield();
    }
    if (iter % 2 == 0) std::this_thread::yield();
    service.Shutdown();
    for (std::thread& t : submitters) t.join();

    uint64_t resolved_ok = 0;
    for (auto& per_thread : tickets) {
      for (QueryTicket& ticket : per_thread) {
        ASSERT_TRUE(ticket.valid());
        // Exactly once, part 1: the first Get() returns (no lost wakeup,
        // no never-resolved ticket).
        QueryTicket copy = ticket;
        ASSERT_TRUE(ticket.WaitFor(kGetTimeout)) << "iteration " << iter;
        util::Result<core::QueryResult> first = ticket.Get();
        if (first.ok()) {
          ++resolved_ok;
        } else {
          // Shed / rejected / shutdown all surface as Unavailable.
          EXPECT_EQ(first.status().code(), util::StatusCode::kUnavailable)
              << first.status();
        }
        // Exactly once, part 2: a second Get() through a copy observes
        // the one-shot contract, not a second resolution.
        util::Result<core::QueryResult> second = copy.Get();
        ASSERT_FALSE(second.ok());
        EXPECT_EQ(second.status().code(),
                  util::StatusCode::kFailedPrecondition);
      }
    }

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.submitted,
              static_cast<uint64_t>(kSubmitters) * kPerSubmitter);
    // Every submission is accounted for in exactly one terminal counter.
    EXPECT_EQ(stats.completed + stats.failed + stats.cancelled +
                  stats.deadline_expired + stats.rejected,
              stats.submitted)
        << "iteration " << iter;
    EXPECT_EQ(stats.completed, resolved_ok);
  }
}

}  // namespace
}  // namespace service
}  // namespace ustdb
