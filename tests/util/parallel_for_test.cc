#include "util/parallel_for.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>
#include <vector>

namespace ustdb {
namespace util {
namespace {

TEST(ResolveThreadCountTest, NonZeroRequestPassesThrough) {
  EXPECT_EQ(ResolveThreadCount(1), 1u);
  EXPECT_EQ(ResolveThreadCount(7), 7u);
}

TEST(ResolveThreadCountTest, ZeroRequestIsAtLeastOne) {
  // hardware_concurrency() may legally return 0; either way the resolved
  // count must be a usable positive thread count.
  EXPECT_GE(ResolveThreadCount(0), 1u);
}

TEST(ParallelChunksTest, CoversEveryIndexExactlyOnce) {
  for (unsigned threads : {1u, 2u, 3u, 8u}) {
    std::vector<int> hits(1000, 0);
    ParallelChunks(hits.size(), threads, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) ++hits[i];
    });
    for (size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i], 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(ParallelChunksTest, EmptyRangeRunsInlineWithoutThreads) {
  const std::thread::id main_id = std::this_thread::get_id();
  int calls = 0;
  ParallelChunks(0, 16, [&](size_t begin, size_t end) {
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 0u);
    EXPECT_EQ(std::this_thread::get_id(), main_id);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelChunksTest, MoreWorkersThanItemsClampsToNonEmptyChunks) {
  std::mutex mu;
  std::vector<std::pair<size_t, size_t>> chunks;
  std::vector<int> hits(3, 0);
  ParallelChunks(3, 64, [&](size_t begin, size_t end) {
    std::lock_guard<std::mutex> lock(mu);
    chunks.emplace_back(begin, end);
    for (size_t i = begin; i < end; ++i) ++hits[i];
  });
  EXPECT_EQ(hits, (std::vector<int>{1, 1, 1}));
  EXPECT_LE(chunks.size(), 3u);  // never more chunks than items
  for (const auto& [begin, end] : chunks) {
    EXPECT_LT(begin, end);  // never an empty chunk
  }
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_workers(), 0u);
  const std::thread::id main_id = std::this_thread::get_id();
  std::vector<int> hits(10, 0);
  pool.ParallelChunks(hits.size(), [&](size_t begin, size_t end) {
    EXPECT_EQ(std::this_thread::get_id(), main_id);
    for (size_t i = begin; i < end; ++i) ++hits[i];
  });
  EXPECT_EQ(std::count(hits.begin(), hits.end(), 1),
            static_cast<long>(hits.size()));
}

TEST(ThreadPoolTest, EmptyRangeRunsInline) {
  ThreadPool pool(4);
  const std::thread::id main_id = std::this_thread::get_id();
  int calls = 0;
  pool.ParallelChunks(0, [&](size_t begin, size_t end) {
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 0u);
    EXPECT_EQ(std::this_thread::get_id(), main_id);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnceAcrossReuse) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_workers(), 4u);
  // The pool is reused across jobs of varying size, including jobs smaller
  // than the pool.
  for (size_t n : {1000u, 3u, 1u, 777u, 4u}) {
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h = 0;
    pool.ParallelChunks(n, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) ++hits[i];
    });
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "n " << n << " index " << i;
    }
  }
}

TEST(ThreadPoolTest, ChunkBoundariesMatchFreeFunction) {
  // Bit-reproducibility contract: the pool must split [0, n) exactly like
  // ParallelChunks with the same worker count.
  constexpr size_t kN = 101;
  constexpr unsigned kWorkers = 4;

  std::mutex mu;
  std::set<std::pair<size_t, size_t>> free_chunks;
  ParallelChunks(kN, kWorkers, [&](size_t begin, size_t end) {
    std::lock_guard<std::mutex> lock(mu);
    free_chunks.emplace(begin, end);
  });

  ThreadPool pool(kWorkers);
  std::set<std::pair<size_t, size_t>> pool_chunks;
  pool.ParallelChunks(kN, [&](size_t begin, size_t end) {
    std::lock_guard<std::mutex> lock(mu);
    pool_chunks.emplace(begin, end);
  });
  EXPECT_EQ(free_chunks, pool_chunks);
}

TEST(ThreadPoolTest, ManyWorkersFewItems) {
  ThreadPool pool(16);
  std::vector<std::atomic<int>> hits(2);
  for (auto& h : hits) h = 0;
  pool.ParallelChunks(2, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) ++hits[i];
  });
  EXPECT_EQ(hits[0].load(), 1);
  EXPECT_EQ(hits[1].load(), 1);
}

}  // namespace
}  // namespace util
}  // namespace ustdb
