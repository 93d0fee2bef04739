// Copyright 2026 the ustdb authors.
//
// Data-parallel primitives used by the query executor. Both the one-shot
// ParallelChunks and the persistent ThreadPool use plain std::thread with
// static chunking: query workloads are uniform (every object costs roughly
// the same), so work stealing would buy nothing and the static scheme keeps
// results bit-reproducible — the same (n, num_threads) pair always yields
// the same chunk boundaries, regardless of which primitive runs them.

#ifndef USTDB_UTIL_PARALLEL_FOR_H_
#define USTDB_UTIL_PARALLEL_FOR_H_

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ustdb {
namespace util {

/// Number of worker threads to use for `requested` (0 = hardware default).
/// Always returns at least 1, even when hardware_concurrency() reports 0
/// (which the standard permits on exotic platforms).
inline unsigned ResolveThreadCount(unsigned requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// Static chunk size for splitting [0, n) across `workers` workers.
inline size_t ChunkSize(size_t n, unsigned workers) {
  return (n + workers - 1) / workers;
}

/// Objects in one executor evaluation subtask, the unit between two
/// cooperative stop checks. Small enough that a cancelled query stops
/// within microseconds,
/// large enough that the check (an atomic load, plus a clock read when a
/// deadline is set) is amortized to nothing.
inline constexpr size_t kStopCheckStride = 64;

/// \brief Runs f(begin, end) over disjoint contiguous chunks of [0, n) on
/// `num_threads` threads (0 = hardware default). f must be thread-safe
/// across disjoint ranges. Blocks until every chunk is done.
///
/// Guarantees: n == 0 invokes f(0, 0) once on the calling thread and spawns
/// no threads; num_threads > n clamps to n so no thread receives an empty
/// chunk; num_threads <= 1 runs entirely on the calling thread.
template <typename F>
void ParallelChunks(size_t n, unsigned num_threads, F&& f) {
  const unsigned workers =
      static_cast<unsigned>(std::min<size_t>(ResolveThreadCount(num_threads),
                                             n == 0 ? 1 : n));
  if (workers <= 1 || n == 0) {
    f(static_cast<size_t>(0), n);
    return;
  }
  std::vector<std::thread> threads;
  threads.reserve(workers);
  const size_t chunk = ChunkSize(n, workers);
  for (unsigned w = 0; w < workers; ++w) {
    const size_t begin = static_cast<size_t>(w) * chunk;
    const size_t end = std::min(n, begin + chunk);
    if (begin >= end) break;
    threads.emplace_back([&f, begin, end] { f(begin, end); });
  }
  for (std::thread& t : threads) t.join();
}

/// \brief Persistent worker pool with the same static-chunking semantics as
/// ParallelChunks, amortizing thread creation across queries — the
/// QueryExecutor owns one and reuses it for every request it serves.
///
/// A pool constructed with num_threads <= 1 (after hardware resolution)
/// spawns no threads at all and runs every job inline, which keeps
/// single-threaded executors allocation-cheap.
///
/// ParallelChunks() may be called from one thread at a time (the executor
/// serializes); worker threads must not re-enter the pool.
class ThreadPool {
 public:
  /// \param num_threads 0 = one worker per hardware context.
  explicit ThreadPool(unsigned num_threads = 0) {
    const unsigned workers = ResolveThreadCount(num_threads);
    if (workers <= 1) return;
    threads_.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
      threads_.emplace_back([this, w] { WorkerLoop(w); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    wake_cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  /// Number of pooled worker threads (0 when the pool runs inline).
  unsigned num_workers() const {
    return static_cast<unsigned>(threads_.size());
  }

  /// \brief Runs f(begin, end) over disjoint contiguous chunks of [0, n),
  /// blocking until done. Chunk boundaries are identical to
  /// util::ParallelChunks(n, std::max(1u, num_workers()), f), so results
  /// are bit-reproducible across the two primitives. n == 0 invokes
  /// f(0, 0) inline; jobs smaller than the pool use only the first
  /// ceil(n/chunk) workers.
  template <typename F>
  void ParallelChunks(size_t n, F&& f) {
    const unsigned workers = static_cast<unsigned>(
        std::min<size_t>(threads_.empty() ? 1 : threads_.size(),
                         n == 0 ? 1 : n));
    if (workers <= 1 || n == 0) {
      f(static_cast<size_t>(0), n);
      return;
    }
    const size_t chunk = ChunkSize(n, workers);
    const unsigned slices =
        static_cast<unsigned>((n + chunk - 1) / chunk);  // all non-empty
    {
      std::lock_guard<std::mutex> lock(mu_);
      job_ = [&f](size_t begin, size_t end) { f(begin, end); };
      job_n_ = n;
      job_chunk_ = chunk;
      job_slices_ = slices;
      pending_ = slices;
      ++generation_;
    }
    wake_cv_.notify_all();
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return pending_ == 0; });
    job_ = nullptr;
  }

 private:
  void WorkerLoop(unsigned index) {
    uint64_t seen = 0;
    for (;;) {
      std::function<void(size_t, size_t)> job;
      size_t begin = 0;
      size_t end = 0;
      {
        std::unique_lock<std::mutex> lock(mu_);
        wake_cv_.wait(lock,
                      [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
        if (index < job_slices_) {
          begin = static_cast<size_t>(index) * job_chunk_;
          end = std::min(job_n_, begin + job_chunk_);
          job = job_;
        }
      }
      if (!job) continue;  // this worker has no slice in the current job
      job(begin, end);
      {
        std::lock_guard<std::mutex> lock(mu_);
        --pending_;
        if (pending_ == 0) done_cv_.notify_all();
      }
    }
  }

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable wake_cv_;
  std::condition_variable done_cv_;
  std::function<void(size_t, size_t)> job_;
  size_t job_n_ = 0;
  size_t job_chunk_ = 0;
  unsigned job_slices_ = 0;
  unsigned pending_ = 0;
  uint64_t generation_ = 0;
  bool stop_ = false;
};

}  // namespace util
}  // namespace ustdb

#endif  // USTDB_UTIL_PARALLEL_FOR_H_
