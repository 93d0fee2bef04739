// Copyright 2026 the ustdb authors.
//
// obs::QueryTrace — a per-query span record capturing where one request's
// time actually went: queue wait, dispatch/coalesce, plan decision, bound
// pass, engine build (cache hit/miss), evaluate/refine, scatter-gather
// merge. Every span is a steady_clock-stamped [begin, end) interval
// relative to the trace's epoch (the submission instant), so per-stage
// durations sum — within clock-read tolerance — to the ticket's
// end-to-end latency on a serial path, and overlap visibly on a sharded
// scatter.
//
// Traces are rate-sampled by the QueryService (ObsOptions::
// trace_sample_every) or attached explicitly by a caller on
// QueryRequest::trace; the executor and service record spans only when a
// trace is present, so untraced requests pay nothing beyond a null check.

#ifndef USTDB_OBS_TRACE_H_
#define USTDB_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace ustdb {
namespace obs {

/// Pipeline stage a span covers. Service-side stages (kQueue, kDispatch,
/// kMerge) and executor-side stages (kPlan, kBound, kEngineBuild,
/// kEvaluate) interleave in one trace; on a scattered request the
/// executor stages appear once per sub-request, labeled by shard.
enum class Stage : uint8_t {
  kQueue,        ///< submit -> dequeued by a shard dispatcher
  kDispatch,     ///< dispatcher handoff through the executor run
  kPlan,         ///< census + plan decision (incl. batch grouping)
  kBound,        ///< Section V-C cluster bound pass
  kEngineBuild,  ///< engine construction / cache lookups
  kEvaluate,     ///< per-object evaluation (refine included)
  kMerge,        ///< scatter-gather merge + resolve
  kIngest,       ///< AppendObservation apply + invalidation bookkeeping
  kNotify,       ///< subscription delta computation + callback delivery
};

/// Stable lowercase stage name for exports and logs.
const char* StageName(Stage stage);

/// One recorded interval of a trace.
struct TraceSpan {
  Stage stage = Stage::kQueue;
  /// Shard whose lane/executor recorded the span; -1 when not shard-bound
  /// (ingest and notify spans, and a bare QueryExecutor's spans).
  int32_t shard = -1;
  /// Optional annotation ("batch=8", "cache_misses=3").
  std::string detail;
  std::chrono::steady_clock::time_point begin;
  std::chrono::steady_clock::time_point end;

  double seconds() const {
    return std::chrono::duration<double>(end - begin).count();
  }
};

/// \brief Span record of one query, shared between the service and every
/// executor its sub-requests touch. Thread-safe: shard dispatchers append
/// concurrently under an internal mutex (traced requests are the sampled
/// few, so the lock is uncontended in steady state).
class QueryTrace {
 public:
  /// \param epoch the submission instant spans are reported relative to.
  explicit QueryTrace(std::chrono::steady_clock::time_point epoch =
                          std::chrono::steady_clock::now())
      : epoch_(epoch) {}

  std::chrono::steady_clock::time_point epoch() const { return epoch_; }

  /// Appends one span; callable from any thread.
  void Record(Stage stage, std::chrono::steady_clock::time_point begin,
              std::chrono::steady_clock::time_point end, int32_t shard = -1,
              std::string detail = {});

  /// Copy of the recorded spans, sorted by begin time (ties by stage).
  std::vector<TraceSpan> spans() const;

  /// Total seconds recorded for `stage` across all its spans.
  double StageSeconds(Stage stage) const;

  /// Human-readable breakdown: one line per span with offset from epoch,
  /// duration, shard, and detail. For examples and slow-query logs.
  std::string Format() const;

 private:
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<TraceSpan> spans_;
};

}  // namespace obs
}  // namespace ustdb

#endif  // USTDB_OBS_TRACE_H_
