// Copyright 2026 the ustdb authors.
//
// Metric arithmetic of the ustdb service benchmark, kept apart from the
// workload driver so each rule has its own unit test:
//
//   * tail percentiles that are only reported when at least ten samples
//     lie beyond them (SupportedTail), and a throughput that a stall in one
//     part of a run cannot move (MedianChunkRate),
//   * wall-clock self time of trace spans, where the scattered sub-requests
//     of one query overlap on several shards (Breakdown),
//   * open-loop arrival schedules rescaled to offer exactly the configured
//     rate,
//   * append -> subscription-delta matching by data epoch.

#ifndef USTDB_PERFBENCH_METRICS_H_
#define USTDB_PERFBENCH_METRICS_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "util/rng.h"

namespace ustdb {
namespace perfbench {

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Percentiles

/// Nearest-rank quantile: the value at 1-based rank ceil(permille * n /
/// 1000) of the sorted samples. `permille` in [1, 1000]; 0 for no samples.
double QuantilePermille(std::vector<double> samples, uint32_t permille);

/// A reportable tail percentile: its rank in per-mille and its name
/// ("p99", "p99.9", ...).
struct Tail {
  uint32_t permille = 0;
  std::string name;
};

/// \brief The highest of p99.9 / p99 / p95 / p90 / p75 / p50, at most
/// `max_permille`, that leaves at least ten of `n` samples strictly beyond
/// its nearest rank; nullopt when even the median does not (n < 20).
std::optional<Tail> SupportedTail(size_t n, uint32_t max_permille = 999);

/// \brief Median throughput over chunks of `chunk` consecutive completions:
/// each chunk's size divided by the time from the completion before it to
/// its last one. A stall that holds up part of a run slows a few chunks,
/// not the median. With fewer than two chunks, the mean rate over all
/// completions; 0 with fewer than two completions.
double MedianChunkRate(std::vector<Clock::time_point> completions,
                       size_t chunk);

// ---------------------------------------------------------------------------
// Span self time

/// A closed-open interval in seconds.
struct Interval {
  double begin = 0.0;
  double end = 0.0;
};

/// Total length covered by the union of `intervals` (overlaps count once).
double UnionLength(std::vector<Interval> intervals);

/// Length of the union of `outer` that the union of `inner` does not cover.
double UncoveredLength(const std::vector<Interval>& outer,
                       const std::vector<Interval>& inner);

/// \brief Wall-clock time of one traced request per pipeline stage, in
/// seconds. A stage's self time is the union of its spans minus the part
/// its child spans cover: executor stages (plan, bound, engine_build,
/// evaluate) are the children of `dispatch`; every other stage has none.
/// Spans of the same stage recorded by several shards of a scattered
/// request overlap in time and are counted once, as wall time.
struct Breakdown {
  double queue = 0.0;
  double dispatch_self = 0.0;
  double plan = 0.0;
  double bound = 0.0;
  double engine_build = 0.0;
  double evaluate = 0.0;
  double merge = 0.0;
  double ingest = 0.0;
  double notify = 0.0;
  /// Union of every span: the part of the request's latency some stage
  /// accounts for. covered / latency is the request's trace coverage.
  double covered = 0.0;
};

Breakdown BreakdownOf(const std::vector<obs::TraceSpan>& spans,
                      Clock::time_point epoch);

// ---------------------------------------------------------------------------
// Open loop

/// \brief Arrival offsets (seconds from the start) of `count` Poisson
/// arrivals at `rate_qps`, with the exponential gaps rescaled so the last
/// arrival lands exactly at count / rate_qps. Every schedule then offers
/// the same mean rate, and run-to-run differences in achieved throughput
/// come from the system, not from the draw.
std::vector<double> RescaledPoissonSchedule(double rate_qps, size_t count,
                                            util::Rng* rng);

// ---------------------------------------------------------------------------
// Append -> delta matching

/// An AppendObservation that returned version `version` at `returned`.
struct AppendEvent {
  uint64_t version = 0;
  Clock::time_point returned;
};

/// A delivered subscription delta of data epoch `epoch`.
struct DeltaEvent {
  uint64_t epoch = 0;
  Clock::time_point delivered;
};

/// \brief For each append, the milliseconds from its return to the first
/// delta in `deltas` (in delivery order) whose epoch is at least the
/// append's version, clamped at 0 (the refresh may deliver before the
/// append call has returned); nullopt when no delta reflects it.
std::vector<std::optional<double>> MatchAppendsToDeltas(
    const std::vector<AppendEvent>& appends,
    const std::vector<DeltaEvent>& deltas);

}  // namespace perfbench
}  // namespace ustdb

#endif  // USTDB_PERFBENCH_METRICS_H_
