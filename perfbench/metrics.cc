// Copyright 2026 the ustdb authors.

#include "metrics.h"

#include <algorithm>
#include <cmath>

namespace ustdb {
namespace perfbench {

namespace {

/// Nearest rank (1-based) of the permille-quantile among n samples, in
/// integer arithmetic so p99 of 1000 samples is exactly rank 990.
size_t NearestRank(size_t n, uint32_t permille) {
  const size_t rank = (n * permille + 999) / 1000;
  return std::max<size_t>(rank, 1);
}

/// Sorted, merged copy of `intervals` (empty intervals dropped).
std::vector<Interval> Merged(std::vector<Interval> intervals) {
  std::erase_if(intervals, [](const Interval& i) { return i.end <= i.begin; });
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });
  std::vector<Interval> out;
  for (const Interval& i : intervals) {
    if (!out.empty() && i.begin <= out.back().end) {
      out.back().end = std::max(out.back().end, i.end);
    } else {
      out.push_back(i);
    }
  }
  return out;
}

}  // namespace

double QuantilePermille(std::vector<double> samples, uint32_t permille) {
  if (samples.empty()) return 0.0;
  const size_t rank = std::min(NearestRank(samples.size(), permille),
                               samples.size());
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

std::optional<Tail> SupportedTail(size_t n, uint32_t max_permille) {
  static const Tail kTails[] = {{999, "p99.9"}, {990, "p99"}, {950, "p95"},
                                {900, "p90"},   {750, "p75"}, {500, "p50"}};
  for (const Tail& tail : kTails) {
    if (tail.permille > max_permille) continue;
    if (n >= 1 && n - std::min(n, NearestRank(n, tail.permille)) >= 10) {
      return tail;
    }
  }
  return std::nullopt;
}

double MedianChunkRate(std::vector<Clock::time_point> completions,
                       size_t chunk) {
  std::sort(completions.begin(), completions.end());
  const size_t n = completions.size();
  if (n < 2) return 0.0;
  const auto rate = [&](size_t from, size_t to) {
    const double s =
        std::chrono::duration<double>(completions[to] - completions[from])
            .count();
    return s > 0.0 ? static_cast<double>(to - from) / s : 0.0;
  };
  if (n < 2 * chunk + 1) return rate(0, n - 1);
  std::vector<double> rates;
  for (size_t i = 0; i + chunk < n; i += chunk) {
    rates.push_back(rate(i, i + chunk));
  }
  return QuantilePermille(std::move(rates), 500);
}

double UnionLength(std::vector<Interval> intervals) {
  double total = 0.0;
  for (const Interval& i : Merged(std::move(intervals))) {
    total += i.end - i.begin;
  }
  return total;
}

double UncoveredLength(const std::vector<Interval>& outer,
                       const std::vector<Interval>& inner) {
  const std::vector<Interval> a = Merged(outer);
  const std::vector<Interval> b = Merged(inner);
  // Covered part = sum over pairs of their overlap; both lists are
  // disjoint and sorted, so a two-pointer sweep finds every overlap.
  double covered = 0.0;
  size_t j = 0;
  for (const Interval& x : a) {
    while (j < b.size() && b[j].end <= x.begin) ++j;
    for (size_t k = j; k < b.size() && b[k].begin < x.end; ++k) {
      covered += std::min(x.end, b[k].end) - std::max(x.begin, b[k].begin);
    }
  }
  double total = 0.0;
  for (const Interval& x : a) total += x.end - x.begin;
  return total - covered;
}

Breakdown BreakdownOf(const std::vector<obs::TraceSpan>& spans,
                      Clock::time_point epoch) {
  std::vector<Interval> by_stage[static_cast<size_t>(obs::Stage::kNotify) + 1];
  std::vector<Interval> all;
  std::vector<Interval> executor;
  for (const obs::TraceSpan& span : spans) {
    const Interval i{std::chrono::duration<double>(span.begin - epoch).count(),
                     std::chrono::duration<double>(span.end - epoch).count()};
    by_stage[static_cast<size_t>(span.stage)].push_back(i);
    all.push_back(i);
    switch (span.stage) {
      case obs::Stage::kPlan:
      case obs::Stage::kBound:
      case obs::Stage::kEngineBuild:
      case obs::Stage::kEvaluate:
        executor.push_back(i);
        break;
      default:
        break;
    }
  }
  const auto stage = [&](obs::Stage s) -> const std::vector<Interval>& {
    return by_stage[static_cast<size_t>(s)];
  };
  Breakdown b;
  b.queue = UnionLength(stage(obs::Stage::kQueue));
  b.dispatch_self = UncoveredLength(stage(obs::Stage::kDispatch), executor);
  b.plan = UnionLength(stage(obs::Stage::kPlan));
  b.bound = UnionLength(stage(obs::Stage::kBound));
  b.engine_build = UnionLength(stage(obs::Stage::kEngineBuild));
  b.evaluate = UnionLength(stage(obs::Stage::kEvaluate));
  b.merge = UnionLength(stage(obs::Stage::kMerge));
  b.ingest = UnionLength(stage(obs::Stage::kIngest));
  b.notify = UnionLength(stage(obs::Stage::kNotify));
  b.covered = UnionLength(std::move(all));
  return b;
}

std::vector<double> RescaledPoissonSchedule(double rate_qps, size_t count,
                                            util::Rng* rng) {
  std::vector<double> offsets(count);
  double sum = 0.0;
  for (size_t i = 0; i < count; ++i) {
    // Inverse-CDF exponential gap; 1 - u keeps the log argument in (0, 1].
    sum += -std::log(1.0 - rng->NextDouble());
    offsets[i] = sum;
  }
  if (count == 0 || sum <= 0.0) return offsets;
  const double scale = (static_cast<double>(count) / rate_qps) / sum;
  for (double& t : offsets) t *= scale;
  return offsets;
}

std::vector<std::optional<double>> MatchAppendsToDeltas(
    const std::vector<AppendEvent>& appends,
    const std::vector<DeltaEvent>& deltas) {
  // The first delta whose epoch reaches v is the first index where the
  // running maximum epoch reaches v; the running maximum is sorted, so a
  // binary search finds it.
  std::vector<uint64_t> running_max(deltas.size());
  uint64_t high = 0;
  for (size_t i = 0; i < deltas.size(); ++i) {
    high = std::max(high, deltas[i].epoch);
    running_max[i] = high;
  }
  std::vector<std::optional<double>> out;
  out.reserve(appends.size());
  for (const AppendEvent& a : appends) {
    const auto it =
        std::lower_bound(running_max.begin(), running_max.end(), a.version);
    if (it == running_max.end()) {
      out.push_back(std::nullopt);
      continue;
    }
    const DeltaEvent& d = deltas[it - running_max.begin()];
    out.push_back(std::max(
        0.0, std::chrono::duration<double, std::milli>(d.delivered - a.returned)
                 .count()));
  }
  return out;
}

}  // namespace perfbench
}  // namespace ustdb
