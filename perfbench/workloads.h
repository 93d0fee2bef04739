// Copyright 2026 the ustdb authors.
//
// The three workloads of the ustdb service benchmark. Each builds its
// inputs from the seed before any timing, measures for the requested
// time, checks its answers and engagement guards (failing the run on any
// violation), and fills the report: end-to-end metrics with tracing off,
// or — with RunOptions::trace — the per-layer breakdown of a traced run.

#ifndef USTDB_PERFBENCH_WORKLOADS_H_
#define USTDB_PERFBENCH_WORKLOADS_H_

#include <cstdint>

#include "harness.h"

namespace ustdb {
namespace perfbench {

/// What a run tried and what failed, for the result line.
struct Counts {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

Counts RunDashboardWarm(const RunOptions& options, Report* report);
Counts RunAlertsCold(const RunOptions& options, Report* report);
Counts RunIngestSubscribe(const RunOptions& options, Report* report);

}  // namespace perfbench
}  // namespace ustdb

#endif  // USTDB_PERFBENCH_WORKLOADS_H_
