// Copyright 2026 the ustdb authors.
//
// Resilience policies of the QueryService: per-shard health tracking with
// quarantine + auto-probe, overload detection for admission control, and
// retry backoff computation. Pure policy — no threads, no queues; the
// QueryService owns the mechanism. See docs/RESILIENCE.md.

#ifndef USTDB_SERVICE_RESILIENCE_H_
#define USTDB_SERVICE_RESILIENCE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string_view>

#include "core/query_request.h"

namespace ustdb {
namespace service {

/// Health of one shard lane, driven by the outcomes of its dispatches.
///
///   kHealthy ──(degraded_after consecutive transient failures)──▶ kDegraded
///   kDegraded ──(quarantine_after total consecutive failures)──▶ kQuarantined
///   any state ──(one successful dispatch)──▶ kHealthy
///   kQuarantined ──(probe backoff elapses)──▶ one probe admitted;
///        success ▶ kHealthy, failure ▶ kQuarantined with doubled backoff
///
/// A dispatcher-watchdog trip (a dispatch stalled past watchdog_stall)
/// quarantines the shard directly; the stalled dispatch finishing
/// successfully recovers it like any other success.
enum class ShardHealth : int {
  kHealthy = 0,
  kDegraded = 1,
  kQuarantined = 2,
};

std::string_view ShardHealthName(ShardHealth health);

/// Thresholds of the health state machine. Defaults are conservative:
/// only *transient* failures (kUnavailable / kInternal from the dispatch
/// path — never user errors, cancellations, or expired deadlines) count.
struct HealthPolicy {
  uint32_t degraded_after = 3;    ///< consecutive failures → kDegraded
  uint32_t quarantine_after = 5;  ///< consecutive failures → kQuarantined
  std::chrono::milliseconds probe_backoff{100};  ///< first probe delay
  double probe_backoff_multiplier = 2.0;
  std::chrono::milliseconds max_probe_backoff{5000};
  /// A dispatch busy longer than this trips the watchdog and quarantines
  /// the shard. Zero disables the watchdog.
  std::chrono::milliseconds watchdog_stall{1000};
};

/// Admission-control thresholds. Disabled by default: the service then
/// behaves exactly as before this layer existed (backpressure only).
struct OverloadPolicy {
  bool enabled = false;
  /// Shed bulk-lane submissions once total queue depth exceeds this
  /// fraction of total queue capacity.
  double shed_bulk_at = 0.75;
  /// Shed (or degrade, for willing threshold requests) interactive
  /// submissions above this fraction.
  double shed_interactive_at = 0.95;
  /// Retry-after hint attached to shed rejections.
  std::chrono::milliseconds retry_after{50};
};

/// \brief Lock-free per-shard health tracker. RecordSuccess/RecordFailure
/// are called from dispatcher threads, Admit* from submitting threads;
/// every member is an atomic, transitions are returned to the caller so
/// the service can count them under its own stats lock.
class ShardHealthTracker {
 public:
  using Clock = std::chrono::steady_clock;

  explicit ShardHealthTracker(const HealthPolicy& policy)
      : policy_(policy) {}

  ShardHealth health() const {
    return static_cast<ShardHealth>(
        state_.load(std::memory_order_acquire));
  }

  /// A dispatch finished cleanly (or with a caller-attributable outcome).
  /// Returns true when this transitioned the shard back to kHealthy.
  bool RecordSuccess();

  /// A dispatch failed transiently. Returns the new state so the caller
  /// can count the kHealthy→kDegraded→kQuarantined transitions.
  ShardHealth RecordFailure(Clock::time_point now);

  /// Whether a new sub-request may enter this shard's lane. Healthy and
  /// degraded shards admit everything; a quarantined shard admits exactly
  /// one probe once its backoff elapsed (`*is_probe` set for that one).
  bool AdmitToShard(Clock::time_point now, bool* is_probe);

  /// Releases the probe slot without recording an outcome: the admitted
  /// probe was never dispatched (shed, rejected, cancelled while queued).
  /// The next AdmitToShard past the due time may probe again.
  void ProbeAborted() {
    probe_inflight_.store(false, std::memory_order_release);
  }

  /// Watchdog check from a submitting thread: quarantines the shard when
  /// its current dispatch has been running longer than watchdog_stall.
  /// Returns true on the trip transition (counted once per episode).
  bool CheckWatchdog(Clock::time_point now);

  /// Dispatch markers for the watchdog. Busy spans are per dispatcher
  /// thread and never nest.
  void MarkDispatchStart(Clock::time_point now) {
    busy_since_ns_.store(now.time_since_epoch().count(),
                         std::memory_order_release);
  }
  void MarkDispatchEnd() {
    busy_since_ns_.store(0, std::memory_order_release);
  }

  /// Consecutive transient failures recorded since the last success.
  uint32_t consecutive_failures() const {
    return consecutive_failures_.load(std::memory_order_relaxed);
  }

 private:
  HealthPolicy policy_;
  std::atomic<int> state_{static_cast<int>(ShardHealth::kHealthy)};
  std::atomic<uint32_t> consecutive_failures_{0};
  /// steady_clock ns after which a quarantined shard may admit a probe.
  std::atomic<int64_t> probe_due_ns_{0};
  std::atomic<bool> probe_inflight_{false};
  /// Current probe backoff in ms (doubles per failed probe).
  std::atomic<int64_t> probe_backoff_ms_{0};
  /// steady_clock ns of the running dispatch's start; 0 = idle.
  std::atomic<int64_t> busy_since_ns_{0};
  /// Latched while quarantined so one episode trips the watchdog once.
  std::atomic<bool> watchdog_tripped_{false};
};

/// \brief Deterministic backoff for retry attempt `attempt` (0-based):
/// initial × multiplier^attempt, capped, scaled by a jitter factor in
/// [1-jitter, 1+jitter] derived from (seed, attempt).
std::chrono::milliseconds RetryBackoff(const core::RetryPolicy& policy,
                                       uint32_t attempt, uint64_t seed);

}  // namespace service
}  // namespace ustdb

#endif  // USTDB_SERVICE_RESILIENCE_H_
