// Copyright 2026 the ustdb authors.
//
// Deterministic fault injection for resilience testing. A FaultInjector is
// parsed from a spec string (env `USTDB_FAULT_SPEC`, seeded by
// `USTDB_FAULT_SEED`) and consulted at seven fixed points of the query
// pipeline: queue admission, dispatch, engine build, kernel dispatch,
// cache admission, scatter/gather merge, and ingest. Each consultation
// either does
// nothing, sleeps (`stall`), returns kUnavailable (`fail`), or throws a
// FaultInjectedError (`throw`) — the decision is a pure function of
// (seed, point, rule, per-point draw counter), so a fixed spec + seed
// replays the same fault sequence for a single-threaded call order and the
// same fault *set* for any interleaving.
//
// Zero-overhead contract: when no spec is installed, every injection point
// is one relaxed atomic load plus a predictable branch — results are
// bit-identical to a build without the points.
//
// Spec grammar (entries separated by ';', fields by ':'):
//
//   spec     := entry (';' entry)*
//   entry    := site ':' action (':' arg)*
//   site     := 'queue_admission' | 'dispatch' | 'engine_build'
//             | 'kernel_dispatch' | 'cache_admission' | 'merge'
//             | 'ingest'
//             | 'shard' N                (= dispatch, shard N only)
//   action   := 'fail' | 'throw' | 'stall'
//   arg      := probability in (0, 1]    (default 1.0)
//             | duration '10ms' '250us' '1s'  (stall only; default 10ms)
//
// Examples: `engine_build:throw:0.01;shard2:stall:50ms`,
//           `dispatch:fail:0.05;merge:stall:1ms:0.2`.

#ifndef USTDB_UTIL_FAULT_INJECTOR_H_
#define USTDB_UTIL_FAULT_INJECTOR_H_

#include <atomic>
#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace ustdb {
namespace obs {
class Counter;
}  // namespace obs
namespace util {

/// The fixed injection points of the query pipeline. Values index the
/// injector's per-point counters; keep kNumFaultPoints in sync.
enum class FaultPoint : int {
  kQueueAdmission = 0,  ///< QueryService::Submit, before enqueueing
  kDispatch = 1,        ///< dispatcher thread, before running a task
  kEngineBuild = 2,     ///< executor, before constructing engines
  kKernelDispatch = 3,  ///< evaluation loop, per object chunk
  kCacheAdmission = 4,  ///< EngineCache::Put*, before admitting an entry
  kMerge = 5,           ///< scatter/gather merge of sub-results
  kIngest = 6,          ///< QueryService::AppendObservation, before applying
};
inline constexpr int kNumFaultPoints = 7;

/// Spec name of a point ("queue_admission", ...).
std::string_view FaultPointName(FaultPoint point);

/// What a firing rule does at its point.
enum class FaultKind : int {
  kFail = 0,   ///< Inject() returns Status::Unavailable
  kThrow = 1,  ///< Inject() throws FaultInjectedError
  kStall = 2,  ///< Inject() sleeps for the rule's duration, then continues
};

/// Exception raised by `throw` rules. Caught at the executor/service
/// boundaries and converted to kUnavailable, like any transient failure.
struct FaultInjectedError : public std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// One parsed spec entry.
struct FaultRule {
  FaultPoint point = FaultPoint::kDispatch;
  int32_t shard = -1;  ///< -1 = any shard; >= 0 restricts dispatch faults
  FaultKind kind = FaultKind::kFail;
  double probability = 1.0;
  std::chrono::microseconds stall{10000};
};

/// \brief Seeded, deterministic fault source. Thread-safe: Inject() may be
/// called concurrently from any thread; all state is atomic.
class FaultInjector {
 public:
  /// The installed injector, or nullptr when fault injection is off. One
  /// relaxed atomic load — this is the entire cost of an inactive point.
  static FaultInjector* Active() {
    return active_.load(std::memory_order_acquire);
  }

  /// Parses a spec string. Returns InvalidArgument with the offending
  /// entry on malformed input.
  static Result<std::unique_ptr<FaultInjector>> Parse(std::string_view spec,
                                                      uint64_t seed);

  /// Consults every rule matching (point, shard): stalls sleep and
  /// continue, the first firing fail returns kUnavailable, the first
  /// firing throw raises FaultInjectedError. OK when nothing fires.
  Status Inject(FaultPoint point, int32_t shard = -1);

  /// Number of rule firings recorded at `point` (stalls included).
  uint64_t fired(FaultPoint point) const {
    return fired_[static_cast<int>(point)].load(std::memory_order_relaxed);
  }
  /// Total firings across all points.
  uint64_t total_fired() const;

  const std::vector<FaultRule>& rules() const { return rules_; }
  uint64_t seed() const { return seed_; }

 private:
  friend class ScopedFaultInjection;
  explicit FaultInjector(uint64_t seed) : seed_(seed) {}

  /// Pure decision: does `rule_index` fire for draw number `draw`?
  bool Fires(size_t rule_index, uint64_t draw) const;

  static std::atomic<FaultInjector*> active_;

  uint64_t seed_ = 0;
  std::vector<FaultRule> rules_;
  /// Per-rule fire counters, resolved at parse time: Inject() may run
  /// under a service lock, and must not take the registry's.
  std::vector<obs::Counter*> fire_counters_;
  /// Rule indices per point, in spec order.
  std::array<std::vector<uint32_t>, kNumFaultPoints> by_point_;
  mutable std::array<std::atomic<uint64_t>, kNumFaultPoints> draws_{};
  mutable std::array<std::atomic<uint64_t>, kNumFaultPoints> fired_{};
};

/// \brief RAII test hook: installs an injector (or nullptr to force-off)
/// for the scope's lifetime and restores the previous one — typically the
/// env-spec injector or none — on destruction. Install only while no
/// queries are in flight; points sample Active() independently.
class ScopedFaultInjection {
 public:
  explicit ScopedFaultInjection(std::unique_ptr<FaultInjector> injector)
      : owned_(std::move(injector)),
        previous_(FaultInjector::active_.exchange(
            owned_.get(), std::memory_order_acq_rel)) {}
  ~ScopedFaultInjection() {
    FaultInjector::active_.store(previous_, std::memory_order_release);
  }
  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;

  FaultInjector* get() const { return owned_.get(); }

 private:
  std::unique_ptr<FaultInjector> owned_;
  FaultInjector* previous_;
};

}  // namespace util
}  // namespace ustdb

#endif  // USTDB_UTIL_FAULT_INJECTOR_H_
