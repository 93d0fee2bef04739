#include "core/engine_cache.h"

#include "util/fault_injector.h"

namespace ustdb {
namespace core {

namespace {

/// Cache-admission fault point. Put* returns a borrowed pointer with no
/// error channel, so a firing `fail` rule escalates to the same exception
/// a `throw` rule raises; both are converted to kUnavailable at the
/// executor's Run/RunBatch boundary (admission always happens on the
/// run's controlling thread, never on a pool worker).
void InjectCacheAdmissionFault() {
  if (util::FaultInjector* fi = util::FaultInjector::Active()) {
    util::Status status = fi->Inject(util::FaultPoint::kCacheAdmission);
    if (!status.ok()) throw util::FaultInjectedError(status.message());
  }
}

}  // namespace

const QueryBasedEngine* EngineCache::Lookup(const markov::MarkovChain* chain,
                                            const QueryWindow& window,
                                            DataVersion epoch) {
  // Lazy invalidation: a stale entry (the chain's data moved past its
  // build epoch) is dropped — untouched chains keep theirs.
  bool invalidated = false;
  const std::unique_ptr<QueryBasedEngine>* hit = passes_.Lookup(
      Key{chain, window.region().elements(), window.times()}, epoch,
      &invalidated);
  if (invalidated) ++stats_.invalidations;
  ++(hit != nullptr ? stats_.hits : stats_.misses);
  return hit != nullptr ? hit->get() : nullptr;
}

const QueryBasedEngine* EngineCache::LookupShiftBase(
    const markov::MarkovChain* chain, const QueryWindow& window,
    DataVersion epoch, Timestamp* delta) {
  const std::vector<uint32_t>& region = window.region().elements();
  const std::vector<Timestamp>& times = window.times();
  if (times.empty()) return nullptr;
  // Candidates share (chain, region) — a contiguous key range. Pick the
  // smallest offset: the cheapest extension.
  auto it = passes_.index.lower_bound(Key{chain, region, {}});
  auto best = passes_.lru.end();
  Timestamp best_delta = 0;
  for (; it != passes_.index.end() && it->first.chain == chain &&
         it->first.region == region;
       ++it) {
    const std::vector<Timestamp>& base_times = it->first.times;
    if (base_times.size() != times.size()) continue;
    if (base_times.front() >= times.front()) continue;
    const Timestamp d = times.front() - base_times.front();
    if (best_delta != 0 && d >= best_delta) continue;
    bool aligned = true;
    for (size_t i = 1; i < times.size(); ++i) {
      if (base_times[i] + d != times[i]) {
        aligned = false;
        break;
      }
    }
    if (!aligned || it->second->epoch != epoch) continue;
    best = it->second;
    best_delta = d;
  }
  if (best_delta == 0) return nullptr;
  ++stats_.shift_extends;
  passes_.lru.splice(passes_.lru.begin(), passes_.lru, best);
  *delta = best_delta;
  return best->value.get();
}

const QueryBasedEngine* EngineCache::Put(
    const markov::MarkovChain* chain, const QueryWindow& window,
    std::unique_ptr<QueryBasedEngine> engine, DataVersion epoch) {
  InjectCacheAdmissionFault();
  bool evicted = false;
  bool invalidated = false;
  const std::unique_ptr<QueryBasedEngine>* cached = passes_.Put(
      Key{chain, window.region().elements(), window.times()},
      std::move(engine), capacity_, &evicted, epoch, &invalidated);
  if (evicted) ++stats_.evictions;
  if (invalidated) ++stats_.invalidations;
  return cached->get();
}

const markov::IntervalMarkovChain* EngineCache::LookupEnvelope(
    ChainId leader, uint32_t num_members) {
  const markov::IntervalMarkovChain* hit =
      envelopes_.Lookup(ClusterKey{leader, num_members});
  ++(hit != nullptr ? stats_.bound_hits : stats_.bound_misses);
  return hit;
}

const markov::IntervalMarkovChain* EngineCache::PutEnvelope(
    ChainId leader, uint32_t num_members,
    markov::IntervalMarkovChain envelope) {
  InjectCacheAdmissionFault();
  bool evicted = false;
  const markov::IntervalMarkovChain* cached =
      envelopes_.Put(ClusterKey{leader, num_members}, std::move(envelope),
                     capacity_, &evicted);
  if (evicted) ++stats_.bound_evictions;
  return cached;
}

const std::vector<markov::ProbBound>* EngineCache::LookupBounds(
    ChainId leader, uint32_t num_members, const QueryWindow& window) {
  const std::vector<markov::ProbBound>* hit = bounds_.Lookup(BoundsKey{
      {leader, num_members}, window.region().elements(), window.times()});
  ++(hit != nullptr ? stats_.bound_hits : stats_.bound_misses);
  return hit;
}

const std::vector<markov::ProbBound>* EngineCache::PutBounds(
    ChainId leader, uint32_t num_members, const QueryWindow& window,
    std::vector<markov::ProbBound> bounds) {
  InjectCacheAdmissionFault();
  bool evicted = false;
  const std::vector<markov::ProbBound>* cached = bounds_.Put(
      BoundsKey{{leader, num_members}, window.region().elements(),
                window.times()},
      std::move(bounds), capacity_, &evicted);
  if (evicted) ++stats_.bound_evictions;
  return cached;
}

void EngineCache::Clear() {
  passes_.lru.clear();
  passes_.index.clear();
  envelopes_.lru.clear();
  envelopes_.index.clear();
  bounds_.lru.clear();
  bounds_.index.clear();
}

}  // namespace core
}  // namespace ustdb
