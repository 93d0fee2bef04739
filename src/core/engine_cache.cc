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
  Key key{chain, window.region().elements(), window.times()};
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  if (it->second->epoch != epoch) {
    // Lazy invalidation: the chain's data moved past this entry's build
    // epoch; drop exactly this entry — untouched chains keep theirs.
    ++stats_.invalidations;
    ++stats_.misses;
    lru_.erase(it->second);
    index_.erase(it);
    return nullptr;
  }
  ++stats_.hits;
  // Move to the front of the LRU list.
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->engine.get();
}

const QueryBasedEngine* EngineCache::LookupShiftBase(
    const markov::MarkovChain* chain, const QueryWindow& window,
    DataVersion epoch, Timestamp* delta) {
  const std::vector<uint32_t>& region = window.region().elements();
  const std::vector<Timestamp>& times = window.times();
  if (times.empty()) return nullptr;
  // Candidates share (chain, region) — a contiguous key range. Pick the
  // smallest offset: the cheapest extension.
  auto it = index_.lower_bound(Key{chain, region, {}});
  std::list<Entry>::iterator best;
  Timestamp best_delta = 0;
  for (; it != index_.end() && it->first.chain == chain &&
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
  lru_.splice(lru_.begin(), lru_, best);
  *delta = best_delta;
  return best->engine.get();
}

const QueryBasedEngine* EngineCache::Put(
    const markov::MarkovChain* chain, const QueryWindow& window,
    std::unique_ptr<QueryBasedEngine> engine, DataVersion epoch) {
  InjectCacheAdmissionFault();
  Key key{chain, window.region().elements(), window.times()};
  auto it = index_.find(key);
  if (it != index_.end()) {
    if (it->second->epoch == epoch) return it->second->engine.get();
    // Replace the stale pass in place: same key, fresh epoch.
    ++stats_.invalidations;
    it->second->engine = std::move(engine);
    it->second->epoch = epoch;
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->engine.get();
  }
  if (lru_.size() >= capacity_) {
    ++stats_.evictions;
    index_.erase(lru_.back().key);
    lru_.pop_back();
  }
  lru_.push_front(Entry{key, std::move(engine), epoch});
  index_[std::move(key)] = lru_.begin();
  return lru_.front().engine.get();
}

const markov::IntervalMarkovChain* EngineCache::LookupEnvelope(
    ChainId leader, uint32_t num_members, DataVersion epoch) {
  bool invalidated = false;
  const markov::IntervalMarkovChain* hit =
      envelopes_.Lookup(ClusterKey{leader, num_members}, epoch, &invalidated);
  if (invalidated) ++stats_.invalidations;
  ++(hit != nullptr ? stats_.bound_hits : stats_.bound_misses);
  return hit;
}

const markov::IntervalMarkovChain* EngineCache::PutEnvelope(
    ChainId leader, uint32_t num_members, markov::IntervalMarkovChain envelope,
    DataVersion epoch) {
  InjectCacheAdmissionFault();
  bool evicted = false;
  bool invalidated = false;
  const markov::IntervalMarkovChain* cached = envelopes_.Put(
      ClusterKey{leader, num_members}, std::move(envelope), epoch, capacity_,
      &evicted, &invalidated);
  if (evicted) ++stats_.bound_evictions;
  if (invalidated) ++stats_.invalidations;
  return cached;
}

const std::vector<markov::ProbBound>* EngineCache::LookupBounds(
    ChainId leader, uint32_t num_members, const QueryWindow& window,
    DataVersion epoch) {
  bool invalidated = false;
  const std::vector<markov::ProbBound>* hit = bounds_.Lookup(
      BoundsKey{{leader, num_members}, window.region().elements(),
                window.times()},
      epoch, &invalidated);
  if (invalidated) ++stats_.invalidations;
  ++(hit != nullptr ? stats_.bound_hits : stats_.bound_misses);
  return hit;
}

const std::vector<markov::ProbBound>* EngineCache::PutBounds(
    ChainId leader, uint32_t num_members, const QueryWindow& window,
    std::vector<markov::ProbBound> bounds, DataVersion epoch) {
  InjectCacheAdmissionFault();
  bool evicted = false;
  bool invalidated = false;
  const std::vector<markov::ProbBound>* cached = bounds_.Put(
      BoundsKey{{leader, num_members}, window.region().elements(),
                window.times()},
      std::move(bounds), epoch, capacity_, &evicted, &invalidated);
  if (evicted) ++stats_.bound_evictions;
  if (invalidated) ++stats_.invalidations;
  return cached;
}

void EngineCache::Clear() {
  lru_.clear();
  index_.clear();
  envelopes_.lru.clear();
  envelopes_.index.clear();
  bounds_.lru.clear();
  bounds_.index.clear();
}

}  // namespace core
}  // namespace ustdb
