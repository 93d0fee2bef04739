// Copyright 2026 the ustdb authors.
//
// EngineCache — LRU cache of query-based engines keyed by (chain, window).
// The QB plan front-loads its cost into one backward pass whose result is
// reusable across every object *and every later identical query*; a
// monitoring deployment (the paper's iceberg/traffic scenarios) re-issues
// the same windows continuously, so caching the start vectors turns repeat
// queries into pure dot products.

#ifndef USTDB_CORE_ENGINE_CACHE_H_
#define USTDB_CORE_ENGINE_CACHE_H_

#include <list>
#include <map>
#include <memory>
#include <vector>

#include "core/query_based.h"
#include "core/query_window.h"
#include "markov/interval_chain.h"
#include "markov/markov_chain.h"

namespace ustdb {
namespace core {

/// Cache statistics. hits/misses/evictions cover the query-based engine
/// store; the bound_* counters cover the Section V-C cluster stores
/// (interval envelopes and their per-window bound passes), which are
/// separate LRU stores so admitting a bound pass can never evict a
/// borrowed backward pass.
struct EngineCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t bound_hits = 0;       ///< envelope + bound-pass lookups served
  uint64_t bound_misses = 0;     ///< envelope + bound-pass lookups missed
  uint64_t bound_evictions = 0;  ///< entries displaced from either store
  /// Entries (any store) dropped at lookup because their build epoch no
  /// longer matches the caller's — the lazy per-chain invalidation of the
  /// ingest path. Every stale drop also counts as a miss in its store's
  /// hit/miss pair; the cache is never flushed wholesale by a mutation.
  uint64_t invalidations = 0;
  /// Engines built by extending a cached shifted-window base (delta
  /// propagation steps) instead of a cold full backward pass.
  uint64_t shift_extends = 0;
};

/// \brief LRU cache of QueryBasedEngine instances.
///
/// Keys are (chain pointer, region elements, time set); two windows with
/// equal content share an entry regardless of how they were built.
/// Not thread-safe; wrap externally or use one per thread. Reading
/// (Lookup) and admitting (Put) are separate calls on purpose: the
/// executor borrows every pass a run needs with Lookup(), which never
/// evicts, builds the misses in parallel, and admits them with Put() only
/// after evaluation — so no admission can evict a pass still borrowed.
///
/// Every store method takes the caller's current `epoch` for the data the
/// entry derives from (Database::chain_epoch for the engine store,
/// cluster_epoch for the cluster stores; 0 — the default — for frozen
/// databases, making the tag a no-op). An entry is served only at the
/// epoch it was built at: a lookup that finds a stale entry drops it,
/// counting an invalidation plus the ordinary miss.
class EngineCache {
 public:
  /// \param capacity maximum number of cached engines (>= 1).
  explicit EngineCache(size_t capacity = 16)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  /// \brief Returns the cached engine for (chain, window) or nullptr,
  /// recording a hit or a miss. Never builds and never evicts, so pointers
  /// returned by earlier Lookup() calls stay valid until the next Put()
  /// or Clear() — the executor relies on this to borrow
  /// several engines at once without them evicting each other. A stale
  /// entry IS destroyed by the lookup that finds it — safe under the
  /// borrow contract, because batch keys are distinct and a borrow only
  /// ever holds a fresh-epoch entry, never the stale one being dropped.
  const QueryBasedEngine* Lookup(const markov::MarkovChain* chain,
                                 const QueryWindow& window,
                                 DataVersion epoch = 0);

  /// \brief Returns a same-epoch cached engine whose window equals
  /// `window` shifted backward by some delta >= 1 (same region elements,
  /// every time lower by the same delta), writing the delta, or nullptr.
  /// Prefers the smallest delta (cheapest extension). Counts neither a
  /// hit nor a miss — callers pair it with a failed Lookup() that already
  /// recorded the miss — but counts a shift_extend on success. On a
  /// Lookup() miss the caller extends the base by the delta instead of
  /// building the pass cold.
  /// Never evicts; the returned borrow obeys Lookup()'s validity rules.
  const QueryBasedEngine* LookupShiftBase(const markov::MarkovChain* chain,
                                          const QueryWindow& window,
                                          DataVersion epoch,
                                          Timestamp* delta);

  /// \brief Inserts a pre-built engine for (chain, window), evicting the
  /// least-recently-used entry when full. If the key is already cached at
  /// this epoch the existing engine is kept (refreshed and returned) and
  /// `engine` is discarded; a stale same-key entry is replaced (counting
  /// an invalidation). Records evictions but neither hits nor misses (a
  /// paired Lookup() already did). `engine` must have been built for
  /// exactly this chain and window, in the default (implicit) matrix
  /// mode.
  const QueryBasedEngine* Put(const markov::MarkovChain* chain,
                              const QueryWindow& window,
                              std::unique_ptr<QueryBasedEngine> engine,
                              DataVersion epoch = 0);

  /// \brief Cached interval envelope of one chain cluster, or nullptr
  /// (recording a bound hit/miss). Keyed by (leader ChainId, member
  /// count) — ids are stable where chain pointers are not (growing the
  /// Database reallocates its chain storage) — and a cluster that gained
  /// a member reads as a different key, so stale envelopes age out of the
  /// LRU instead of serving unsound bounds. The pointer stays valid until
  /// the next PutEnvelope() or Clear(). Cached envelopes store their
  /// bounds interleaved ({lo,hi} per transition entry) for the vectorized
  /// bound sweep, and that sweep is bit-identical under every kernel
  /// dispatch table — a hit never depends on which ISA built or reuses
  /// the entry, even across a runtime kernels::SetActiveIsa() flip.
  const markov::IntervalMarkovChain* LookupEnvelope(ChainId leader,
                                                    uint32_t num_members,
                                                    DataVersion epoch = 0);

  /// \brief Inserts a cluster envelope, evicting the least-recently-used
  /// envelope when full; returns the cached instance (the existing one if
  /// the key was already present at this epoch).
  const markov::IntervalMarkovChain* PutEnvelope(
      ChainId leader, uint32_t num_members,
      markov::IntervalMarkovChain envelope, DataVersion epoch = 0);

  /// \brief Cached per-start-state bound pass of one (cluster, window)
  /// pair, or nullptr (recording a bound hit/miss). The pointer stays
  /// valid until the next PutBounds() or Clear(). Cached vectors carry
  /// whatever the producer computed — the executor stores upper-only
  /// passes (lo pinned to 0).
  const std::vector<markov::ProbBound>* LookupBounds(
      ChainId leader, uint32_t num_members, const QueryWindow& window,
      DataVersion epoch = 0);

  /// \brief Inserts a computed bound pass for (cluster, window), evicting
  /// the least-recently-used bound pass when full; returns the cached
  /// instance.
  const std::vector<markov::ProbBound>* PutBounds(
      ChainId leader, uint32_t num_members, const QueryWindow& window,
      std::vector<markov::ProbBound> bounds, DataVersion epoch = 0);

  size_t size() const { return passes_.lru.size(); }
  size_t capacity() const { return capacity_; }
  const EngineCacheStats& stats() const { return stats_; }

  /// Cached cluster envelopes currently held.
  size_t envelope_size() const { return envelopes_.lru.size(); }
  /// Cached cluster bound passes currently held.
  size_t bounds_size() const { return bounds_.lru.size(); }

  /// Drops every entry (e.g. after a chain is mutated/replaced).
  void Clear();

 private:
  struct Key {
    const markov::MarkovChain* chain;
    std::vector<uint32_t> region;
    std::vector<Timestamp> times;

    bool operator<(const Key& other) const {
      if (chain != other.chain) return chain < other.chain;
      if (region != other.region) return region < other.region;
      return times < other.times;
    }
  };

  /// Shared LRU-map implementation of the backward-pass store and the two
  /// cluster stores; V is the cached payload, K must be strictly ordered.
  /// Every node carries the epoch it was admitted at; a lookup at a
  /// different epoch drops the node (lazy invalidation, reported via
  /// `invalidated`).
  template <typename K, typename V>
  struct LruStore {
    struct Node {
      K key;
      V value;
      DataVersion epoch = 0;
    };
    std::list<Node> lru;  // front = most recently used
    std::map<K, typename std::list<Node>::iterator> index;

    /// Returns the payload and refreshes recency, or nullptr. A stale
    /// node reads as a miss and is dropped, setting `*invalidated`.
    V* Lookup(const K& key, DataVersion epoch, bool* invalidated) {
      auto it = index.find(key);
      if (it == index.end()) return nullptr;
      if (it->second->epoch != epoch) {
        *invalidated = true;
        lru.erase(it->second);
        index.erase(it);
        return nullptr;
      }
      lru.splice(lru.begin(), lru, it->second);
      return &it->second->value;
    }

    /// Inserts (keeping any same-epoch existing entry; replacing a stale
    /// one, reported via `invalidated`); `evicted` reports an LRU entry
    /// displaced to stay within `capacity`.
    V* Put(const K& key, V value, DataVersion epoch, size_t capacity,
           bool* evicted, bool* invalidated) {
      if (V* existing = Lookup(key, epoch, invalidated)) return existing;
      *evicted = lru.size() >= capacity;
      if (*evicted) {
        index.erase(lru.back().key);
        lru.pop_back();
      }
      lru.push_front(Node{key, std::move(value), epoch});
      index[key] = lru.begin();
      return &lru.front().value;
    }
  };

  /// (leader chain id, member count) — see LookupEnvelope.
  using ClusterKey = std::pair<ChainId, uint32_t>;
  /// Cluster key plus window contents — see LookupBounds.
  struct BoundsKey {
    ClusterKey cluster;
    std::vector<uint32_t> region;
    std::vector<Timestamp> times;

    bool operator<(const BoundsKey& other) const {
      if (cluster != other.cluster) return cluster < other.cluster;
      if (region != other.region) return region < other.region;
      return times < other.times;
    }
  };

  size_t capacity_;
  LruStore<Key, std::unique_ptr<QueryBasedEngine>> passes_;
  LruStore<ClusterKey, markov::IntervalMarkovChain> envelopes_;
  LruStore<BoundsKey, std::vector<markov::ProbBound>> bounds_;
  EngineCacheStats stats_;
};

}  // namespace core
}  // namespace ustdb

#endif  // USTDB_CORE_ENGINE_CACHE_H_
