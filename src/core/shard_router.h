// Copyright 2026 the ustdb authors.
//
// ShardedDatabase — a Database partitioned into N shared-nothing shards
// keyed by the chain-similarity registry. Whole ChainClusters stay
// co-located on one shard, so the Section V-C bounds-then-refine plan
// never crosses shard boundaries: a shard either owns every object an
// envelope bounds or none of them. The QueryService runs one
// QueryExecutor per shard (own EngineCache, own worker slice) and
// scatter-gathers multi-chain requests; this class owns the placement,
// the global<->local id maps the router translates through, and the
// rebalance hook that keeps shard loads within a factor of ideal as the
// database grows.
//
// Ids: every chain and object keeps ONE stable global id — the id it
// would have in the equivalent unsharded Database — plus a local id
// inside its shard's Database. Global ids never change, not even across
// rebalance migrations, so they remain valid cache keys (the
// EngineCache's cluster stores key on leader ChainId) and valid wire
// ids for clients. Local ids are an implementation detail of one
// shard's Database and may be reassigned by a migration.

#ifndef USTDB_CORE_SHARD_ROUTER_H_
#define USTDB_CORE_SHARD_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/database.h"
#include "markov/markov_chain.h"
#include "sparse/types.h"
#include "util/result.h"

namespace ustdb {
namespace core {

/// Placement knobs of a ShardedDatabase.
struct ShardingOptions {
  /// Number of shards; 0 resolves through
  /// ShardedDatabase::ResolveNumShards (the USTDB_SHARDS environment
  /// variable, defaulting to 1).
  uint32_t num_shards = 0;

  /// Rebalance trigger: after an insertion, if the most loaded shard
  /// exceeds `load_factor` x the ideal (total load / num_shards), the
  /// database migrates one cluster toward the least loaded shard.
  /// Values <= 1.0 are clamped to 1.0 (rebalance on any improvement).
  double load_factor = 1.5;
};

/// \brief A Database partitioned into shared-nothing shards along
/// cluster-registry lines.
///
/// Construction mirrors the Database builder API (AddChain / AddObject /
/// AddObjectAt) and returns *global* ids, so existing loading code ports
/// by swapping the type. Internally every chain is registered twice:
///
///   - in `routing_db()`, a chain-only Database holding ALL chains in
///     global insertion order — its cluster registry and ChainIds are
///     bit-identical to the unsharded pipeline's, and it feeds the
///     router's global plan decisions (QueryPlanner over per-shard
///     object counts) without duplicating any object;
///   - in its shard's local Database, via AddChainToClusterOf with the
///     globally decided cluster assignment — never a re-run of the
///     similarity scan, whose kMaxLeaderScan cap could place a chain
///     differently over a shard's subset.
///
/// Placement: a chain founding a new global cluster lands on the least
/// loaded shard; a chain joining an existing cluster lands on that
/// cluster's shard (co-location invariant). Load is Σ over resident
/// objects of their chain's transition-matrix nnz — the dominant cost
/// of both evaluation plans scales with exactly that product.
///
/// Thread safety: none during construction/mutation (like Database).
/// Once loaded, all accessors are const and safe to share across the
/// per-shard executors. Structural mutation (AddChain/AddObject, which
/// can rebalance) while a QueryService is serving the instance is not
/// supported; a rebalance listener is provided so cache owners can
/// invalidate pointer-keyed entries of rebuilt shards. AppendObservation
/// is the one serving-time mutation: it touches exactly the owning
/// shard's Database (never the registry, never a rebalance), so the
/// service admits it by serializing against that single shard's
/// dispatch. Callers appending to the same shard concurrently must hold
/// that serialization themselves.
class ShardedDatabase {
 public:
  explicit ShardedDatabase(ShardingOptions options = {});

  /// \brief Resolves a shard-count request: `requested` > 0 wins;
  /// otherwise the USTDB_SHARDS environment variable (parsed as a
  /// positive integer) applies; otherwise 1. Mirrors the
  /// USTDB_KERNEL_ISA pattern so CI can pin a configuration for a full
  /// suite run.
  static uint32_t ResolveNumShards(uint32_t requested);

  /// \brief Registers a motion model; returns its stable global ChainId
  /// (identical to what an unsharded Database would have assigned).
  ChainId AddChain(markov::MarkovChain chain);

  /// \brief Adds an object to `chain`'s shard; returns its stable global
  /// ObjectId. Validation (pdf dimensions, normalization, strictly
  /// increasing times) is delegated to the shard Database and identical
  /// to the unsharded path. May trigger a rebalance migration.
  util::Result<ObjectId> AddObject(ChainId chain,
                                   std::vector<Observation> observations);

  /// Shorthand for the common single-observation-at-t0 case.
  util::Result<ObjectId> AddObjectAt(ChainId chain,
                                     sparse::ProbVector initial_pdf,
                                     Timestamp t = 0);

  /// \brief Appends an observation to global object `id`, routed to the
  /// owning shard. The version is allocated from ONE global counter and
  /// applied through Database::AppendObservationAtVersion, so every
  /// shard's epochs advance along the same global sequence — a gathered
  /// partial answer can name the exact global epoch it reflects, and
  /// epochs from different shards compare meaningfully (max-merge in the
  /// scatter-gather). A rejected append (validation failure) burns its
  /// allocated version: gaps are fine, monotonicity is what matters.
  util::Result<DataVersion> AppendObservation(ObjectId id, Observation obs);

  /// Newest globally allocated data version (0 = never appended). A
  /// shard's Database::data_version() is the newest version *applied
  /// there* and is always <= this.
  DataVersion data_version() const {
    return version_->load(std::memory_order_acquire);
  }

  uint32_t num_shards() const {
    return static_cast<uint32_t>(shards_.size());
  }
  uint32_t num_chains() const { return routing_db_.num_chains(); }
  uint32_t num_objects() const {
    return static_cast<uint32_t>(object_shard_.size());
  }

  /// Shard-local Database `s`; local ids only.
  const Database& shard(uint32_t s) const { return shards_[s].db; }

  /// \brief Chain-only mirror of the whole database: every chain at its
  /// global id, the full cluster registry, zero objects. Feeds the
  /// router's QueryPlanner (cost fields that need object counts are
  /// supplied by the router from per-shard statistics).
  const Database& routing_db() const { return routing_db_; }

  uint32_t shard_of_chain(ChainId global) const {
    return chain_shard_[global];
  }
  uint32_t shard_of_object(ObjectId global) const {
    return object_shard_[global];
  }
  ChainId local_chain(ChainId global) const { return chain_local_[global]; }
  ObjectId local_object(ObjectId global) const {
    return object_local_[global];
  }
  ChainId global_chain(uint32_t shard, ChainId local) const {
    return shards_[shard].global_chains[local];
  }
  ObjectId global_object(uint32_t shard, ObjectId local) const {
    return shards_[shard].global_objects[local];
  }
  /// Global id of every object on `shard`, indexed by local id and always
  /// ascending. Stable while no structural mutation runs.
  std::span<const ObjectId> global_objects(uint32_t shard) const {
    return shards_[shard].global_objects;
  }

  /// Σ objects x chain nnz currently resident on shard `s`.
  uint64_t shard_load(uint32_t s) const { return shards_[s].load; }

  /// Cluster migrations performed so far.
  uint64_t rebalances() const { return rebalances_; }

  /// \brief Registers a callback fired after each migration with the
  /// source and destination shard indices. Both shards' Databases were
  /// rebuilt (chain storage reallocated), so any cache keyed on chain
  /// pointers into them must be cleared. Replaces any prior listener.
  void SetRebalanceListener(
      std::function<void(uint32_t from, uint32_t to)> listener) {
    rebalance_listener_ = std::move(listener);
  }

 private:
  struct Shard {
    Database db;
    /// Global ids in local insertion order (index = local id). Always
    /// ascending: insertions arrive in global order and rebuilds re-add
    /// in ascending global order.
    std::vector<ChainId> global_chains;
    std::vector<ObjectId> global_objects;
    uint64_t load = 0;
  };

  /// One object's portable state, snapshotted across a migration rebuild
  /// (the old shard Databases are discarded before the new ones exist).
  struct ObjectSnapshot {
    ObjectId global = 0;
    ChainId chain = 0;  ///< global chain id
    std::vector<Observation> observations;
  };

  /// Appends `global_chain` to shard `s`'s Database, mirroring the
  /// global cluster assignment (joins the cluster leader's local
  /// cluster, which the co-location invariant guarantees is present),
  /// and updates the id maps.
  void PlaceChain(uint32_t s, ChainId global_chain);

  /// Migrates one whole cluster from the most loaded shard toward the
  /// least loaded one when the load factor is exceeded and a migration
  /// strictly improves the maximum; no-op otherwise.
  void MaybeRebalance();

  /// Rebuilds shard `s`'s Database from scratch: chains with
  /// chain_shard_[g] == s in ascending global order, then the matching
  /// objects from `snapshot` (ascending global order), refreshing local
  /// ids, reverse maps, and the load figure.
  void RebuildShard(uint32_t s, const std::vector<ObjectSnapshot>& snapshot);

  ShardingOptions options_;
  Database routing_db_;
  std::vector<Shard> shards_;

  // Global-id indexed maps (parallel to routing_db_ chains / insertion
  // order of objects).
  std::vector<uint32_t> chain_shard_;
  std::vector<ChainId> chain_local_;
  std::vector<uint32_t> object_shard_;
  std::vector<ObjectId> object_local_;
  /// Shard owning each global cluster (index into
  /// routing_db().chain_clusters()).
  std::vector<uint32_t> cluster_shard_;

  uint64_t rebalances_ = 0;
  std::function<void(uint32_t, uint32_t)> rebalance_listener_;
  /// Global ingest version counter; atomic so appends routed to
  /// *different* shards may allocate concurrently (each under its own
  /// shard's external serialization). Behind a unique_ptr to keep the
  /// class nothrow-movable (atomics are neither copyable nor movable);
  /// a ShardedDatabase is never moved while appends are in flight.
  std::unique_ptr<std::atomic<DataVersion>> version_ =
      std::make_unique<std::atomic<DataVersion>>(0);
};

}  // namespace core
}  // namespace ustdb

#endif  // USTDB_CORE_SHARD_ROUTER_H_
