// Copyright 2026 the ustdb authors.
//
// Database — the set D of uncertain spatio-temporal objects. Each object
// references a Markov chain (its motion model; Section V-C allows different
// chains per object class) and carries one or more observations.

#ifndef USTDB_CORE_DATABASE_H_
#define USTDB_CORE_DATABASE_H_

#include <atomic>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "core/multi_observation.h"
#include "markov/markov_chain.h"
#include "sparse/types.h"
#include "util/result.h"

namespace ustdb {
namespace core {

/// \brief One uncertain moving object: a motion model reference plus its
/// observation history (sorted by time; the first observation initializes
/// query processing).
struct UncertainObject {
  ObjectId id = 0;
  ChainId chain = 0;
  std::vector<Observation> observations;

  /// Convenience: the earliest observation's pdf (the P(o, 0) of Section V
  /// when there is a single observation at t=0).
  const sparse::ProbVector& initial_pdf() const {
    return observations.front().pdf;
  }

  /// True when the object has exactly one observation (Section V setting).
  bool single_observation() const { return observations.size() == 1; }

  /// \brief True when the object bypasses both single-observation plans
  /// and runs the Section VI multi-observation engine: several
  /// observations, or a single one not at t=0. The executor's census and
  /// the shard router's global plan census share this rule so their
  /// ChainLoads can never drift apart.
  bool needs_multi_observation_engine() const {
    return !single_observation() || observations.front().time != 0;
  }
};

/// \brief One cluster of similar motion models (Section V-C). Clusters are
/// built by greedy leader clustering on transition-matrix distance: the
/// first chain of a cluster is its leader, and every later chain joins the
/// first cluster whose leader it is close to (mean per-row L1 distance).
struct ChainCluster {
  ChainId leader = 0;            ///< first member; the cluster's exemplar
  std::vector<ChainId> members;  ///< ascending; includes the leader
};

/// \brief In-memory database of uncertain objects and their motion models.
///
/// Objects referencing the same ChainId form a class (buses / trucks / cars
/// in the paper's discussion); the query-based engine amortizes its backward
/// pass across each class. Similar classes are further grouped into
/// ChainClusters so the bounds-then-refine plan can bound many classes with
/// one interval envelope.
class Database {
 public:
  Database() = default;

  /// \brief Registers a motion model; returns its ChainId. Also assigns the
  /// chain to a cluster: it joins the first existing cluster whose leader
  /// has the same state count and a mean per-row L1 transition distance at
  /// most kChainClusterL1Threshold, else it starts a new cluster.
  ChainId AddChain(markov::MarkovChain chain);

  /// \brief Registers a motion model with a dictated cluster assignment:
  /// the chain joins the cluster of existing chain `join`, or founds a new
  /// cluster when `join` is nullopt. No similarity scan runs. Used by
  /// ShardedDatabase to mirror the global cluster registry into each
  /// shard's local Database exactly — the global greedy scan is capped
  /// (kMaxLeaderScan), so re-running it over a shard's subset of chains
  /// could place a chain differently than the unsharded registry did.
  ChainId AddChainToClusterOf(markov::MarkovChain chain,
                              std::optional<ChainId> join);

  /// \brief Adds an object. Observations must be sorted by strictly
  /// increasing time, non-empty, with pdfs matching the chain's state count;
  /// pdfs are normalized on insertion. Returns the new ObjectId.
  util::Result<ObjectId> AddObject(ChainId chain,
                                   std::vector<Observation> observations);

  /// Shorthand for the common single-observation-at-t0 case.
  util::Result<ObjectId> AddObjectAt(ChainId chain,
                                     sparse::ProbVector initial_pdf,
                                     Timestamp t = 0);

  /// \brief Re-inserts observations that already passed AddObject once,
  /// bit-exactly: no validation and — critically — no re-normalization,
  /// since Normalize() scales by 1/Sum() and is not floating-point
  /// idempotent. Used by ShardedDatabase's rebalance rebuild so a
  /// migrated object's pdfs keep the exact bits of the original
  /// insertion. The caller vouches the observations came out of a
  /// Database with a matching chain dimension.
  ObjectId ReAddNormalizedObject(ChainId chain,
                                 std::vector<Observation> observations);

  /// \brief Appends one observation to an existing object's history and
  /// returns the DataVersion the mutation was stamped with. The ingest
  /// path of the continuous-query pipeline: the pdf is validated against
  /// the object's chain and normalized exactly like AddObject's, and the
  /// sorted-history invariant is enforced — a time at or before the
  /// object's latest observation rejects with kInvalidArgument rather
  /// than silently corrupting the history. On success the database-wide
  /// version advances and is recorded as the object's and its chain's
  /// epoch; the cluster registry is untouched (the object's chain — and
  /// therefore its cluster membership — never changes), so an append
  /// never re-runs the capped leader scan.
  util::Result<DataVersion> AppendObservation(ObjectId id, Observation obs);

  /// \brief AppendObservation with a caller-allocated version stamp,
  /// which must exceed data_version(). Used by ShardedDatabase so every
  /// shard's epochs advance along ONE global version sequence: the
  /// router allocates from its global counter and applies under the
  /// owning shard's ingest serialization, keeping each shard's
  /// data_version() monotonic in global order.
  util::Result<DataVersion> AppendObservationAtVersion(ObjectId id,
                                                       Observation obs,
                                                       DataVersion version);

  /// Database-wide epoch: 0 until the first AppendObservation, then the
  /// version of the latest applied mutation.
  DataVersion data_version() const { return version_; }

  /// Epoch of the latest mutation touching an object of `chain`
  /// (0 = never mutated). Cache entries derived from this chain carry
  /// the epoch they were built at and go stale when it advances.
  DataVersion chain_epoch(ChainId chain) const { return chain_epoch_[chain]; }

  /// Epoch of the latest mutation of cluster `cluster` (any member
  /// chain); tags the cluster-keyed envelope/bounds cache stores.
  DataVersion cluster_epoch(uint32_t cluster) const {
    return cluster_epoch_[cluster];
  }

  /// Epoch of object `id`'s latest appended observation (0 = frozen).
  DataVersion object_epoch(ObjectId id) const { return object_epoch_[id]; }

  /// \brief Lock-free mirror of object(id).needs_multi_observation_engine(),
  /// safe to read while another thread appends observations. The service's
  /// submit-path plan census runs without the ingest lock; reading the
  /// UncertainObject directly there would race the history push_back. Only
  /// ever transitions false -> true (appends can't remove observations).
  bool object_needs_multi_engine(ObjectId id) const {
    return (*multi_engine_)[id].load(std::memory_order_acquire);
  }

  /// \brief Objects of `chain` that a single-observation plan answers:
  /// objects_by_chain()[chain].size() minus those flagged by
  /// object_needs_multi_engine(). O(1), and lock-free like that mirror, so
  /// the census of a request without a filter costs O(chains).
  uint32_t single_observation_count(ChainId chain) const {
    return static_cast<uint32_t>(by_chain_[chain].size()) -
           (*multi_per_chain_)[chain].load(std::memory_order_acquire);
  }

  /// Ids of the objects that need the multi-observation engine, in the
  /// order they came to need it. Unlike the counts above, not safe to
  /// read while another thread appends.
  const std::vector<ObjectId>& multi_engine_objects() const {
    return multi_objects_;
  }

  uint32_t num_objects() const {
    return static_cast<uint32_t>(objects_.size());
  }
  uint32_t num_chains() const { return static_cast<uint32_t>(chains_.size()); }

  const UncertainObject& object(ObjectId id) const { return objects_[id]; }
  const std::vector<UncertainObject>& objects() const { return objects_; }
  const markov::MarkovChain& chain(ChainId id) const { return chains_[id]; }

  /// Object ids grouped by chain, in insertion order.
  const std::vector<std::vector<ObjectId>>& objects_by_chain() const {
    return by_chain_;
  }

  /// \brief Similarity clusters over the registered chains, maintained
  /// incrementally by AddChain. Never empty entries; every chain belongs
  /// to exactly one cluster.
  const std::vector<ChainCluster>& chain_clusters() const {
    return clusters_;
  }

  /// Index into chain_clusters() of the cluster holding `chain`.
  uint32_t cluster_of(ChainId chain) const { return cluster_of_[chain]; }

  /// \brief Mean per-row L1 distance between two equal-dimension transition
  /// matrices: sum over rows of Σ_j |a(r,j) − b(r,j)|, divided by the row
  /// count. 0 for identical chains, 2 for chains with disjoint supports.
  static double MeanRowL1Distance(const markov::MarkovChain& a,
                                  const markov::MarkovChain& b);

  /// \brief Clustering radius of AddChain: perturbed variants of one base
  /// model (jittered weights on a shared support) stay well below it,
  /// while independently drawn models land near the disjoint-support
  /// maximum of 2.
  static constexpr double kChainClusterL1Threshold = 0.6;

 private:
  /// Registers `id` in by_chain_ and the epoch / census side tables.
  void RegisterObject(ObjectId id, ChainId chain);

  std::vector<markov::MarkovChain> chains_;
  std::vector<UncertainObject> objects_;
  std::vector<std::vector<ObjectId>> by_chain_;
  std::vector<ChainCluster> clusters_;
  std::vector<uint32_t> cluster_of_;  // parallel to chains_
  DataVersion version_ = 0;
  std::vector<DataVersion> chain_epoch_;    // parallel to chains_
  std::vector<DataVersion> cluster_epoch_;  // parallel to clusters_
  std::vector<DataVersion> object_epoch_;   // parallel to objects_
  /// deque: push_back never relocates existing atomics, so the census
  /// mirror stays readable lock-free while objects are added. Held behind
  /// a unique_ptr so Database stays nothrow-movable (libstdc++'s deque
  /// move allocates) yet becomes move-only, which every existing use
  /// already satisfies.
  std::unique_ptr<std::deque<std::atomic<bool>>> multi_engine_ =
      std::make_unique<std::deque<std::atomic<bool>>>();  // ∥ objects_
  /// Flagged objects per chain, kept like multi_engine_.
  std::unique_ptr<std::deque<std::atomic<uint32_t>>> multi_per_chain_ =
      std::make_unique<std::deque<std::atomic<uint32_t>>>();  // ∥ chains_
  std::vector<ObjectId> multi_objects_;
};

}  // namespace core
}  // namespace ustdb

#endif  // USTDB_CORE_DATABASE_H_
