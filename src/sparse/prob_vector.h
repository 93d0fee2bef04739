// Copyright 2026 the ustdb authors.
//
// ProbVector — a probability (sub-)distribution over [0, size) that
// automatically switches between a sorted sparse representation and a dense
// array. This mirrors the behaviour the paper observes in Section VIII:
// object distribution vectors start with tiny support ("object spread" ~ 5
// states) and densify with every transition, so a fixed representation is
// either wasteful early or slow late.

#ifndef USTDB_SPARSE_PROB_VECTOR_H_
#define USTDB_SPARSE_PROB_VECTOR_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "sparse/index_set.h"
#include "sparse/types.h"
#include "util/aligned_alloc.h"
#include "util/result.h"

namespace ustdb {
namespace sparse {

/// \brief Adaptive sparse/dense vector of non-negative reals.
///
/// Invariants: entries are >= 0; sparse indices are strictly ascending with
/// values > 0. Total mass may be <= 1 (sub-distributions appear when the
/// absorbing ◆ state's mass is tracked separately).
class ProbVector {
 public:
  /// Support fraction above which the vector migrates to dense storage.
  static constexpr double kDenseThreshold = 0.30;

  /// Support fraction below which a dense vector migrates back to sparse
  /// storage. Strictly below kDenseThreshold: inside the band between the
  /// two thresholds a vector keeps its current representation, so support
  /// hovering at one boundary (common once a distribution saturates its
  /// reachable set) stops flipping representations every transition.
  static constexpr double kSparseThreshold = 0.15;

  /// Zero vector of dimension `size`.
  static ProbVector Zero(uint32_t size);

  /// Point mass at `index` (a certain observation).
  static ProbVector Delta(uint32_t size, uint32_t index);

  /// \brief Builds from (index, value) pairs. Duplicate indices are summed.
  /// Fails on out-of-range indices or negative values.
  /// \param normalize if true, scales the result to total mass one
  ///        (fails if the total is zero).
  static util::Result<ProbVector> FromPairs(
      uint32_t size, std::vector<std::pair<uint32_t, double>> pairs,
      bool normalize = false);

  /// Builds from a dense array (size must match); negative values rejected.
  static util::Result<ProbVector> FromDense(std::vector<double> values,
                                            bool normalize = false);

  /// Uniform distribution over the members of `support`.
  static util::Result<ProbVector> UniformOver(const IndexSet& support);

  ProbVector() : size_(0), dense_(false) {}

  uint32_t size() const { return size_; }

  /// Number of structurally non-zero entries.
  uint32_t Support() const;

  /// True while the sparse representation is active.
  bool IsSparse() const { return !dense_; }

  /// Value at `i` (O(log support) when sparse).
  double Get(uint32_t i) const;

  /// Total mass (compensated summation).
  double Sum() const;

  /// Largest entry value (0 for an all-zero vector).
  double MaxValue() const;

  /// Mass inside `set`: sum_{i in set} v[i].
  double MassIn(const IndexSet& set) const;

  /// Dot product with another vector of the same dimension.
  double Dot(const ProbVector& other) const;

  /// \brief Dot(other), bit for bit, reading `other` through
  /// `other_dense`: an array of size() entries equal to other's, zeros
  /// included. A sparse vector keeps Dot's ascending walk over its own
  /// non-zeros and its compensated sum, but reads each entry of `other`
  /// by index instead of by binary search; a dense one takes Dot, which
  /// may walk `other` instead.
  double DotDense(const ProbVector& other, const double* other_dense) const;

  /// The dense array (size() entries) while dense, else nullptr.
  const double* dense_data() const {
    return dense_ ? dense_values_.data() : nullptr;
  }

  /// Scales all entries by `factor` (>= 0).
  void Scale(double factor);

  /// Scales to total mass one. Fails if the vector is all zero.
  util::Status Normalize();

  /// \brief Removes the mass inside `set` and returns the removed amount.
  /// This is the vector-level view of the paper's M+ redirection: entries in
  /// the query region are folded into the absorbing state by the caller.
  double ExtractMassIn(const IndexSet& set);

  /// \brief Removes the entries inside `set` and returns them as
  /// (index, value) pairs (ascending). The per-entry flavour of
  /// ExtractMassIn, needed by the PSTkQ shift step where mass moves to the
  /// *same state* one k-level up rather than into a single ◆ state.
  std::vector<std::pair<uint32_t, double>> ExtractEntriesIn(
      const IndexSet& set);

  /// Adds `value` to entry `index` for each pair (values must be >= 0).
  void AddEntries(const std::vector<std::pair<uint32_t, double>>& entries);

  /// \brief Elementwise (Hadamard) product with `other`, in place.
  /// Implements Lemma 1's combination of independent observations (the
  /// normalization step is separate; see Normalize()).
  util::Status PointwiseMultiply(const ProbVector& other);

  /// Copies into a dense array of length size() (caller-owned).
  void CopyToDense(double* out) const;

  /// Dense snapshot (for tests / ground-truth comparisons).
  std::vector<double> ToDense() const;

  /// Calls f(index, value) for every structural non-zero, ascending index.
  template <typename F>
  void ForEachNonZero(F&& f) const {
    if (dense_) {
      for (uint32_t i = 0; i < size_; ++i) {
        if (dense_values_[i] != 0.0) f(i, dense_values_[i]);
      }
    } else {
      for (size_t k = 0; k < idx_.size(); ++k) f(idx_[k], val_[k]);
    }
  }

  /// \brief Re-evaluates the representation choice: drops entries below
  /// kProbEpsilon and switches sparse<->dense with hysteresis (dense above
  /// kDenseThreshold, sparse below kSparseThreshold, unchanged between).
  void Compact();

  /// L-infinity distance to `other` (test helper).
  double MaxAbsDiff(const ProbVector& other) const;

 private:
  friend class VecMatWorkspace;

  explicit ProbVector(uint32_t size) : size_(size), dense_(false) {}

  void SwitchToDense();
  void SwitchToSparse();

  uint32_t size_;
  bool dense_;
  // Sparse representation (ascending, values > 0):
  std::vector<uint32_t> idx_;
  std::vector<double> val_;
  // Dense representation — 64-byte-aligned so the SIMD kernels can read
  // and ping-pong it directly (see util/aligned_alloc.h):
  util::AlignedVector<double> dense_values_;
};

}  // namespace sparse
}  // namespace ustdb

#endif  // USTDB_SPARSE_PROB_VECTOR_H_
