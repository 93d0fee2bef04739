// Copyright 2026 the ustdb authors.
//
// MultiObservationEngine — Section VI: PST∃Q given an arbitrary number of
// (mutually independent) observations of the same object, some of which may
// lie after the query window ("time-interpolation").
//
// Worlds which have already hit the window can no longer be collapsed into
// one absorbing state — their current location affects the probability of
// later observations — so the state space is doubled: s_i (not yet hit) and
// s_i◾ (hit, currently at s_i). At each observation time the joint vector is
// conditioned on the observation by an elementwise product (Lemma 1) and
// renormalized, and the answer is P(B) / (P(B) + P(C)) (Equation 1).
//
// When every observation lies at or before the window's first time t_b,
// the Markov property collapses the doubled pass to one dot product:
// P∃ = α(t_b) · h, where α(t_b) is the object's filtered distribution
// (FilteredDistribution below) and h the head of the window's query-based
// backward pass (QueryBasedEngine::head()). The executor answers such
// objects that way; this engine serves the rest (time-interpolation,
// explicit matrix mode) and is the reference the identity is tested
// against.

#ifndef USTDB_CORE_MULTI_OBSERVATION_H_
#define USTDB_CORE_MULTI_OBSERVATION_H_

#include <vector>

#include "core/absorbing.h"
#include "core/object_based.h"
#include "core/query_window.h"
#include "markov/markov_chain.h"
#include "sparse/prob_vector.h"
#include "util/result.h"

namespace ustdb {
namespace core {

/// \brief One observation of an object: a pdf over S at a timestamp.
/// An exact observation is a delta distribution; an uncertain one spreads
/// mass over several states (the paper's "object spread").
struct Observation {
  Timestamp time = 0;
  sparse::ProbVector pdf;
};

/// Tuning knobs for the multi-observation engine.
struct MultiObservationOptions {
  MatrixMode mode = MatrixMode::kImplicit;
  /// If true, renormalize after every observation (the paper's Lemma 1
  /// presentation). If false, normalize once at the end. The two are equal
  /// in exact arithmetic only: deferred vectors are never rescaled, so
  /// every observation shrinks their mass and ProbVector::Compact() drops
  /// entries below kProbEpsilon that still matter. On a long history the
  /// deferred mode then drifts or reports the observations inconsistent
  /// (80 exact observations of a 1,000-state chain do). Keep the default;
  /// the deferred mode is kept for the short-history equivalence test.
  bool eager_normalization = true;
};

/// Posterior summary produced by a multi-observation run.
struct MultiObsResult {
  /// P∃(o, S□, T□) conditioned on all observations — the fraction of still-
  /// possible worlds that intersect the window (Equation 1).
  double exists_probability = 0.0;
  /// Posterior location distribution at the final processed timestamp
  /// (hit and not-hit parts merged), normalized.
  sparse::ProbVector posterior;
  /// Unnormalized surviving mass P(B) + P(C); 1 if no conditioning occurred.
  /// A small value means the observations were nearly contradictory.
  double surviving_mass = 0.0;
};

/// \brief The filtered distribution α(t) = P(o(t) = · | observations) of
/// an object at a time `t` at or after its last observation: the first
/// observation's pdf propagated forward, conditioned on every later
/// observation (Lemma 1) and renormalized there. Fails with kInconsistent,
/// naming the observation, when the observations rule out every possible
/// world — the same status MultiObservationEngine returns.
/// \pre `observations` is a valid history for `chain` (non-empty, sorted by
/// strictly increasing time, pdfs of dimension |S| — Database enforces
/// this) and observations.back().time <= t.
util::Result<sparse::ProbVector> FilteredDistribution(
    const markov::MarkovChain& chain,
    const std::vector<Observation>& observations, Timestamp t);

/// \brief Evaluates PST∃Q under multiple observations for one chain/window.
class MultiObservationEngine {
 public:
  /// \pre window.region().domain_size() == chain->num_states(); `chain`
  /// must outlive the engine.
  MultiObservationEngine(const markov::MarkovChain* chain, QueryWindow window,
                         MultiObservationOptions options = {});

  /// \brief Runs the doubled-state forward pass across all observations.
  ///
  /// \param observations at least one; will be processed in time order
  ///        (must be sorted ascending by time, distinct times; pdfs must
  ///        have dimension |S|). The earliest observation initializes the
  ///        pass. Fails with kInconsistent if the observations rule out
  ///        every possible world.
  util::Result<MultiObsResult> Evaluate(
      const std::vector<Observation>& observations) const;

  const QueryWindow& window() const { return window_; }

 private:
  util::Result<MultiObsResult> RunImplicit(
      const std::vector<Observation>& observations) const;
  util::Result<MultiObsResult> RunExplicit(
      const std::vector<Observation>& observations) const;

  util::Status ValidateObservations(
      const std::vector<Observation>& observations) const;

  const markov::MarkovChain* chain_;
  QueryWindow window_;
  MultiObservationOptions options_;
};

}  // namespace core
}  // namespace ustdb

#endif  // USTDB_CORE_MULTI_OBSERVATION_H_
