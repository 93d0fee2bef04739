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
// objects that way; this engine serves the rest (time-interpolation) and
// is the reference the identity is tested against.

#ifndef USTDB_CORE_MULTI_OBSERVATION_H_
#define USTDB_CORE_MULTI_OBSERVATION_H_

#include <vector>

#include "core/query_window.h"
#include "markov/markov_chain.h"
#include "sparse/prob_vector.h"
#include "sparse/types.h"
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

/// Posterior summary produced by a multi-observation run.
struct MultiObsResult {
  /// P∃(o, S□, T□) conditioned on all observations — the fraction of still-
  /// possible worlds that intersect the window (Equation 1).
  double exists_probability = 0.0;
  /// Posterior location distribution at the final processed timestamp
  /// (hit and not-hit parts merged), normalized.
  sparse::ProbVector posterior;
  /// Surviving mass P(B) + P(C): the probability of the later observations
  /// given the first, i.e. the product of the normalizers applied at each
  /// of them; 1 if no conditioning occurred. A small value means the
  /// observations were nearly contradictory.
  double surviving_mass = 0.0;
};

/// \brief Checks that `observations` is a history `chain` can condition
/// on: non-empty, every pdf of dimension |S| with positive mass, times
/// strictly increasing. Returns kInvalidArgument naming the first
/// violation. Shared by MultiObservationEngine and SmoothedMarginals, which
/// each add their own check of where the query starts.
util::Status ValidateObservations(const markov::MarkovChain& chain,
                                  const std::vector<Observation>& observations);

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
  MultiObservationEngine(const markov::MarkovChain* chain, QueryWindow window);

  /// \brief Runs the doubled-state forward pass across all observations.
  ///
  /// \param observations at least one; will be processed in time order
  ///        (must be sorted ascending by time, distinct times; pdfs must
  ///        have dimension |S|). The earliest observation initializes the
  ///        pass. Fails with kInvalidArgument on a malformed history (see
  ///        ValidateObservations), kUnimplemented when the window starts
  ///        before the first observation, and kInconsistent if the
  ///        observations rule out every possible world.
  util::Result<MultiObsResult> Evaluate(
      const std::vector<Observation>& observations) const;

  const QueryWindow& window() const { return window_; }

 private:
  const markov::MarkovChain* chain_;
  QueryWindow window_;
};

}  // namespace core
}  // namespace ustdb

#endif  // USTDB_CORE_MULTI_OBSERVATION_H_
