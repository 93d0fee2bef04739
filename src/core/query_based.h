// Copyright 2026 the ustdb authors.
//
// QueryBasedEngine — Section V-B's reverse query processing: starting from
// the query window, walk backward in time with the transposed matrices
// (M±)ᵀ to obtain one vector v where v[s] is the probability that an object
// *starting at state s* satisfies the query. Every object is then answered
// with a single sparse dot product P∃(o) = P(o,0) · v, which amortizes the
// backward pass over the whole database: O(|D| + |S_reach|²·δt).
//
// On its way down to t = 0 the pass crosses the window's first time
// t_begin, where its vector h[s] is the probability of hitting the window
// from state s at t_begin. A pass may keep that vector (its *head*): an
// object whose observations all lie at or before t_begin then answers
// Section VI's query with one dot product α(t_begin) · h, α being its
// filtered distribution (FilteredDistribution, multi_observation.h).

#ifndef USTDB_CORE_QUERY_BASED_H_
#define USTDB_CORE_QUERY_BASED_H_

#include <memory>

#include "core/absorbing.h"
#include "core/object_based.h"
#include "core/query_window.h"
#include "markov/markov_chain.h"
#include "sparse/prob_vector.h"

namespace ustdb {
namespace core {

/// Tuning knobs for the query-based engine.
struct QueryBasedOptions {
  MatrixMode mode = MatrixMode::kImplicit;
  /// Keep the pass's vector at t_begin (head()). Implicit mode only.
  bool keep_head = false;
};

/// \brief Evaluates PST∃Q for one chain and one window with a single
/// backward pass shared by all objects that follow this chain.
class QueryBasedEngine {
 public:
  /// Performs the backward pass immediately.
  /// \pre window.region().domain_size() == chain->num_states(); `chain`
  /// must outlive the engine.
  QueryBasedEngine(const markov::MarkovChain* chain, QueryWindow window,
                   QueryBasedOptions options = {});

  /// \brief Incremental window-shift extension: builds the engine for
  /// `window` = base.window() shifted forward by `delta` steps (same
  /// region elements, every time offset by +delta) in O(delta)
  /// transitions instead of re-running the whole backward pass. The
  /// identity: a cold pass for the shifted window replays the base
  /// pass's steps verbatim above t = delta (ContainsTime aligns under
  /// the relabeling), and below that every time lies before the shifted
  /// window, so the remaining delta steps are pure Mᵀ products applied
  /// to the base's start vector — which already folds the 0 ∈ T□ clamp,
  /// making the first product equal the cold pass's fused
  /// MultiplyClamped step. Implicit mode only (the explicit pass
  /// projects away the absorbed mass, losing the state the extension
  /// would need); results match a cold build bit-identically or within
  /// the 1e-12 kernel-parity margin.
  /// The head depends only on the window's shape, so the extension shares
  /// the base's; with `keep_head` and a headless base it runs HeadPass.
  /// \pre base is implicit-mode; `window` is base.window() shifted by
  /// `delta` >= 1 (the caller — EngineCache's shift-base lookup —
  /// verifies this).
  QueryBasedEngine(const QueryBasedEngine& base, QueryWindow window,
                   Timestamp delta, bool keep_head = false);

  /// \brief The head of `window`'s pass computed on its own: the start
  /// vector of a cold pass over the window moved to start at t = 0. It
  /// repeats the t_end − t_begin steps a full pass runs above t_begin,
  /// so it equals every kept head of this chain and window shape bit for
  /// bit.
  static sparse::ProbVector HeadPass(const markov::MarkovChain* chain,
                                     const QueryWindow& window);

  /// \brief The per-start-state satisfaction vector v at t=0: v[s] =
  /// probability that an object located at s at time 0 (with certainty)
  /// intersects the window. Already accounts for 0 ∈ T□.
  const sparse::ProbVector& start_vector() const { return start_vector_; }

  /// \brief P∃(o, S□, T□) = P(o,0) · v — O(support of P(o,0)).
  double ExistsProbability(const sparse::ProbVector& initial) const {
    return initial.Dot(start_vector_);
  }

  /// \brief The pass's vector at t_begin: h[s] = probability that an
  /// object located at s at time t_begin intersects the window (the
  /// t_begin clamp applied). nullptr unless the engine was built with
  /// keep_head or extends a base that has a head.
  const sparse::ProbVector* head() const { return head_.get(); }

  /// Number of backward transitions executed (== t_end).
  uint32_t transitions() const { return transitions_; }

  const QueryWindow& window() const { return window_; }
  const markov::MarkovChain& chain() const { return *chain_; }

 private:
  void RunBackwardImplicit();
  void RunBackwardExplicit();

  const markov::MarkovChain* chain_;
  QueryWindow window_;
  QueryBasedOptions options_;
  sparse::ProbVector start_vector_;
  /// Shared along a shift-extension chain: equal window shapes, equal head.
  std::shared_ptr<const sparse::ProbVector> head_;
  uint32_t transitions_ = 0;
};

}  // namespace core
}  // namespace ustdb

#endif  // USTDB_CORE_QUERY_BASED_H_
