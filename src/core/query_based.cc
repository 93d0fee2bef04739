#include "core/query_based.h"

#include <cassert>
#include <memory>
#include <vector>

namespace ustdb {
namespace core {

namespace {

/// The head at a window time t: the pass's vector `g` at t with that
/// time's clamp applied. HeadPass's terminal clamp is the same
/// ClampRegionToOnes after the same steps, so the two agree bit for bit.
std::shared_ptr<const sparse::ProbVector> HeadOf(
    const sparse::IndexSet& region, sparse::ProbVector g) {
  ClampRegionToOnes(region, &g);
  return std::make_shared<const sparse::ProbVector>(std::move(g));
}

}  // namespace

QueryBasedEngine::QueryBasedEngine(const markov::MarkovChain* chain,
                                   QueryWindow window,
                                   QueryBasedOptions options)
    : chain_(chain), window_(std::move(window)), options_(options) {
  assert(chain_ != nullptr);
  assert(window_.region().domain_size() == chain_->num_states());
  if (options_.mode == MatrixMode::kExplicit) {
    RunBackwardExplicit();
  } else {
    RunBackwardImplicit();
  }
}

QueryBasedEngine::QueryBasedEngine(const QueryBasedEngine& base,
                                   QueryWindow window, Timestamp delta,
                                   bool keep_head)
    : chain_(base.chain_),
      window_(std::move(window)),
      options_(base.options_),
      head_(base.head_) {
  assert(options_.mode == MatrixMode::kImplicit);
  assert(delta >= 1);
  assert(window_.t_end() == base.window_.t_end() + delta);
  const sparse::CsrMatrix& mt = chain_->transposed();
  const sparse::CsrMatrix& mtt = chain_->matrix();
  sparse::ProbVector g = base.start_vector_;
  sparse::VecMatWorkspace ws;
  for (Timestamp t = delta; t > 0; --t) {
    ws.Multiply(g, mt, &g, &mtt);
  }
  // The shifted window starts at or after t = delta >= 1, so 0 ∈ T□ is
  // impossible and no final clamp applies.
  transitions_ = base.transitions_ + delta;
  start_vector_ = std::move(g);
  if (keep_head && head_ == nullptr) {
    head_ = std::make_shared<const sparse::ProbVector>(
        HeadPass(chain_, window_));
  }
}

sparse::ProbVector QueryBasedEngine::HeadPass(
    const markov::MarkovChain* chain, const QueryWindow& window) {
  std::vector<Timestamp> moved = window.times();
  for (Timestamp& t : moved) t -= window.t_begin();
  QueryBasedEngine pass(
      chain, QueryWindow::Create(window.region(), std::move(moved))
                 .ValueOrDie());
  return std::move(pass.start_vector_);
}

void QueryBasedEngine::RunBackwardImplicit() {
  const uint32_t n = chain_->num_states();
  const sparse::CsrMatrix& mt = chain_->transposed();
  // The gather kernel wants the transpose of the multiplied matrix — the
  // transpose of Mᵀ is M itself, already materialized.
  const sparse::CsrMatrix& mtt = chain_->matrix();

  // g(t)[s] = P(object at s at time t, not yet redirected, satisfies the
  // query at some time >= t). Backward from t_end: g(t_end) = 0 everywhere
  // — a world that has not been absorbed by the last window time never will
  // be. Before each backward step from t to t-1, states in the region are
  // clamped to 1 when t ∈ T□ (forward M+ would have redirected them); the
  // clamp is fused into the product (MultiplyClamped) so a window step
  // costs one pass instead of extract + re-insert + product.
  sparse::ProbVector g = sparse::ProbVector::Zero(n);
  sparse::VecMatWorkspace ws;

  const Timestamp t_end = window_.t_end();
  for (Timestamp t = t_end; t > 0; --t) {
    if (options_.keep_head && t == window_.t_begin()) {
      head_ = HeadOf(window_.region(), g);
    }
    if (window_.ContainsTime(t)) {
      ws.MultiplyClamped(g, mt, window_.region(), &g, &mtt);
    } else {
      ws.Multiply(g, mt, &g, &mtt);
    }
    ++transitions_;
  }
  if (options_.keep_head && window_.t_begin() == 0) {
    head_ = HeadOf(window_.region(), g);
  }
  if (window_.ContainsTime(0)) {
    ClampRegionToOnes(window_.region(), &g);
  }
  start_vector_ = std::move(g);
}

void QueryBasedEngine::RunBackwardExplicit() {
  const uint32_t n = chain_->num_states();
  // (M±)ᵀ assembled from the chain's memoized Mᵀ — no per-build
  // re-materialization and re-transposition of the augmented matrices.
  AugmentedMatrices augt = BuildAbsorbingTransposed(*chain_, window_.region());

  sparse::ProbVector p = sparse::ProbVector::Delta(n + 1, n);  // (0,...,0,1)
  sparse::VecMatWorkspace ws;
  const Timestamp t_end = window_.t_end();
  for (Timestamp t = t_end; t > 0; --t) {
    const sparse::CsrMatrix& m = window_.ContainsTime(t) ? augt.plus
                                                         : augt.minus;
    ws.Multiply(p, m, &p);
    ++transitions_;
  }
  // p now holds, per augmented start state, the satisfaction probability.
  // Project to the n real states, folding the 0 ∈ T□ case: starting inside
  // the region at time 0 satisfies the query with probability 1.
  std::vector<std::pair<uint32_t, double>> pairs;
  for (uint32_t s = 0; s < n; ++s) {
    double val = (window_.ContainsTime(0) && window_.region().Contains(s))
                     ? 1.0
                     : p.Get(s);
    if (val != 0.0) pairs.emplace_back(s, val);
  }
  start_vector_ =
      sparse::ProbVector::FromPairs(n, std::move(pairs)).ValueOrDie();
}

}  // namespace core
}  // namespace ustdb
