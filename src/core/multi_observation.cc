#include "core/multi_observation.h"

#include <cassert>

#include "util/string_util.h"

namespace ustdb {
namespace core {

namespace {
using sparse::ProbVector;
}  // namespace

MultiObservationEngine::MultiObservationEngine(
    const markov::MarkovChain* chain, QueryWindow window)
    : chain_(chain), window_(std::move(window)) {
  assert(chain_ != nullptr);
  assert(window_.region().domain_size() == chain_->num_states());
}

util::Status ValidateObservations(
    const markov::MarkovChain& chain,
    const std::vector<Observation>& observations) {
  if (observations.empty()) {
    return util::Status::InvalidArgument("at least one observation required");
  }
  for (size_t i = 0; i < observations.size(); ++i) {
    if (observations[i].pdf.size() != chain.num_states()) {
      return util::Status::InvalidArgument(util::StringPrintf(
          "observation %zu has pdf dimension %u, expected %u", i,
          observations[i].pdf.size(), chain.num_states()));
    }
    if (observations[i].pdf.Sum() <= 0.0) {
      return util::Status::InvalidArgument(
          util::StringPrintf("observation %zu has zero mass", i));
    }
    if (i > 0 && observations[i].time <= observations[i - 1].time) {
      return util::Status::InvalidArgument(
          "observations must be sorted by strictly increasing time");
    }
  }
  return util::Status::OK();
}

util::Result<ProbVector> FilteredDistribution(
    const markov::MarkovChain& chain,
    const std::vector<Observation>& observations, Timestamp t) {
  assert(!observations.empty() && observations.back().time <= t);
  sparse::VecMatWorkspace ws;
  const sparse::CsrMatrix& m = chain.matrix();
  const sparse::CsrMatrix* mt = nullptr;  // fetched on first dense step
  ProbVector alpha = observations.front().pdf;
  USTDB_RETURN_NOT_OK(alpha.Normalize());
  size_t next_obs = 1;
  for (Timestamp step = observations.front().time + 1; step <= t; ++step) {
    if (mt == nullptr && !alpha.IsSparse()) mt = &chain.transposed();
    ws.Multiply(alpha, m, &alpha, mt);
    if (next_obs < observations.size() &&
        observations[next_obs].time == step) {
      USTDB_RETURN_NOT_OK(alpha.PointwiseMultiply(observations[next_obs].pdf));
      const double mass = alpha.Sum();
      if (mass <= 0.0) {
        return util::Status::Inconsistent(util::StringPrintf(
            "observation at t=%u is inconsistent with all possible worlds",
            step));
      }
      alpha.Scale(1.0 / mass);
      ++next_obs;
    }
  }
  return alpha;
}

util::Result<MultiObsResult> MultiObservationEngine::Evaluate(
    const std::vector<Observation>& observations) const {
  USTDB_RETURN_NOT_OK(ValidateObservations(*chain_, observations));
  if (observations.front().time > window_.t_begin()) {
    return util::Status::Unimplemented(
        "query timestamps before the first observation require backward "
        "smoothing, which the paper's framework (and ustdb) does not cover");
  }
  const uint32_t n = chain_->num_states();
  sparse::VecMatWorkspace ws;
  const sparse::CsrMatrix& m = chain_->matrix();
  const sparse::CsrMatrix* mt = nullptr;  // fetched on first dense step

  // u: worlds that have not hit the window; w: worlds that have, keyed by
  // their *current* state (the doubled space of Section VI, kept as two
  // n-dim vectors instead of one 2n-dim vector).
  ProbVector u = observations.front().pdf;
  util::Status st = u.Normalize();
  if (!st.ok()) return st;
  ProbVector w = ProbVector::Zero(n);

  double surviving = 1.0;
  const Timestamp t_start = observations.front().time;
  if (window_.ContainsTime(t_start)) {
    w.AddEntries(u.ExtractEntriesIn(window_.region()));
  }

  const Timestamp t_stop =
      std::max(window_.t_end(), observations.back().time);
  std::vector<std::pair<uint32_t, double>> moved;
  size_t next_obs = 1;
  for (Timestamp t = t_start + 1; t <= t_stop; ++t) {
    // At window times the move of u's region mass into w is fused into
    // u's product; w receives it after its own product, as before.
    if (mt == nullptr && (!u.IsSparse() || !w.IsSparse())) {
      mt = &chain_->transposed();
    }
    if (window_.ContainsTime(t)) {
      ws.MultiplyAndExtractEntries(u, m, window_.region(), &u, &moved, mt);
      ws.Multiply(w, m, &w, mt);
      w.AddEntries(moved);
    } else {
      ws.Multiply(u, m, &u, mt);
      ws.Multiply(w, m, &w, mt);
    }

    if (next_obs < observations.size() &&
        observations[next_obs].time == t) {
      // Lemma 1: condition both halves on the observation (the observation
      // carries no information about hit status).
      USTDB_RETURN_NOT_OK(u.PointwiseMultiply(observations[next_obs].pdf));
      USTDB_RETURN_NOT_OK(w.PointwiseMultiply(observations[next_obs].pdf));
      const double mass = u.Sum() + w.Sum();
      if (mass <= 0.0) {
        return util::Status::Inconsistent(util::StringPrintf(
            "observation at t=%u is inconsistent with all possible worlds",
            observations[next_obs].time));
      }
      surviving *= mass;
      u.Scale(1.0 / mass);
      w.Scale(1.0 / mass);
      ++next_obs;
    }
  }

  const double mass_u = u.Sum();
  const double mass_w = w.Sum();
  const double mass = mass_u + mass_w;  // P(B) + P(C), rescaled
  if (mass <= 0.0) {
    return util::Status::Inconsistent(
        "no possible world survives the observations");
  }

  MultiObsResult result;
  result.exists_probability = mass_w / mass;  // Equation 1
  result.surviving_mass = surviving;

  std::vector<std::pair<uint32_t, double>> merged;
  u.ForEachNonZero(
      [&](uint32_t i, double x) { merged.emplace_back(i, x / mass); });
  w.ForEachNonZero(
      [&](uint32_t i, double x) { merged.emplace_back(i, x / mass); });
  USTDB_ASSIGN_OR_RETURN(result.posterior,
                         ProbVector::FromPairs(n, std::move(merged)));
  return result;
}

}  // namespace core
}  // namespace ustdb
