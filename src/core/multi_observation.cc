#include "core/multi_observation.h"

#include <cassert>

#include "util/string_util.h"

namespace ustdb {
namespace core {

namespace {
using sparse::ProbVector;
}  // namespace

MultiObservationEngine::MultiObservationEngine(
    const markov::MarkovChain* chain, QueryWindow window,
    MultiObservationOptions options)
    : chain_(chain), window_(std::move(window)), options_(options) {
  assert(chain_ != nullptr);
  assert(window_.region().domain_size() == chain_->num_states());
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

util::Status MultiObservationEngine::ValidateObservations(
    const std::vector<Observation>& observations) const {
  if (observations.empty()) {
    return util::Status::InvalidArgument("at least one observation required");
  }
  for (size_t i = 0; i < observations.size(); ++i) {
    if (observations[i].pdf.size() != chain_->num_states()) {
      return util::Status::InvalidArgument(util::StringPrintf(
          "observation %zu has pdf dimension %u, expected %u", i,
          observations[i].pdf.size(), chain_->num_states()));
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
  if (observations.front().time > window_.t_begin()) {
    return util::Status::Unimplemented(
        "query timestamps before the first observation require backward "
        "smoothing, which the paper's framework (and ustdb) does not cover");
  }
  return util::Status::OK();
}

util::Result<MultiObsResult> MultiObservationEngine::Evaluate(
    const std::vector<Observation>& observations) const {
  USTDB_RETURN_NOT_OK(ValidateObservations(observations));
  return options_.mode == MatrixMode::kExplicit ? RunExplicit(observations)
                                                : RunImplicit(observations);
}

util::Result<MultiObsResult> MultiObservationEngine::RunImplicit(
    const std::vector<Observation>& observations) const {
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
      if (options_.eager_normalization) {
        surviving *= mass;
        u.Scale(1.0 / mass);
        w.Scale(1.0 / mass);
      }
      ++next_obs;
    }
  }

  const double mass_u = u.Sum();
  const double mass_w = w.Sum();
  const double mass = mass_u + mass_w;  // P(B) + P(C), possibly rescaled
  if (mass <= 0.0) {
    return util::Status::Inconsistent(
        "no possible world survives the observations");
  }

  MultiObsResult result;
  result.exists_probability = mass_w / mass;  // Equation 1
  result.surviving_mass = options_.eager_normalization ? surviving : mass;

  std::vector<std::pair<uint32_t, double>> merged;
  u.ForEachNonZero(
      [&](uint32_t i, double x) { merged.emplace_back(i, x / mass); });
  w.ForEachNonZero(
      [&](uint32_t i, double x) { merged.emplace_back(i, x / mass); });
  USTDB_ASSIGN_OR_RETURN(result.posterior,
                         ProbVector::FromPairs(n, std::move(merged)));
  return result;
}

util::Result<MultiObsResult> MultiObservationEngine::RunExplicit(
    const std::vector<Observation>& observations) const {
  const uint32_t n = chain_->num_states();
  AugmentedMatrices aug = BuildDoubledMatrices(*chain_, window_.region());
  sparse::VecMatWorkspace ws;

  ProbVector first = observations.front().pdf;
  util::Status st = first.Normalize();
  if (!st.ok()) return st;
  // Doubled initial vector: region mass moves to the ◾ copy when the first
  // observation time is itself a window timestamp.
  const Timestamp t_start = observations.front().time;
  std::vector<std::pair<uint32_t, double>> pairs;
  const bool redirect = window_.ContainsTime(t_start);
  first.ForEachNonZero([&](uint32_t i, double x) {
    if (redirect && window_.region().Contains(i)) {
      pairs.emplace_back(n + i, x);
    } else {
      pairs.emplace_back(i, x);
    }
  });
  USTDB_ASSIGN_OR_RETURN(ProbVector v,
                         ProbVector::FromPairs(2 * n, std::move(pairs)));

  double surviving = 1.0;
  const Timestamp t_stop =
      std::max(window_.t_end(), observations.back().time);
  size_t next_obs = 1;
  for (Timestamp t = t_start + 1; t <= t_stop; ++t) {
    const sparse::CsrMatrix& m =
        window_.ContainsTime(t) ? aug.plus : aug.minus;
    ws.Multiply(v, m, &v);

    if (next_obs < observations.size() &&
        observations[next_obs].time == t) {
      // Extended observation vector (pdf, pdf): no hit information.
      std::vector<std::pair<uint32_t, double>> ext;
      observations[next_obs].pdf.ForEachNonZero([&](uint32_t i, double x) {
        ext.emplace_back(i, x);
        ext.emplace_back(n + i, x);
      });
      USTDB_ASSIGN_OR_RETURN(ProbVector obs_ext,
                             ProbVector::FromPairs(2 * n, std::move(ext)));
      USTDB_RETURN_NOT_OK(v.PointwiseMultiply(obs_ext));
      const double mass = v.Sum();
      if (mass <= 0.0) {
        return util::Status::Inconsistent(util::StringPrintf(
            "observation at t=%u is inconsistent with all possible worlds",
            observations[next_obs].time));
      }
      if (options_.eager_normalization) {
        surviving *= mass;
        v.Scale(1.0 / mass);
      }
      ++next_obs;
    }
  }

  double mass_w = 0.0;
  double mass = 0.0;
  v.ForEachNonZero([&](uint32_t i, double x) {
    mass += x;
    if (i >= n) mass_w += x;
  });
  if (mass <= 0.0) {
    return util::Status::Inconsistent(
        "no possible world survives the observations");
  }

  MultiObsResult result;
  result.exists_probability = mass_w / mass;
  result.surviving_mass = options_.eager_normalization ? surviving : mass;
  std::vector<std::pair<uint32_t, double>> merged;
  v.ForEachNonZero(
      [&](uint32_t i, double x) { merged.emplace_back(i % n, x / mass); });
  USTDB_ASSIGN_OR_RETURN(result.posterior,
                         ProbVector::FromPairs(n, std::move(merged)));
  return result;
}

}  // namespace core
}  // namespace ustdb
