#include "core/smoothing.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "util/string_util.h"

namespace ustdb {
namespace core {

namespace {

/// The shared history checks plus smoothing's own: the horizon must not
/// end before the first observation.
util::Status ValidateSmoothingInput(const markov::MarkovChain& chain,
                                    const std::vector<Observation>& obs,
                                    Timestamp t_horizon) {
  USTDB_RETURN_NOT_OK(ValidateObservations(chain, obs));
  if (t_horizon < obs.front().time) {
    return util::Status::InvalidArgument(
        "horizon ends before the first observation");
  }
  return util::Status::OK();
}

/// Index of the observation at absolute time t, or -1.
int ObservationAt(const std::vector<Observation>& obs, Timestamp t) {
  for (size_t i = 0; i < obs.size(); ++i) {
    if (obs[i].time == t) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace

util::Result<SmoothingResult> SmoothedMarginals(
    const markov::MarkovChain& chain,
    const std::vector<Observation>& observations, Timestamp t_horizon) {
  USTDB_RETURN_NOT_OK(
      ValidateSmoothingInput(chain, observations, t_horizon));
  const uint32_t n = chain.num_states();
  const Timestamp t_start = observations.front().time;
  const Timestamp t_last = std::max(t_horizon, observations.back().time);
  const uint32_t len = t_last - t_start + 1;

  // Forward pass: alpha[i] ∝ P(o(t_start+i) = s, obs up to that time);
  // rescaled to mass one at every step for numerical stability.
  std::vector<sparse::ProbVector> alpha(len);
  sparse::VecMatWorkspace ws;
  alpha[0] = observations.front().pdf;
  USTDB_RETURN_NOT_OK(alpha[0].Normalize());
  for (uint32_t i = 1; i < len; ++i) {
    ws.Multiply(alpha[i - 1], chain.matrix(), &alpha[i]);
    const int obs_idx = ObservationAt(observations, t_start + i);
    if (obs_idx >= 0) {
      USTDB_RETURN_NOT_OK(
          alpha[i].PointwiseMultiply(observations[obs_idx].pdf));
      if (alpha[i].Sum() <= 0.0) {
        return util::Status::Inconsistent(util::StringPrintf(
            "observation at t=%u is inconsistent with all possible worlds",
            t_start + i));
      }
      USTDB_RETURN_NOT_OK(alpha[i].Normalize());
    }
  }

  // Backward pass: beta[i][s] ∝ P(obs after t_start+i | o(t_start+i) = s);
  // rescaled likewise. beta is a likelihood vector, not a distribution,
  // but ProbVector only requires non-negative entries.
  std::vector<sparse::ProbVector> beta(len);
  beta[len - 1] =
      sparse::ProbVector::FromDense(std::vector<double>(n, 1.0)).ValueOrDie();
  for (uint32_t i = len - 1; i > 0; --i) {
    sparse::ProbVector tmp = beta[i];
    const int obs_idx = ObservationAt(observations, t_start + i);
    if (obs_idx >= 0) {
      USTDB_RETURN_NOT_OK(tmp.PointwiseMultiply(observations[obs_idx].pdf));
    }
    ws.Multiply(tmp, chain.transposed(), &beta[i - 1]);
    const double scale = beta[i - 1].MaxValue();
    if (scale > 0.0) beta[i - 1].Scale(1.0 / scale);
  }

  SmoothingResult result;
  result.t_start = t_start;
  const uint32_t report = t_horizon - t_start + 1;
  result.marginals.reserve(report);
  for (uint32_t i = 0; i < report; ++i) {
    sparse::ProbVector gamma = alpha[i];
    USTDB_RETURN_NOT_OK(gamma.PointwiseMultiply(beta[i]));
    util::Status st = gamma.Normalize();
    if (!st.ok()) {
      return util::Status::Inconsistent(
          "observations admit no possible world at t=" +
          std::to_string(t_start + i));
    }
    result.marginals.push_back(std::move(gamma));
  }
  return result;
}

util::Result<ViterbiResult> MostLikelyTrajectory(
    const markov::MarkovChain& chain,
    const std::vector<Observation>& observations, Timestamp t_horizon) {
  USTDB_RETURN_NOT_OK(
      ValidateSmoothingInput(chain, observations, t_horizon));
  const uint32_t n = chain.num_states();
  const Timestamp t_start = observations.front().time;
  const Timestamp t_last = std::max(t_horizon, observations.back().time);
  const uint32_t len = t_last - t_start + 1;
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();

  // Max-product in log space. delta[j] = best log-probability of any path
  // ending at j; psi[i][j] = predecessor of j at step i.
  std::vector<double> delta(n, kNegInf);
  sparse::ProbVector first = observations.front().pdf;
  USTDB_RETURN_NOT_OK(first.Normalize());
  first.ForEachNonZero(
      [&](uint32_t s, double p) { delta[s] = std::log(p); });

  std::vector<std::vector<uint32_t>> psi(
      len, std::vector<uint32_t>(0));  // psi[0] unused
  std::vector<double> next(n, kNegInf);
  // Log of the total surviving mass (product of conditioning masses) for
  // the posterior normalization, computed by a parallel forward pass.
  sparse::ProbVector alpha = first;
  sparse::VecMatWorkspace ws;
  double log_mass = 0.0;

  for (uint32_t i = 1; i < len; ++i) {
    std::fill(next.begin(), next.end(), kNegInf);
    psi[i].assign(n, 0);
    for (uint32_t s = 0; s < n; ++s) {
      if (delta[s] == kNegInf) continue;
      auto idx = chain.matrix().RowIndices(s);
      auto val = chain.matrix().RowValues(s);
      for (size_t k = 0; k < idx.size(); ++k) {
        const double cand = delta[s] + std::log(val[k]);
        if (cand > next[idx[k]]) {
          next[idx[k]] = cand;
          psi[i][idx[k]] = s;
        }
      }
    }
    const int obs_idx = ObservationAt(observations, t_start + i);
    if (obs_idx >= 0) {
      for (uint32_t j = 0; j < n; ++j) {
        if (next[j] == kNegInf) continue;
        const double o = observations[obs_idx].pdf.Get(j);
        next[j] = o > 0.0 ? next[j] + std::log(o) : kNegInf;
      }
    }
    delta.swap(next);

    ws.Multiply(alpha, chain.matrix(), &alpha);
    if (obs_idx >= 0) {
      USTDB_RETURN_NOT_OK(
          alpha.PointwiseMultiply(observations[obs_idx].pdf));
      const double mass = alpha.Sum();
      if (mass <= 0.0) {
        return util::Status::Inconsistent(util::StringPrintf(
            "observation at t=%u is inconsistent with all possible worlds",
            t_start + i));
      }
      log_mass += std::log(mass);
      alpha.Scale(1.0 / mass);
    }
  }

  // Termination: best final state (first index on ties).
  uint32_t best = 0;
  double best_log = kNegInf;
  for (uint32_t j = 0; j < n; ++j) {
    if (delta[j] > best_log) {
      best_log = delta[j];
      best = j;
    }
  }
  if (best_log == kNegInf) {
    return util::Status::Inconsistent(
        "observations admit no possible world");
  }

  ViterbiResult result;
  result.t_start = t_start;
  result.path.assign(len, 0);
  result.path[len - 1] = best;
  for (uint32_t i = len - 1; i > 0; --i) {
    result.path[i - 1] = psi[i][result.path[i]];
  }
  result.posterior_probability = std::exp(best_log - log_mass);
  return result;
}

}  // namespace core
}  // namespace ustdb
