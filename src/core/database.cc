#include "core/database.h"

#include <cmath>

#include "util/string_util.h"

namespace ustdb {
namespace core {

double Database::MeanRowL1Distance(const markov::MarkovChain& a,
                                   const markov::MarkovChain& b) {
  const uint32_t n = a.num_states();
  double total = 0.0;
  for (uint32_t r = 0; r < n; ++r) {
    const auto a_idx = a.matrix().RowIndices(r);
    const auto a_val = a.matrix().RowValues(r);
    const auto b_idx = b.matrix().RowIndices(r);
    const auto b_val = b.matrix().RowValues(r);
    size_t i = 0;
    size_t j = 0;
    while (i < a_idx.size() || j < b_idx.size()) {
      if (j == b_idx.size() || (i < a_idx.size() && a_idx[i] < b_idx[j])) {
        total += a_val[i++];
      } else if (i == a_idx.size() || b_idx[j] < a_idx[i]) {
        total += b_val[j++];
      } else {
        total += std::abs(a_val[i++] - b_val[j++]);
      }
    }
  }
  return n == 0 ? 0.0 : total / n;
}

namespace {

/// How many cluster leaders AddChain compares against before giving up
/// and founding a new cluster. Keeps ingestion of mutually dissimilar
/// chains linear: beyond the cap the registry degrades to extra
/// (possibly singleton) clusters, which costs pruning opportunity but
/// never correctness.
constexpr size_t kMaxLeaderScan = 256;

/// Whether MeanRowL1Distance(a, b) <= threshold, aborting the scan as
/// soon as the accumulating distance proves otherwise — for dissimilar
/// chains (the expensive case, every leader scanned) this exits after a
/// small prefix of the rows.
bool WithinMeanRowL1(const markov::MarkovChain& a,
                     const markov::MarkovChain& b, double threshold) {
  const uint32_t n = a.num_states();
  const double budget = threshold * n;
  double total = 0.0;
  for (uint32_t r = 0; r < n; ++r) {
    const auto a_idx = a.matrix().RowIndices(r);
    const auto a_val = a.matrix().RowValues(r);
    const auto b_idx = b.matrix().RowIndices(r);
    const auto b_val = b.matrix().RowValues(r);
    size_t i = 0;
    size_t j = 0;
    while (i < a_idx.size() || j < b_idx.size()) {
      if (j == b_idx.size() || (i < a_idx.size() && a_idx[i] < b_idx[j])) {
        total += a_val[i++];
      } else if (i == a_idx.size() || b_idx[j] < a_idx[i]) {
        total += b_val[j++];
      } else {
        total += std::abs(a_val[i++] - b_val[j++]);
      }
    }
    if (total > budget) return false;
  }
  return true;
}

}  // namespace

ChainId Database::AddChain(markov::MarkovChain chain) {
  const ChainId id = static_cast<ChainId>(chains_.size());
  chains_.push_back(std::move(chain));
  by_chain_.emplace_back();
  multi_per_chain_->emplace_back(0);
  chain_epoch_.push_back(0);

  // Greedy leader clustering: join the first cluster whose leader is
  // within the radius, else found a new one. Comparing against leaders
  // only (early-aborted, scan-capped) keeps AddChain cheap and the
  // assignment stable under insertion order (a chain never migrates once
  // placed).
  const markov::MarkovChain& added = chains_[id];
  uint32_t cluster = static_cast<uint32_t>(clusters_.size());
  size_t scanned = 0;
  for (uint32_t c = 0; c < clusters_.size() && scanned < kMaxLeaderScan;
       ++c) {
    const markov::MarkovChain& leader = chains_[clusters_[c].leader];
    if (leader.num_states() != added.num_states()) continue;
    ++scanned;
    if (WithinMeanRowL1(leader, added, kChainClusterL1Threshold)) {
      cluster = c;
      break;
    }
  }
  if (cluster == clusters_.size()) {
    clusters_.push_back({id, {}});
    cluster_epoch_.push_back(0);
  }
  clusters_[cluster].members.push_back(id);
  cluster_of_.push_back(cluster);
  return id;
}

ChainId Database::AddChainToClusterOf(markov::MarkovChain chain,
                                      std::optional<ChainId> join) {
  const ChainId id = static_cast<ChainId>(chains_.size());
  chains_.push_back(std::move(chain));
  by_chain_.emplace_back();
  multi_per_chain_->emplace_back(0);
  chain_epoch_.push_back(0);
  uint32_t cluster;
  if (join.has_value()) {
    cluster = cluster_of_[*join];
  } else {
    cluster = static_cast<uint32_t>(clusters_.size());
    clusters_.push_back({id, {}});
    cluster_epoch_.push_back(0);
  }
  clusters_[cluster].members.push_back(id);
  cluster_of_.push_back(cluster);
  return id;
}

util::Result<ObjectId> Database::AddObject(
    ChainId chain, std::vector<Observation> observations) {
  if (chain >= chains_.size()) {
    return util::Status::NotFound(
        util::StringPrintf("chain %u does not exist", chain));
  }
  if (observations.empty()) {
    return util::Status::InvalidArgument(
        "an object needs at least one observation");
  }
  const uint32_t n = chains_[chain].num_states();
  for (size_t i = 0; i < observations.size(); ++i) {
    if (observations[i].pdf.size() != n) {
      return util::Status::InvalidArgument(util::StringPrintf(
          "observation %zu pdf has dimension %u, chain has %u states", i,
          observations[i].pdf.size(), n));
    }
    USTDB_RETURN_NOT_OK(observations[i].pdf.Normalize());
    if (i > 0 && observations[i].time <= observations[i - 1].time) {
      return util::Status::InvalidArgument(
          "observations must have strictly increasing times");
    }
  }
  const ObjectId id = static_cast<ObjectId>(objects_.size());
  objects_.push_back({id, chain, std::move(observations)});
  RegisterObject(id, chain);
  return id;
}

ObjectId Database::ReAddNormalizedObject(
    ChainId chain, std::vector<Observation> observations) {
  const ObjectId id = static_cast<ObjectId>(objects_.size());
  objects_.push_back({id, chain, std::move(observations)});
  RegisterObject(id, chain);
  return id;
}

void Database::RegisterObject(ObjectId id, ChainId chain) {
  by_chain_[chain].push_back(id);
  object_epoch_.push_back(0);
  const bool multi = objects_[id].needs_multi_observation_engine();
  multi_engine_->emplace_back(multi);
  if (multi) {
    (*multi_per_chain_)[chain].fetch_add(1, std::memory_order_release);
    multi_objects_.push_back(id);
  }
}

util::Result<DataVersion> Database::AppendObservation(ObjectId id,
                                                      Observation obs) {
  return AppendObservationAtVersion(id, std::move(obs), version_ + 1);
}

util::Result<DataVersion> Database::AppendObservationAtVersion(
    ObjectId id, Observation obs, DataVersion version) {
  if (id >= objects_.size()) {
    return util::Status::NotFound(
        util::StringPrintf("object %u does not exist", id));
  }
  if (version <= version_) {
    return util::Status::InvalidArgument(
        "append version must exceed the database's current data_version");
  }
  UncertainObject& object = objects_[id];
  const uint32_t n = chains_[object.chain].num_states();
  if (obs.pdf.size() != n) {
    return util::Status::InvalidArgument(util::StringPrintf(
        "appended pdf has dimension %u, chain has %u states",
        obs.pdf.size(), n));
  }
  USTDB_RETURN_NOT_OK(obs.pdf.Normalize());
  if (obs.time <= object.observations.back().time) {
    return util::Status::InvalidArgument(
        "observations must have strictly increasing times");
  }
  object.observations.push_back(std::move(obs));
  // Census mirrors first (release): a submit-path reader that sees the
  // flag flipped plans the object for the multi-observation engine,
  // which is correct both before and after the epoch stamps land. With
  // two observations now, the object needs that engine.
  if (!(*multi_engine_)[id].exchange(true, std::memory_order_acq_rel)) {
    (*multi_per_chain_)[object.chain].fetch_add(1,
                                                std::memory_order_release);
    multi_objects_.push_back(id);
  }
  version_ = version;
  object_epoch_[id] = version;
  chain_epoch_[object.chain] = version;
  cluster_epoch_[cluster_of_[object.chain]] = version;
  return version;
}

util::Result<ObjectId> Database::AddObjectAt(ChainId chain,
                                             sparse::ProbVector initial_pdf,
                                             Timestamp t) {
  std::vector<Observation> obs;
  obs.push_back({t, std::move(initial_pdf)});
  return AddObject(chain, std::move(obs));
}

}  // namespace core
}  // namespace ustdb
