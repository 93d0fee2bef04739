#include "sparse/prob_vector.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/compensated_sum.h"
#include "util/string_util.h"

namespace ustdb {
namespace sparse {

ProbVector ProbVector::Zero(uint32_t size) { return ProbVector(size); }

ProbVector ProbVector::Delta(uint32_t size, uint32_t index) {
  assert(index < size);
  ProbVector v(size);
  v.idx_.push_back(index);
  v.val_.push_back(1.0);
  return v;
}

util::Result<ProbVector> ProbVector::FromPairs(
    uint32_t size, std::vector<std::pair<uint32_t, double>> pairs,
    bool normalize) {
  std::sort(pairs.begin(), pairs.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  ProbVector v(size);
  for (const auto& [i, x] : pairs) {
    if (i >= size) {
      return util::Status::OutOfRange(
          util::StringPrintf("index %u outside vector of size %u", i, size));
    }
    if (x < 0.0 || !std::isfinite(x)) {
      return util::Status::InvalidArgument(
          util::StringPrintf("negative or non-finite probability %g at %u", x,
                             i));
    }
    if (x == 0.0) continue;
    if (!v.idx_.empty() && v.idx_.back() == i) {
      v.val_.back() += x;
    } else {
      v.idx_.push_back(i);
      v.val_.push_back(x);
    }
  }
  if (normalize) USTDB_RETURN_NOT_OK(v.Normalize());
  v.Compact();
  return v;
}

util::Result<ProbVector> ProbVector::FromDense(std::vector<double> values,
                                               bool normalize) {
  ProbVector v(static_cast<uint32_t>(values.size()));
  for (uint32_t i = 0; i < values.size(); ++i) {
    if (values[i] < 0.0 || !std::isfinite(values[i])) {
      return util::Status::InvalidArgument(util::StringPrintf(
          "negative or non-finite probability %g at %u", values[i], i));
    }
  }
  v.dense_ = true;
  // Copy (not move) into the aligned dense buffer: every dense ProbVector
  // buffer must come from the kernel-aligned allocator.
  v.dense_values_.assign(values.begin(), values.end());
  if (normalize) USTDB_RETURN_NOT_OK(v.Normalize());
  v.Compact();
  return v;
}

util::Result<ProbVector> ProbVector::UniformOver(const IndexSet& support) {
  if (support.empty()) {
    return util::Status::InvalidArgument(
        "uniform distribution over empty support");
  }
  ProbVector v(support.domain_size());
  const double p = 1.0 / support.size();
  for (uint32_t i : support) {
    v.idx_.push_back(i);
    v.val_.push_back(p);
  }
  v.Compact();
  return v;
}

uint32_t ProbVector::Support() const {
  if (!dense_) return static_cast<uint32_t>(idx_.size());
  uint32_t n = 0;
  for (double x : dense_values_) n += (x != 0.0);
  return n;
}

double ProbVector::Get(uint32_t i) const {
  assert(i < size_);
  if (dense_) return dense_values_[i];
  auto it = std::lower_bound(idx_.begin(), idx_.end(), i);
  if (it == idx_.end() || *it != i) return 0.0;
  return val_[static_cast<size_t>(it - idx_.begin())];
}

double ProbVector::Sum() const {
  util::CompensatedSum acc;
  if (dense_) {
    for (double x : dense_values_) acc.Add(x);
  } else {
    for (double x : val_) acc.Add(x);
  }
  return acc.Total();
}

double ProbVector::MaxValue() const {
  double m = 0.0;
  if (dense_) {
    for (double x : dense_values_) m = std::max(m, x);
  } else {
    for (double x : val_) m = std::max(m, x);
  }
  return m;
}

double ProbVector::MassIn(const IndexSet& set) const {
  util::CompensatedSum acc;
  if (dense_) {
    // Iterate the smaller side.
    if (set.size() < size_ / 2) {
      for (uint32_t i : set) acc.Add(dense_values_[i]);
    } else {
      for (uint32_t i = 0; i < size_; ++i) {
        if (set.Contains(i)) acc.Add(dense_values_[i]);
      }
    }
  } else {
    for (size_t k = 0; k < idx_.size(); ++k) {
      if (set.Contains(idx_[k])) acc.Add(val_[k]);
    }
  }
  return acc.Total();
}

double ProbVector::Dot(const ProbVector& other) const {
  assert(size_ == other.size_);
  util::CompensatedSum acc;
  // Iterate the sparser operand.
  const ProbVector* a = this;
  const ProbVector* b = &other;
  if (a->dense_ && !b->dense_) std::swap(a, b);
  a->ForEachNonZero([&](uint32_t i, double x) { acc.Add(x * b->Get(i)); });
  return acc.Total();
}

double ProbVector::DotDense(const ProbVector& other,
                            const double* other_dense) const {
  if (dense_) return Dot(other);
  assert(size_ == other.size_);
  util::CompensatedSum acc;
  for (size_t k = 0; k < idx_.size(); ++k) {
    acc.Add(val_[k] * other_dense[idx_[k]]);
  }
  return acc.Total();
}

void ProbVector::Scale(double factor) {
  assert(factor >= 0.0);
  if (dense_) {
    for (double& x : dense_values_) x *= factor;
  } else {
    for (double& x : val_) x *= factor;
  }
}

util::Status ProbVector::Normalize() {
  const double s = Sum();
  if (s <= 0.0) {
    return util::Status::Inconsistent(
        "cannot normalize zero vector (observations are contradictory or "
        "distribution is empty)");
  }
  Scale(1.0 / s);
  return util::Status::OK();
}

double ProbVector::ExtractMassIn(const IndexSet& set) {
  util::CompensatedSum removed;
  if (dense_) {
    for (uint32_t i : set) {
      removed.Add(dense_values_[i]);
      dense_values_[i] = 0.0;
    }
  } else {
    size_t w = 0;
    for (size_t k = 0; k < idx_.size(); ++k) {
      if (set.Contains(idx_[k])) {
        removed.Add(val_[k]);
      } else {
        idx_[w] = idx_[k];
        val_[w] = val_[k];
        ++w;
      }
    }
    idx_.resize(w);
    val_.resize(w);
  }
  return removed.Total();
}

std::vector<std::pair<uint32_t, double>> ProbVector::ExtractEntriesIn(
    const IndexSet& set) {
  std::vector<std::pair<uint32_t, double>> out;
  if (dense_) {
    for (uint32_t i : set) {
      if (dense_values_[i] != 0.0) {
        out.emplace_back(i, dense_values_[i]);
        dense_values_[i] = 0.0;
      }
    }
  } else {
    size_t w = 0;
    for (size_t k = 0; k < idx_.size(); ++k) {
      if (set.Contains(idx_[k])) {
        out.emplace_back(idx_[k], val_[k]);
      } else {
        idx_[w] = idx_[k];
        val_[w] = val_[k];
        ++w;
      }
    }
    idx_.resize(w);
    val_.resize(w);
  }
  return out;
}

void ProbVector::AddEntries(
    const std::vector<std::pair<uint32_t, double>>& entries) {
  if (entries.empty()) return;
  if (dense_) {
    for (const auto& [i, x] : entries) {
      assert(i < size_ && x >= 0.0);
      dense_values_[i] += x;
    }
    return;
  }
  // Merge two sorted sequences (entries are ascending by construction of
  // ExtractEntriesIn; general callers may pass unsorted or duplicated —
  // sort and coalesce defensively, or the strictly-ascending index
  // invariant breaks).
  std::vector<std::pair<uint32_t, double>> add(entries);
  std::sort(add.begin(), add.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  size_t coalesced = 0;
  for (size_t k = 1; k < add.size(); ++k) {
    if (add[k].first == add[coalesced].first) {
      add[coalesced].second += add[k].second;
    } else {
      add[++coalesced] = add[k];
    }
  }
  if (!add.empty()) add.resize(coalesced + 1);
  std::vector<uint32_t> new_idx;
  std::vector<double> new_val;
  new_idx.reserve(idx_.size() + add.size());
  new_val.reserve(idx_.size() + add.size());
  size_t a = 0;
  size_t b = 0;
  while (a < idx_.size() || b < add.size()) {
    if (b >= add.size() || (a < idx_.size() && idx_[a] < add[b].first)) {
      new_idx.push_back(idx_[a]);
      new_val.push_back(val_[a]);
      ++a;
    } else if (a >= idx_.size() || add[b].first < idx_[a]) {
      assert(add[b].first < size_ && add[b].second >= 0.0);
      if (add[b].second != 0.0) {
        new_idx.push_back(add[b].first);
        new_val.push_back(add[b].second);
      }
      ++b;
    } else {
      new_idx.push_back(idx_[a]);
      new_val.push_back(val_[a] + add[b].second);
      ++a;
      ++b;
    }
  }
  idx_ = std::move(new_idx);
  val_ = std::move(new_val);
  if (idx_.size() > kDenseThreshold * size_) SwitchToDense();
}

util::Status ProbVector::PointwiseMultiply(const ProbVector& other) {
  if (size_ != other.size_) {
    return util::Status::InvalidArgument(util::StringPrintf(
        "dimension mismatch in pointwise multiply: %u vs %u", size_,
        other.size_));
  }
  if (dense_) {
    for (uint32_t i = 0; i < size_; ++i) dense_values_[i] *= other.Get(i);
  } else {
    for (size_t k = 0; k < idx_.size(); ++k) val_[k] *= other.Get(idx_[k]);
  }
  Compact();
  return util::Status::OK();
}

void ProbVector::CopyToDense(double* out) const {
  std::fill(out, out + size_, 0.0);
  ForEachNonZero([&](uint32_t i, double x) { out[i] = x; });
}

std::vector<double> ProbVector::ToDense() const {
  std::vector<double> out(size_, 0.0);
  CopyToDense(out.data());
  return out;
}

void ProbVector::SwitchToDense() {
  if (dense_) return;
  dense_values_.assign(size_, 0.0);
  assert(util::IsKernelAligned(dense_values_.data()));
  for (size_t k = 0; k < idx_.size(); ++k) dense_values_[idx_[k]] = val_[k];
  idx_.clear();
  idx_.shrink_to_fit();
  val_.clear();
  val_.shrink_to_fit();
  dense_ = true;
}

void ProbVector::SwitchToSparse() {
  if (!dense_) return;
  idx_.clear();
  val_.clear();
  for (uint32_t i = 0; i < size_; ++i) {
    if (dense_values_[i] != 0.0) {
      idx_.push_back(i);
      val_.push_back(dense_values_[i]);
    }
  }
  dense_values_.clear();
  dense_values_.shrink_to_fit();
  dense_ = false;
}

void ProbVector::Compact() {
  // Drop numerically-dead entries first.
  if (dense_) {
    uint32_t support = 0;
    for (double& x : dense_values_) {
      if (x != 0.0 && x < kProbEpsilon) x = 0.0;
      support += (x != 0.0);
    }
    if (support < kSparseThreshold * size_) SwitchToSparse();
  } else {
    size_t w = 0;
    for (size_t k = 0; k < idx_.size(); ++k) {
      if (val_[k] >= kProbEpsilon) {
        idx_[w] = idx_[k];
        val_[w] = val_[k];
        ++w;
      }
    }
    idx_.resize(w);
    val_.resize(w);
    if (idx_.size() > kDenseThreshold * size_) SwitchToDense();
  }
}

double ProbVector::MaxAbsDiff(const ProbVector& other) const {
  assert(size_ == other.size_);
  double m = 0.0;
  for (uint32_t i = 0; i < size_; ++i) {
    m = std::max(m, std::abs(Get(i) - other.Get(i)));
  }
  return m;
}

}  // namespace sparse
}  // namespace ustdb
