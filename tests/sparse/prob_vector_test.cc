#include "sparse/prob_vector.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/rng.h"

namespace ustdb {
namespace sparse {
namespace {

TEST(ProbVectorTest, ZeroVector) {
  ProbVector v = ProbVector::Zero(8);
  EXPECT_EQ(v.size(), 8u);
  EXPECT_EQ(v.Support(), 0u);
  EXPECT_DOUBLE_EQ(v.Sum(), 0.0);
  EXPECT_DOUBLE_EQ(v.Get(3), 0.0);
}

TEST(ProbVectorTest, DeltaVector) {
  ProbVector v = ProbVector::Delta(5, 2);
  EXPECT_EQ(v.Support(), 1u);
  EXPECT_DOUBLE_EQ(v.Get(2), 1.0);
  EXPECT_DOUBLE_EQ(v.Sum(), 1.0);
}

TEST(ProbVectorTest, FromPairsSumsDuplicates) {
  auto v = ProbVector::FromPairs(10, {{3, 0.25}, {3, 0.25}, {7, 0.5}});
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(v->Get(3), 0.5);
  EXPECT_DOUBLE_EQ(v->Get(7), 0.5);
  EXPECT_EQ(v->Support(), 2u);
}

TEST(ProbVectorTest, FromPairsRejectsBadInput) {
  EXPECT_FALSE(ProbVector::FromPairs(4, {{4, 0.5}}).ok());   // out of range
  EXPECT_FALSE(ProbVector::FromPairs(4, {{0, -0.1}}).ok());  // negative
  EXPECT_FALSE(
      ProbVector::FromPairs(4, {{0, std::nan("")}}).ok());   // non-finite
}

TEST(ProbVectorTest, FromPairsNormalizes) {
  auto v = ProbVector::FromPairs(4, {{0, 2.0}, {1, 6.0}}, /*normalize=*/true);
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(v->Get(0), 0.25);
  EXPECT_DOUBLE_EQ(v->Get(1), 0.75);
}

TEST(ProbVectorTest, NormalizeFailsOnZeroVector) {
  auto v = ProbVector::FromPairs(4, {}, /*normalize=*/true);
  EXPECT_FALSE(v.ok());
}

TEST(ProbVectorTest, FromDense) {
  auto v = ProbVector::FromDense({0.0, 0.5, 0.0, 0.5});
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->size(), 4u);
  EXPECT_EQ(v->Support(), 2u);
  EXPECT_DOUBLE_EQ(v->Get(1), 0.5);
}

TEST(ProbVectorTest, UniformOver) {
  auto support = IndexSet::FromIndices(10, {1, 4, 9}).ValueOrDie();
  auto v = ProbVector::UniformOver(support);
  ASSERT_TRUE(v.ok());
  EXPECT_NEAR(v->Get(1), 1.0 / 3, 1e-15);
  EXPECT_NEAR(v->Sum(), 1.0, 1e-15);
  EXPECT_FALSE(ProbVector::UniformOver(IndexSet::Empty(10)).ok());
}

TEST(ProbVectorTest, MassIn) {
  auto v = ProbVector::FromPairs(10, {{0, 0.2}, {5, 0.3}, {9, 0.5}})
               .ValueOrDie();
  auto set = IndexSet::FromIndices(10, {5, 9}).ValueOrDie();
  EXPECT_NEAR(v.MassIn(set), 0.8, 1e-15);
  EXPECT_DOUBLE_EQ(v.MassIn(IndexSet::Empty(10)), 0.0);
  EXPECT_NEAR(v.MassIn(IndexSet::All(10)), 1.0, 1e-15);
}

TEST(ProbVectorTest, ExtractMassInRemovesAndReturns) {
  auto v = ProbVector::FromPairs(10, {{0, 0.2}, {5, 0.3}, {9, 0.5}})
               .ValueOrDie();
  auto set = IndexSet::FromIndices(10, {0, 5}).ValueOrDie();
  EXPECT_NEAR(v.ExtractMassIn(set), 0.5, 1e-15);
  EXPECT_DOUBLE_EQ(v.Get(0), 0.0);
  EXPECT_DOUBLE_EQ(v.Get(5), 0.0);
  EXPECT_DOUBLE_EQ(v.Get(9), 0.5);
  // Second extraction finds nothing.
  EXPECT_DOUBLE_EQ(v.ExtractMassIn(set), 0.0);
}

TEST(ProbVectorTest, ExtractEntriesInRoundTripsThroughAddEntries) {
  auto v = ProbVector::FromPairs(10, {{1, 0.1}, {2, 0.2}, {8, 0.7}})
               .ValueOrDie();
  auto set = IndexSet::FromIndices(10, {2, 8}).ValueOrDie();
  auto entries = v.ExtractEntriesIn(set);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].first, 2u);
  EXPECT_DOUBLE_EQ(entries[0].second, 0.2);
  EXPECT_DOUBLE_EQ(v.Sum(), 0.1);

  ProbVector w = ProbVector::Zero(10);
  w.AddEntries(entries);
  EXPECT_DOUBLE_EQ(w.Get(2), 0.2);
  EXPECT_DOUBLE_EQ(w.Get(8), 0.7);
}

TEST(ProbVectorTest, AddEntriesMergesWithExisting) {
  auto v = ProbVector::FromPairs(6, {{2, 0.5}}).ValueOrDie();
  v.AddEntries({{2, 0.25}, {0, 0.25}});
  EXPECT_DOUBLE_EQ(v.Get(2), 0.75);
  EXPECT_DOUBLE_EQ(v.Get(0), 0.25);
  EXPECT_EQ(v.Support(), 2u);
}

TEST(ProbVectorTest, DotProduct) {
  auto a = ProbVector::FromPairs(5, {{0, 0.5}, {2, 0.5}}).ValueOrDie();
  auto b = ProbVector::FromPairs(5, {{2, 0.4}, {3, 0.6}}).ValueOrDie();
  EXPECT_NEAR(a.Dot(b), 0.2, 1e-15);
  EXPECT_NEAR(b.Dot(a), 0.2, 1e-15);
  EXPECT_DOUBLE_EQ(a.Dot(ProbVector::Zero(5)), 0.0);
}

/// A normalized vector of dimension `size` with `support` random non-zeros.
ProbVector RandomVector(uint32_t size, uint32_t support, util::Rng* rng) {
  std::vector<std::pair<uint32_t, double>> pairs;
  for (uint32_t i : rng->SampleWithoutReplacement(size, support)) {
    pairs.emplace_back(i, 0.01 + rng->NextDouble());
  }
  return ProbVector::FromPairs(size, std::move(pairs), /*normalize=*/true)
      .ValueOrDie();
}

TEST(ProbVectorTest, DotDenseIsBitIdenticalToDot) {
  util::Rng rng(2207);
  constexpr uint32_t kSize = 200;
  for (int trial = 0; trial < 100; ++trial) {
    // The other operand sparse (10% support) or dense (60%); its dense
    // view holds zeros outside its support.
    const bool dense_other = trial % 2 == 1;
    const ProbVector other =
        RandomVector(kSize, dense_other ? 120 : 20, &rng);
    ASSERT_EQ(other.IsSparse(), !dense_other);
    const std::vector<double> view = other.ToDense();
    // Sparse pdfs, most of whose entries fall outside a sparse operand's
    // support, and a dense pdf, which takes Dot.
    for (uint32_t support : {1u, 5u, 25u, 150u}) {
      const ProbVector pdf = RandomVector(kSize, support, &rng);
      ASSERT_EQ(pdf.IsSparse(), support < 60);
      EXPECT_EQ(pdf.DotDense(other, view.data()), pdf.Dot(other))
          << "trial " << trial << ", pdf support " << support;
    }
  }
  // A pdf entirely outside the operand's support reads exact zeros.
  const ProbVector a = ProbVector::FromPairs(6, {{0, 0.5}, {1, 0.5}})
                           .ValueOrDie();
  const ProbVector b = ProbVector::FromPairs(6, {{4, 1.0}}).ValueOrDie();
  EXPECT_EQ(a.DotDense(b, b.ToDense().data()), 0.0);
}

TEST(ProbVectorTest, PointwiseMultiply) {
  auto a = ProbVector::FromPairs(4, {{0, 0.5}, {1, 0.5}}).ValueOrDie();
  auto b = ProbVector::FromPairs(4, {{1, 0.5}, {2, 0.5}}).ValueOrDie();
  ASSERT_TRUE(a.PointwiseMultiply(b).ok());
  EXPECT_DOUBLE_EQ(a.Get(0), 0.0);
  EXPECT_DOUBLE_EQ(a.Get(1), 0.25);
  EXPECT_EQ(a.Support(), 1u);
}

TEST(ProbVectorTest, PointwiseMultiplyDimensionMismatch) {
  auto a = ProbVector::Delta(4, 0);
  auto b = ProbVector::Delta(5, 0);
  EXPECT_FALSE(a.PointwiseMultiply(b).ok());
}

TEST(ProbVectorTest, ScaleAndNormalize) {
  auto v = ProbVector::FromPairs(4, {{0, 0.2}, {1, 0.2}}).ValueOrDie();
  v.Scale(2.0);
  EXPECT_NEAR(v.Sum(), 0.8, 1e-15);
  ASSERT_TRUE(v.Normalize().ok());
  EXPECT_NEAR(v.Sum(), 1.0, 1e-15);
  EXPECT_NEAR(v.Get(0), 0.5, 1e-15);
}

TEST(ProbVectorTest, DenseMigrationPreservesValues) {
  // Fill > 30% of a small vector to force the dense representation.
  std::vector<std::pair<uint32_t, double>> pairs;
  for (uint32_t i = 0; i < 8; ++i) pairs.emplace_back(i, 0.125);
  auto v = ProbVector::FromPairs(10, pairs).ValueOrDie();
  EXPECT_FALSE(v.IsSparse());
  EXPECT_NEAR(v.Sum(), 1.0, 1e-15);
  for (uint32_t i = 0; i < 8; ++i) EXPECT_DOUBLE_EQ(v.Get(i), 0.125);

  // Extracting most mass then compacting must fall back to sparse.
  auto most = IndexSet::FromRange(10, 0, 6).ValueOrDie();
  v.ExtractMassIn(most);
  v.Compact();
  EXPECT_TRUE(v.IsSparse());
  EXPECT_DOUBLE_EQ(v.Get(7), 0.125);
}

TEST(ProbVectorTest, CompactDropsEpsilonNoise) {
  auto v = ProbVector::FromPairs(10, {{0, 1e-20}, {1, 0.5}}).ValueOrDie();
  v.Compact();
  EXPECT_EQ(v.Support(), 1u);
  EXPECT_DOUBLE_EQ(v.Get(0), 0.0);
}

TEST(ProbVectorTest, ToDenseRoundTrip) {
  auto v = ProbVector::FromPairs(6, {{1, 0.25}, {4, 0.75}}).ValueOrDie();
  const std::vector<double> d = v.ToDense();
  ASSERT_EQ(d.size(), 6u);
  EXPECT_DOUBLE_EQ(d[1], 0.25);
  EXPECT_DOUBLE_EQ(d[4], 0.75);
  auto back = ProbVector::FromDense(d);
  ASSERT_TRUE(back.ok());
  EXPECT_DOUBLE_EQ(v.MaxAbsDiff(*back), 0.0);
}

TEST(ProbVectorTest, ForEachNonZeroAscending) {
  auto v = ProbVector::FromPairs(10, {{9, 0.1}, {0, 0.2}, {5, 0.3}})
               .ValueOrDie();
  std::vector<uint32_t> order;
  v.ForEachNonZero([&](uint32_t i, double) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<uint32_t>{0, 5, 9}));
}

TEST(ProbVectorTest, MaxValue) {
  auto v = ProbVector::FromPairs(10, {{1, 0.3}, {2, 0.7}}).ValueOrDie();
  EXPECT_DOUBLE_EQ(v.MaxValue(), 0.7);
  EXPECT_DOUBLE_EQ(ProbVector::Zero(4).MaxValue(), 0.0);
}

}  // namespace
}  // namespace sparse
}  // namespace ustdb
