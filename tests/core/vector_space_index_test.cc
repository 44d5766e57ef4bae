#include "core/vector_space_index.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "par/par.h"

namespace lsi::core {
namespace {

using linalg::DenseVector;
using linalg::SparseMatrix;

SparseMatrix SmallMatrix() {
  // Documents: d0 = (1,1,0), d1 = (0,1,1), d2 = (0,0,2).
  linalg::SparseMatrixBuilder builder(3, 3);
  builder.Add(0, 0, 1.0);
  builder.Add(1, 0, 1.0);
  builder.Add(1, 1, 1.0);
  builder.Add(2, 1, 1.0);
  builder.Add(2, 2, 2.0);
  return builder.Build();
}

TEST(VectorSpaceIndexTest, RejectsEmpty) {
  EXPECT_FALSE(VectorSpaceIndex::Build(SparseMatrix(0, 0)).ok());
}

TEST(VectorSpaceIndexTest, Shapes) {
  auto index = VectorSpaceIndex::Build(SmallMatrix());
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->NumTerms(), 3u);
  EXPECT_EQ(index->NumDocuments(), 3u);
}

TEST(VectorSpaceIndexTest, SimilarityExactValues) {
  auto index = VectorSpaceIndex::Build(SmallMatrix());
  ASSERT_TRUE(index.ok());
  DenseVector query = {1.0, 0.0, 0.0};  // Only term 0.
  // cos(q, d0) = 1/sqrt(2); cos(q, d1) = 0; cos(q, d2) = 0.
  auto s0 = index->Similarity(query, 0);
  auto s1 = index->Similarity(query, 1);
  auto s2 = index->Similarity(query, 2);
  ASSERT_TRUE(s0.ok() && s1.ok() && s2.ok());
  EXPECT_NEAR(s0.value(), 1.0 / std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(s1.value(), 0.0, 1e-12);
  EXPECT_NEAR(s2.value(), 0.0, 1e-12);
}

TEST(VectorSpaceIndexTest, SimilarityValidation) {
  auto index = VectorSpaceIndex::Build(SmallMatrix());
  ASSERT_TRUE(index.ok());
  EXPECT_FALSE(index->Similarity(DenseVector(2, 1.0), 0).ok());
  EXPECT_FALSE(index->Similarity(DenseVector(3, 1.0), 5).ok());
}

TEST(VectorSpaceIndexTest, SearchMatchesSimilarity) {
  auto index = VectorSpaceIndex::Build(SmallMatrix());
  ASSERT_TRUE(index.ok());
  DenseVector query = {0.0, 1.0, 1.0};
  auto results = index->Search(query);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 3u);
  for (const SearchResult& r : results.value()) {
    auto expected = index->Similarity(query, r.document);
    ASSERT_TRUE(expected.ok());
    EXPECT_NEAR(r.score, expected.value(), 1e-12);
  }
  // d1 = (0,1,1) is the exact match.
  EXPECT_EQ((*results)[0].document, 1u);
  EXPECT_NEAR((*results)[0].score, 1.0, 1e-12);
}

TEST(VectorSpaceIndexTest, ZeroQueryScoresZero) {
  auto index = VectorSpaceIndex::Build(SmallMatrix());
  ASSERT_TRUE(index.ok());
  auto results = index->Search(DenseVector(3, 0.0));
  ASSERT_TRUE(results.ok());
  for (const SearchResult& r : results.value()) {
    EXPECT_DOUBLE_EQ(r.score, 0.0);
  }
}

TEST(VectorSpaceIndexTest, EmptyDocumentScoresZero) {
  linalg::SparseMatrixBuilder builder(2, 2);
  builder.Add(0, 0, 1.0);  // d1 has no terms.
  auto index = VectorSpaceIndex::Build(builder.Build());
  ASSERT_TRUE(index.ok());
  DenseVector query = {1.0, 1.0};
  auto s = index->Similarity(query, 1);
  ASSERT_TRUE(s.ok());
  EXPECT_DOUBLE_EQ(s.value(), 0.0);
}

TEST(VectorSpaceIndexTest, SynonymyBlindness) {
  // The failure mode motivating LSI: a query on term 0 misses a document
  // using only term 1 even though they are synonyms (co-occur with the
  // same other terms elsewhere).
  linalg::SparseMatrixBuilder builder(3, 3);
  builder.Add(0, 0, 1.0);  // d0 uses "car".
  builder.Add(2, 0, 1.0);
  builder.Add(1, 1, 1.0);  // d1 uses "automobile".
  builder.Add(2, 1, 1.0);
  builder.Add(2, 2, 1.0);
  auto index = VectorSpaceIndex::Build(builder.Build());
  ASSERT_TRUE(index.ok());
  DenseVector query(3, 0.0);
  query[0] = 1.0;  // "car" only.
  auto s = index->Similarity(query, 1);
  ASSERT_TRUE(s.ok());
  EXPECT_DOUBLE_EQ(s.value(), 0.0);  // VSM scores the synonym doc zero.
}

TEST(VectorSpaceIndexTest, SearchTopK) {
  auto index = VectorSpaceIndex::Build(SmallMatrix());
  ASSERT_TRUE(index.ok());
  DenseVector query = {1.0, 1.0, 1.0};
  auto results = index->Search(query, 1);
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results->size(), 1u);
}

TEST(VectorSpaceIndexTest, MatchesDenseCosineAcrossThreadCounts) {
  // Above the 2^14-nonzero threshold, so Search's gather runs through
  // ParallelFor.
  constexpr std::size_t kTerms = 400;
  constexpr std::size_t kDocs = 300;
  Rng rng(41);
  linalg::DenseMatrix dense(kTerms, kDocs, 0.0);
  for (std::size_t t = 0; t < 24000; ++t) {
    dense(rng.NextUint64Below(kTerms), rng.NextUint64Below(kDocs)) +=
        rng.Uniform(0.0, 1.0);
  }
  for (std::size_t i = 0; i < kTerms; ++i) dense(i, 7) = 0.0;  // Empty doc.
  SparseMatrix sparse = SparseMatrix::FromDense(dense);
  ASSERT_GE(sparse.NumNonZeros(), std::size_t{1} << 14);
  auto index = VectorSpaceIndex::Build(sparse);
  ASSERT_TRUE(index.ok());

  DenseVector query(kTerms, 0.0);
  for (std::size_t i = 0; i < kTerms; i += 3) query[i] = rng.Uniform(0.0, 1.0);
  std::vector<double> expected(kDocs, 0.0);
  for (std::size_t j = 0; j < kDocs; ++j) {
    double dot = 0.0;
    double norm_sq = 0.0;
    for (std::size_t i = 0; i < kTerms; ++i) {
      dot += dense(i, j) * query[i];
      norm_sq += dense(i, j) * dense(i, j);
    }
    if (norm_sq > 0.0) expected[j] = dot / (query.Norm() * std::sqrt(norm_sq));
  }

  struct RestoreThreads {
    ~RestoreThreads() { par::SetThreads(0); }
  } restore;
  std::vector<std::vector<SearchResult>> runs;
  for (std::size_t threads : {1, 8}) {
    par::SetThreads(threads);
    auto results = index->Search(query);
    ASSERT_TRUE(results.ok());
    ASSERT_EQ(results->size(), kDocs);
    for (std::size_t r = 0; r < kDocs; ++r) {
      const SearchResult& hit = (*results)[r];
      EXPECT_NEAR(hit.score, expected[hit.document], 1e-12);
      if (r > 0) {
        EXPECT_GE((*results)[r - 1].score, hit.score);
      }
      auto similarity = index->Similarity(query, hit.document);
      ASSERT_TRUE(similarity.ok());
      EXPECT_EQ(similarity.value(), hit.score);
    }
    runs.push_back(std::move(results).value());
  }
  for (std::size_t r = 0; r < kDocs; ++r) {
    EXPECT_EQ(runs[0][r].document, runs[1][r].document);
    EXPECT_EQ(runs[0][r].score, runs[1][r].score);
  }
}

}  // namespace
}  // namespace lsi::core
