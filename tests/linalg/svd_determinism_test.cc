// Determinism gate for the lsi::par layer: every parallel kernel and
// every solver built on top must produce BIT-IDENTICAL results at
// LSI_THREADS=1 and LSI_THREADS=8. Partitions depend only on problem
// shape and reductions fold in fixed chunk order, so these are exact
// (==) comparisons, not tolerances.

#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "linalg/dense_matrix.h"
#include "linalg/dense_vector.h"
#include "linalg/gkl_svd.h"
#include "linalg/operators.h"
#include "linalg/sparse_matrix.h"
#include "linalg/svd.h"
#include "par/par.h"
#include "test_util.h"

namespace lsi::linalg {
namespace {

/// Runs the body under each thread count and checks exact agreement.
class SvdDeterminismTest : public ::testing::Test {
 protected:
  void TearDown() override { par::SetThreads(0); }
};

void ExpectBitIdentical(const DenseVector& a, const DenseVector& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "entry " << i;
  }
}

void ExpectBitIdentical(const DenseMatrix& a, const DenseMatrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  const double* pa = a.data();
  const double* pb = b.data();
  for (std::size_t i = 0; i < a.rows() * a.cols(); ++i) {
    EXPECT_EQ(pa[i], pb[i]) << "flat index " << i;
  }
}

/// A sparse matrix big enough (nnz >= the parallel thresholds) that the
/// chunked kernels actually engage.
SparseMatrix LargeSparseMatrix(std::size_t rows, std::size_t cols,
                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Triplet> triplets;
  const std::size_t nnz = rows * cols / 20;  // ~5% density.
  triplets.reserve(nnz);
  for (std::size_t t = 0; t < nnz; ++t) {
    triplets.push_back({static_cast<std::size_t>(rng.NextUint64Below(rows)),
                        static_cast<std::size_t>(rng.NextUint64Below(cols)),
                        rng.Uniform(-2.0, 2.0)});
  }
  return SparseMatrix::FromTriplets(rows, cols, std::move(triplets));
}

TEST_F(SvdDeterminismTest, SparseMultiplyMatchesAcrossThreadCounts) {
  SparseMatrix a = LargeSparseMatrix(800, 600, 7);
  ASSERT_GE(a.NumNonZeros(), std::size_t{1} << 14);
  Rng rng(11);
  DenseVector x(600);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = rng.Uniform(-1.0, 1.0);
  DenseVector xt(800);
  for (std::size_t i = 0; i < xt.size(); ++i) xt[i] = rng.Uniform(-1.0, 1.0);

  SparseOperator op(a);
  par::SetThreads(1);
  DenseVector y1 = op.Apply(x);
  DenseVector yt1 = op.ApplyTranspose(xt);
  par::SetThreads(8);
  DenseVector y8 = op.Apply(x);
  DenseVector yt8 = op.ApplyTranspose(xt);

  ExpectBitIdentical(y1, y8);
  ExpectBitIdentical(yt1, yt8);
}

TEST_F(SvdDeterminismTest, DenseKernelsMatchAcrossThreadCounts) {
  Rng rng(13);
  DenseMatrix a = testing::RandomMatrix(300, 200, rng);
  DenseMatrix b = testing::RandomMatrix(200, 150, rng);
  DenseMatrix c = testing::RandomMatrix(300, 150, rng);
  DenseVector x(200);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = rng.Uniform(-1.0, 1.0);
  DenseVector xr(300);
  for (std::size_t i = 0; i < xr.size(); ++i) xr[i] = rng.Uniform(-1.0, 1.0);

  par::SetThreads(1);
  DenseMatrix ab1 = Multiply(a, b);
  DenseMatrix atc1 = MultiplyAtB(a, c);
  DenseMatrix cbt1 = MultiplyABt(c, b);  // (300x150) * (200x150)^T.
  DenseVector ax1 = Multiply(a, x);
  DenseVector atx1 = MultiplyTranspose(a, xr);
  par::SetThreads(8);
  DenseMatrix ab8 = Multiply(a, b);
  DenseMatrix atc8 = MultiplyAtB(a, c);
  DenseMatrix cbt8 = MultiplyABt(c, b);
  DenseVector ax8 = Multiply(a, x);
  DenseVector atx8 = MultiplyTranspose(a, xr);

  ExpectBitIdentical(ab1, ab8);
  ExpectBitIdentical(atc1, atc8);
  ExpectBitIdentical(cbt1, cbt8);
  ExpectBitIdentical(ax1, ax8);
  ExpectBitIdentical(atx1, atx8);
}

TEST_F(SvdDeterminismTest, LanczosSvdBitIdenticalAcrossThreadCounts) {
  SparseMatrix a = LargeSparseMatrix(500, 400, 21);
  LanczosSvdOptions options;
  options.seed = 3;

  par::SetThreads(1);
  auto svd1 = LanczosSvd(a, 6, options);
  ASSERT_TRUE(svd1.ok()) << svd1.status().ToString();
  par::SetThreads(8);
  auto svd8 = LanczosSvd(a, 6, options);
  ASSERT_TRUE(svd8.ok()) << svd8.status().ToString();

  ExpectBitIdentical(svd1->singular_values, svd8->singular_values);
  ExpectBitIdentical(svd1->u, svd8->u);
  ExpectBitIdentical(svd1->v, svd8->v);
}

TEST_F(SvdDeterminismTest, RandomizedSvdBitIdenticalAcrossThreadCounts) {
  SparseMatrix a = LargeSparseMatrix(500, 400, 29);
  RandomizedSvdOptions options;
  options.seed = 5;

  par::SetThreads(1);
  auto svd1 = RandomizedSvd(a, 6, options);
  ASSERT_TRUE(svd1.ok()) << svd1.status().ToString();
  par::SetThreads(8);
  auto svd8 = RandomizedSvd(a, 6, options);
  ASSERT_TRUE(svd8.ok()) << svd8.status().ToString();

  ExpectBitIdentical(svd1->singular_values, svd8->singular_values);
  ExpectBitIdentical(svd1->u, svd8->u);
  ExpectBitIdentical(svd1->v, svd8->v);
}

TEST_F(SvdDeterminismTest, GklSvdBitIdenticalAcrossThreadCounts) {
  SparseMatrix a = LargeSparseMatrix(500, 400, 37);

  par::SetThreads(1);
  auto svd1 = GklSvd(a, 6);
  ASSERT_TRUE(svd1.ok()) << svd1.status().ToString();
  par::SetThreads(8);
  auto svd8 = GklSvd(a, 6);
  ASSERT_TRUE(svd8.ok()) << svd8.status().ToString();

  ExpectBitIdentical(svd1->singular_values, svd8->singular_values);
  ExpectBitIdentical(svd1->u, svd8->u);
  ExpectBitIdentical(svd1->v, svd8->v);
}

}  // namespace
}  // namespace lsi::linalg
