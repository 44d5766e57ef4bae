#include "linalg/operators.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "test_util.h"

namespace lsi::linalg {
namespace {

TEST(DenseOperatorTest, MatchesMatrixProducts) {
  Rng rng(21);
  DenseMatrix a = testing::RandomMatrix(6, 4, rng);
  DenseOperator op(a);
  EXPECT_EQ(op.rows(), 6u);
  EXPECT_EQ(op.cols(), 4u);
  DenseVector x = testing::RandomUnitVector(4, rng);
  DenseVector y = testing::RandomUnitVector(6, rng);
  EXPECT_LT(Distance(op.Apply(x), Multiply(a, x)), 1e-14);
  EXPECT_LT(Distance(op.ApplyTranspose(y), MultiplyTranspose(a, y)), 1e-14);
}

TEST(SparseOperatorTest, MatchesMatrixProducts) {
  Rng rng(23);
  DenseMatrix dense = testing::RandomMatrix(7, 5, rng);
  SparseMatrix sparse = SparseMatrix::FromDense(dense);
  SparseOperator op(sparse);
  DenseVector x = testing::RandomUnitVector(5, rng);
  EXPECT_LT(Distance(op.Apply(x), Multiply(dense, x)), 1e-12);
  DenseVector y = testing::RandomUnitVector(7, rng);
  EXPECT_LT(Distance(op.ApplyTranspose(y), MultiplyTranspose(dense, y)),
            1e-13);
}

TEST(SparseOperatorTest, ApplyTransposeMatchesDenseInParallel) {
  // Above the 2^14-nonzero threshold, so the gather over A^T runs
  // through ParallelFor.
  Rng rng(107);
  DenseMatrix dense(400, 300, 0.0);
  for (std::size_t t = 0; t < 24000; ++t) {
    dense(rng.NextUint64Below(400), rng.NextUint64Below(300)) +=
        rng.Uniform(-1.0, 1.0);
  }
  SparseMatrix sparse = SparseMatrix::FromDense(dense);
  ASSERT_GE(sparse.NumNonZeros(), std::size_t{1} << 14);
  SparseOperator op(sparse);
  EXPECT_EQ(op.rows(), 400u);
  EXPECT_EQ(op.cols(), 300u);
  DenseVector y = testing::RandomUnitVector(400, rng);
  EXPECT_LT(Distance(op.ApplyTranspose(y), MultiplyTranspose(dense, y)),
            1e-12);
  DenseVector x = testing::RandomUnitVector(300, rng);
  EXPECT_LT(Distance(op.Apply(x), Multiply(dense, x)), 1e-12);
}

TEST(GramOperatorTest, EqualsAtA) {
  Rng rng(25);
  DenseMatrix a = testing::RandomMatrix(8, 5, rng);
  DenseOperator base(a);
  GramOperator gram(base);
  EXPECT_EQ(gram.rows(), 5u);
  EXPECT_EQ(gram.cols(), 5u);
  DenseMatrix ata = MultiplyAtB(a, a);
  DenseVector x = testing::RandomUnitVector(5, rng);
  EXPECT_LT(Distance(gram.Apply(x), Multiply(ata, x)), 1e-12);
  // Symmetric: transpose application identical.
  EXPECT_LT(Distance(gram.ApplyTranspose(x), gram.Apply(x)), 1e-15);
}

TEST(OuterGramOperatorTest, EqualsAAt) {
  Rng rng(27);
  DenseMatrix a = testing::RandomMatrix(6, 9, rng);
  DenseOperator base(a);
  OuterGramOperator outer(base);
  EXPECT_EQ(outer.rows(), 6u);
  EXPECT_EQ(outer.cols(), 6u);
  DenseMatrix aat = MultiplyABt(a, a);
  DenseVector x = testing::RandomUnitVector(6, rng);
  EXPECT_LT(Distance(outer.Apply(x), Multiply(aat, x)), 1e-12);
}

TEST(TransposedOperatorTest, SwapsApplyDirections) {
  Rng rng(29);
  DenseMatrix a = testing::RandomMatrix(5, 8, rng);
  DenseOperator base(a);
  TransposedOperator at(base);
  EXPECT_EQ(at.rows(), 8u);
  EXPECT_EQ(at.cols(), 5u);
  DenseVector x = testing::RandomUnitVector(5, rng);
  DenseVector y = testing::RandomUnitVector(8, rng);
  EXPECT_LT(Distance(at.Apply(x), MultiplyTranspose(a, x)), 1e-14);
  EXPECT_LT(Distance(at.ApplyTranspose(y), Multiply(a, y)), 1e-14);
}

TEST(TransposedOperatorTest, DoubleTransposeIsIdentity) {
  Rng rng(31);
  DenseMatrix a = testing::RandomMatrix(4, 7, rng);
  DenseOperator base(a);
  TransposedOperator at(base);
  // Bind through the base class so the wrapping constructor is chosen
  // (TransposedOperator(at) would invoke the copy constructor).
  const LinearOperator& at_ref = at;
  TransposedOperator att(at_ref);
  DenseVector x = testing::RandomUnitVector(7, rng);
  EXPECT_LT(Distance(att.Apply(x), Multiply(a, x)), 1e-14);
}

}  // namespace
}  // namespace lsi::linalg
