#ifndef LSI_LINALG_OPERATORS_H_
#define LSI_LINALG_OPERATORS_H_

#include <atomic>
#include <cstddef>

#include "linalg/dense_matrix.h"
#include "linalg/dense_vector.h"
#include "linalg/sparse_matrix.h"

namespace lsi::linalg {

/// Abstract matrix-free linear operator.
///
/// Iterative solvers (Lanczos, power iteration, randomized range finding)
/// only need matrix-vector products, so they are written against this
/// interface and work identically for dense, sparse, and implicit
/// (e.g. Gram) matrices.
class LinearOperator {
 public:
  virtual ~LinearOperator() = default;

  virtual std::size_t rows() const = 0;
  virtual std::size_t cols() const = 0;

  /// Returns A * x. Requires x.size() == cols().
  virtual DenseVector Apply(const DenseVector& x) const = 0;

  /// Returns A^T * x. Requires x.size() == rows().
  virtual DenseVector ApplyTranspose(const DenseVector& x) const = 0;
};

/// LinearOperator view over a DenseMatrix (not owned).
class DenseOperator final : public LinearOperator {
 public:
  explicit DenseOperator(const DenseMatrix& matrix) : matrix_(matrix) {}

  std::size_t rows() const override { return matrix_.rows(); }
  std::size_t cols() const override { return matrix_.cols(); }
  DenseVector Apply(const DenseVector& x) const override {
    return Multiply(matrix_, x);
  }
  DenseVector ApplyTranspose(const DenseVector& x) const override {
    return MultiplyTranspose(matrix_, x);
  }

 private:
  const DenseMatrix& matrix_;
};

/// LinearOperator view over a SparseMatrix (not owned) that also stores
/// A^T, built once here, so both products are row gathers: every output
/// entry is one sparse dot on one thread, bit-identical at any
/// LSI_THREADS. The stored transpose costs nnz * 16 bytes.
class SparseOperator final : public LinearOperator {
 public:
  explicit SparseOperator(const SparseMatrix& matrix)
      : matrix_(matrix), transposed_(matrix.Transposed()) {}

  std::size_t rows() const override { return matrix_.rows(); }
  std::size_t cols() const override { return matrix_.cols(); }
  DenseVector Apply(const DenseVector& x) const override {
    return matrix_.Multiply(x);
  }
  DenseVector ApplyTranspose(const DenseVector& x) const override {
    return transposed_.Multiply(x);
  }

 private:
  const SparseMatrix& matrix_;
  SparseMatrix transposed_;
};

/// The transpose view of a base operator (not owned).
class TransposedOperator final : public LinearOperator {
 public:
  explicit TransposedOperator(const LinearOperator& base) : base_(base) {}

  std::size_t rows() const override { return base_.cols(); }
  std::size_t cols() const override { return base_.rows(); }
  DenseVector Apply(const DenseVector& x) const override {
    return base_.ApplyTranspose(x);
  }
  DenseVector ApplyTranspose(const DenseVector& x) const override {
    return base_.Apply(x);
  }

 private:
  const LinearOperator& base_;
};

/// Counts matrix-vector products flowing through a base operator (not
/// owned). The SVD backends wrap their input with this to report matvec
/// telemetry; counts are relaxed atomics, so a shared operator can be
/// applied from several threads.
class CountingOperator final : public LinearOperator {
 public:
  explicit CountingOperator(const LinearOperator& base) : base_(base) {}

  std::size_t rows() const override { return base_.rows(); }
  std::size_t cols() const override { return base_.cols(); }
  DenseVector Apply(const DenseVector& x) const override {
    applies_.fetch_add(1, std::memory_order_relaxed);
    return base_.Apply(x);
  }
  DenseVector ApplyTranspose(const DenseVector& x) const override {
    transposes_.fetch_add(1, std::memory_order_relaxed);
    return base_.ApplyTranspose(x);
  }

  std::size_t applies() const {
    return applies_.load(std::memory_order_relaxed);
  }
  std::size_t transposes() const {
    return transposes_.load(std::memory_order_relaxed);
  }

  /// Total products, A x and A^T x combined.
  std::size_t matvecs() const { return applies() + transposes(); }

 private:
  const LinearOperator& base_;
  mutable std::atomic<std::size_t> applies_{0};
  mutable std::atomic<std::size_t> transposes_{0};
};

/// The symmetric positive semidefinite Gram operator G = A^T A of a base
/// operator A, applied without forming G. Square: cols(A) x cols(A).
class GramOperator final : public LinearOperator {
 public:
  explicit GramOperator(const LinearOperator& base) : base_(base) {}

  std::size_t rows() const override { return base_.cols(); }
  std::size_t cols() const override { return base_.cols(); }
  DenseVector Apply(const DenseVector& x) const override {
    return base_.ApplyTranspose(base_.Apply(x));
  }
  DenseVector ApplyTranspose(const DenseVector& x) const override {
    return Apply(x);  // G is symmetric.
  }

 private:
  const LinearOperator& base_;
};

/// The outer Gram operator H = A A^T. Square: rows(A) x rows(A).
class OuterGramOperator final : public LinearOperator {
 public:
  explicit OuterGramOperator(const LinearOperator& base) : base_(base) {}

  std::size_t rows() const override { return base_.rows(); }
  std::size_t cols() const override { return base_.rows(); }
  DenseVector Apply(const DenseVector& x) const override {
    return base_.Apply(base_.ApplyTranspose(x));
  }
  DenseVector ApplyTranspose(const DenseVector& x) const override {
    return Apply(x);
  }

 private:
  const LinearOperator& base_;
};

}  // namespace lsi::linalg

#endif  // LSI_LINALG_OPERATORS_H_
