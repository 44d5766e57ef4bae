#ifndef LSI_LINALG_SPARSE_MATRIX_H_
#define LSI_LINALG_SPARSE_MATRIX_H_

#include <cstddef>
#include <vector>

#include "linalg/dense_matrix.h"
#include "linalg/dense_vector.h"

namespace lsi::linalg {

/// One nonzero entry, used when assembling a sparse matrix.
struct Triplet {
  std::size_t row;
  std::size_t col;
  double value;
};

/// An immutable sparse matrix in compressed-sparse-row (CSR) form.
///
/// This is the storage for term-document matrices: rows are terms,
/// columns are documents, and a typical corpus has well under 1% density.
/// Build one with SparseMatrixBuilder or FromTriplets. Every product is
/// a row gather; for A^T x, gather over Transposed() (SparseOperator
/// keeps both orientations).
class SparseMatrix {
 public:
  /// Creates an empty rows x cols matrix (no nonzeros).
  SparseMatrix(std::size_t rows, std::size_t cols);

  SparseMatrix(const SparseMatrix&) = default;
  SparseMatrix& operator=(const SparseMatrix&) = default;
  SparseMatrix(SparseMatrix&&) noexcept = default;
  SparseMatrix& operator=(SparseMatrix&&) noexcept = default;

  /// Assembles a CSR matrix from unordered triplets. Duplicate (row, col)
  /// entries are summed. Entries that sum to exactly zero are kept (they
  /// are rare and harmless).
  static SparseMatrix FromTriplets(std::size_t rows, std::size_t cols,
                                   std::vector<Triplet> triplets);

  /// Converts a dense matrix, dropping entries with |a_ij| <= tolerance.
  static SparseMatrix FromDense(const DenseMatrix& dense,
                                double tolerance = 0.0);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t NumNonZeros() const { return values_.size(); }

  /// y = A * x. Requires x.size() == cols().
  DenseVector Multiply(const DenseVector& x) const;

  /// C = A * B (dense result). Requires b.rows() == cols().
  DenseMatrix MultiplyDense(const DenseMatrix& b) const;

  /// Materializes the matrix densely. Intended for tests and small inputs.
  DenseMatrix ToDense() const;

  /// Returns the transpose as a new CSR matrix.
  SparseMatrix Transposed() const;

  /// sqrt(sum of squares of stored values).
  double FrobeniusNorm() const;

  /// Returns the value at (i, j); O(log nnz_row) via binary search.
  double At(std::size_t i, std::size_t j) const;

  /// Multiplies all stored values by alpha.
  void Scale(double alpha);

  /// CSR internals, exposed for algorithms that iterate rows directly.
  const std::vector<std::size_t>& row_offsets() const { return row_offsets_; }
  const std::vector<std::size_t>& col_indices() const { return col_indices_; }
  const std::vector<double>& values() const { return values_; }
  std::vector<double>& mutable_values() { return values_; }

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<std::size_t> row_offsets_;  // size rows_+1
  std::vector<std::size_t> col_indices_;  // size nnz
  std::vector<double> values_;            // size nnz
};

/// Incremental builder: accumulate entries, then Build() a CSR matrix.
/// Add is O(1); Build sorts once.
class SparseMatrixBuilder {
 public:
  SparseMatrixBuilder(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols) {}

  /// Accumulates `value` at (row, col). Duplicates are summed at Build().
  void Add(std::size_t row, std::size_t col, double value);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  /// Assembles the CSR matrix. The builder may be reused afterwards (it
  /// is left empty).
  SparseMatrix Build();

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<Triplet> triplets_;
};

}  // namespace lsi::linalg

#endif  // LSI_LINALG_SPARSE_MATRIX_H_
