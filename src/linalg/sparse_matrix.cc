#include "linalg/sparse_matrix.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "linalg/simd/simd.h"
#include "par/parallel_for.h"

namespace lsi::linalg {
namespace {

// Row-range grain for the parallel SpMV kernels. Each output row is
// owned by one chunk and computed by the serial inner loop, so results
// are bit-identical at every LSI_THREADS setting whatever the grain.
constexpr std::size_t kSpmvRowGrain = 128;

// Matrices below this many nonzeros aren't worth a parallel region at
// any thread count; a size-only threshold keeps the serial/parallel
// decision deterministic too.
constexpr std::size_t kMinParallelNnz = 1 << 14;

}  // namespace

SparseMatrix::SparseMatrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), row_offsets_(rows + 1, 0) {}

SparseMatrix SparseMatrix::FromTriplets(std::size_t rows, std::size_t cols,
                                        std::vector<Triplet> triplets) {
  for (const Triplet& t : triplets) {
    LSI_CHECK(t.row < rows && t.col < cols);
  }
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              if (a.row != b.row) return a.row < b.row;
              return a.col < b.col;
            });

  SparseMatrix m(rows, cols);
  m.col_indices_.reserve(triplets.size());
  m.values_.reserve(triplets.size());

  std::size_t i = 0;
  while (i < triplets.size()) {
    // Merge duplicates at the same (row, col).
    std::size_t j = i;
    double sum = 0.0;
    while (j < triplets.size() && triplets[j].row == triplets[i].row &&
           triplets[j].col == triplets[i].col) {
      sum += triplets[j].value;
      ++j;
    }
    m.col_indices_.push_back(triplets[i].col);
    m.values_.push_back(sum);
    m.row_offsets_[triplets[i].row + 1]++;
    i = j;
  }
  for (std::size_t r = 0; r < rows; ++r) {
    m.row_offsets_[r + 1] += m.row_offsets_[r];
  }
  return m;
}

SparseMatrix SparseMatrix::FromDense(const DenseMatrix& dense,
                                     double tolerance) {
  std::vector<Triplet> triplets;
  for (std::size_t i = 0; i < dense.rows(); ++i) {
    for (std::size_t j = 0; j < dense.cols(); ++j) {
      double v = dense(i, j);
      if (std::fabs(v) > tolerance) triplets.push_back({i, j, v});
    }
  }
  return FromTriplets(dense.rows(), dense.cols(), std::move(triplets));
}

DenseVector SparseMatrix::Multiply(const DenseVector& x) const {
  LSI_CHECK(x.size() == cols_);
  DenseVector y(rows_, 0.0);
  // Row-parallel: each output y[i] is owned by exactly one chunk and
  // computed by the same serial inner loop as before, so the result is
  // bit-identical to the serial kernel at any thread count.
  auto rows_kernel = [&](std::size_t row_begin, std::size_t row_end) {
    for (std::size_t i = row_begin; i < row_end; ++i) {
      const std::size_t begin = row_offsets_[i];
      y[i] = simd::SparseDot(values_.data() + begin,
                             col_indices_.data() + begin,
                             row_offsets_[i + 1] - begin, x.data());
    }
  };
  if (values_.size() < kMinParallelNnz) {
    rows_kernel(0, rows_);
  } else {
    par::ParallelFor(0, rows_, kSpmvRowGrain, rows_kernel);
  }
  return y;
}

DenseMatrix SparseMatrix::MultiplyDense(const DenseMatrix& b) const {
  LSI_CHECK(b.rows() == cols_);
  DenseMatrix c(rows_, b.cols(), 0.0);
  // Row-parallel with disjoint output rows; bit-identical to serial.
  auto rows_kernel = [&](std::size_t row_begin, std::size_t row_end) {
    for (std::size_t i = row_begin; i < row_end; ++i) {
      double* crow = c.RowPtr(i);
      for (std::size_t p = row_offsets_[i]; p < row_offsets_[i + 1]; ++p) {
        simd::Axpy(crow, values_[p], b.RowPtr(col_indices_[p]), b.cols());
      }
    }
  };
  if (values_.size() * b.cols() < kMinParallelNnz) {
    rows_kernel(0, rows_);
  } else {
    par::ParallelFor(0, rows_, kSpmvRowGrain, rows_kernel);
  }
  return c;
}

DenseMatrix SparseMatrix::ToDense() const {
  DenseMatrix d(rows_, cols_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t p = row_offsets_[i]; p < row_offsets_[i + 1]; ++p) {
      d(i, col_indices_[p]) = values_[p];
    }
  }
  return d;
}

SparseMatrix SparseMatrix::Transposed() const {
  SparseMatrix t(cols_, rows_);
  t.col_indices_.resize(values_.size());
  t.values_.resize(values_.size());
  // Count entries per column of this matrix (= rows of transpose).
  for (std::size_t c : col_indices_) t.row_offsets_[c + 1]++;
  for (std::size_t r = 0; r < cols_; ++r) {
    t.row_offsets_[r + 1] += t.row_offsets_[r];
  }
  std::vector<std::size_t> cursor(t.row_offsets_.begin(),
                                  t.row_offsets_.end() - 1);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t p = row_offsets_[i]; p < row_offsets_[i + 1]; ++p) {
      std::size_t dst = cursor[col_indices_[p]]++;
      t.col_indices_[dst] = i;
      t.values_[dst] = values_[p];
    }
  }
  return t;
}

double SparseMatrix::FrobeniusNorm() const {
  double acc = 0.0;
  for (double v : values_) acc += v * v;
  return std::sqrt(acc);
}

double SparseMatrix::At(std::size_t i, std::size_t j) const {
  LSI_CHECK(i < rows_ && j < cols_);
  auto begin = col_indices_.begin() + static_cast<std::ptrdiff_t>(row_offsets_[i]);
  auto end = col_indices_.begin() + static_cast<std::ptrdiff_t>(row_offsets_[i + 1]);
  auto it = std::lower_bound(begin, end, j);
  if (it != end && *it == j) {
    return values_[static_cast<std::size_t>(it - col_indices_.begin())];
  }
  return 0.0;
}

void SparseMatrix::Scale(double alpha) {
  for (double& v : values_) v *= alpha;
}

void SparseMatrixBuilder::Add(std::size_t row, std::size_t col, double value) {
  LSI_CHECK(row < rows_ && col < cols_);
  triplets_.push_back({row, col, value});
}

SparseMatrix SparseMatrixBuilder::Build() {
  std::vector<Triplet> triplets;
  triplets.swap(triplets_);
  return SparseMatrix::FromTriplets(rows_, cols_, std::move(triplets));
}

}  // namespace lsi::linalg
