#include "core/lsi_index.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.h"
#include "linalg/operators.h"
#include "linalg/simd/simd.h"
#include "obs/span.h"
#include "par/parallel_for.h"

namespace lsi::core {
namespace {

Result<linalg::SvdResult> ComputeTruncatedSvd(const linalg::LinearOperator& a,
                                              const LsiOptions& options) {
  const std::size_t min_dim = std::min(a.rows(), a.cols());
  if (options.rank == 0 || options.rank > min_dim) {
    return Status::InvalidArgument(
        "LsiIndex: rank must satisfy 1 <= rank <= min(terms, documents)");
  }
  switch (options.solver) {
    case SvdSolver::kLanczos:
      return linalg::LanczosSvd(a, options.rank, options.lanczos);
    case SvdSolver::kRandomized:
      return linalg::RandomizedSvd(a, options.rank, options.randomized);
    case SvdSolver::kGkl:
      return linalg::GklSvd(a, options.rank, options.gkl);
    case SvdSolver::kJacobi:
      break;  // Handled below: needs a materialized matrix.
  }
  return Status::InvalidArgument("LsiIndex: unknown solver");
}

Result<linalg::SvdResult> ComputeJacobi(const linalg::DenseMatrix& dense,
                                        std::size_t rank) {
  if (rank == 0 || rank > std::min(dense.rows(), dense.cols())) {
    return Status::InvalidArgument(
        "LsiIndex: rank must satisfy 1 <= rank <= min(terms, documents)");
  }
  LSI_ASSIGN_OR_RETURN(linalg::SvdResult full, linalg::JacobiSvd(dense));
  return full.Truncated(rank);
}

std::vector<double> ColumnNorms(const linalg::SparseMatrix& a) {
  std::vector<double> norms(a.cols(), 0.0);
  for (std::size_t p = 0; p < a.NumNonZeros(); ++p) {
    norms[a.col_indices()[p]] += a.values()[p] * a.values()[p];
  }
  for (double& norm : norms) norm = std::sqrt(norm);
  return norms;
}

std::vector<double> ColumnNorms(const linalg::DenseMatrix& a) {
  std::vector<double> norms(a.cols(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) norms[j] += a(i, j) * a(i, j);
  }
  for (double& norm : norms) norm = std::sqrt(norm);
  return norms;
}

}  // namespace

LsiIndex::LsiIndex(linalg::SvdResult svd,
                   linalg::DenseMatrix document_vectors,
                   const std::vector<double>& column_norms) {
  auto built = std::make_shared<Built>();
  const std::size_t k = svd.rank();
  if (document_vectors.rows() == 0) {
    obs::ScopedSpan span("project");
    // Document vectors: V_k D_k (row j = sigma-weighted coordinates of
    // document j in the latent space).
    document_vectors = linalg::DenseMatrix(svd.v.rows(), k);
    for (std::size_t j = 0; j < svd.v.rows(); ++j) {
      for (std::size_t i = 0; i < k; ++i) {
        document_vectors(j, i) = svd.v(j, i) * svd.singular_values[i];
      }
    }
  }
  built->svd = std::move(svd);
  built->document_vectors = std::move(document_vectors);
  const std::size_t m = built->document_vectors.rows();
  built->document_norms.resize(m);
  double residual_sum = 0.0;
  for (std::size_t j = 0; j < m; ++j) {
    built->document_norms[j] = std::sqrt(linalg::simd::SquaredNorm(
        built->document_vectors.RowPtr(j), k));
    max_document_norm_ = std::max(max_document_norm_, built->document_norms[j]);
    // U_k^T A = D_k V_k^T, so row j's norm is ||U_k^T a_j||.
    if (j < column_norms.size() && column_norms[j] > 0.0) {
      residual_sum += std::acos(
          std::min(1.0, built->document_norms[j] / column_norms[j]));
    }
  }
  if (!column_norms.empty() && m > 0) {
    built->mean_residual_angle = residual_sum / static_cast<double>(m);
  }
  built_ = std::move(built);
  deleted_.assign(m, 0);
}

Result<LsiIndex> LsiIndex::Build(const linalg::SparseMatrix& term_document,
                                 const LsiOptions& options) {
  if (options.solver == SvdSolver::kJacobi) {
    linalg::SvdResult svd;
    {
      obs::ScopedSpan span("factor");
      LSI_ASSIGN_OR_RETURN(
          svd, ComputeJacobi(term_document.ToDense(), options.rank));
    }
    return LsiIndex(std::move(svd), {}, ColumnNorms(term_document));
  }
  linalg::SparseOperator op(term_document);
  linalg::SvdResult svd;
  {
    obs::ScopedSpan span("factor");
    LSI_ASSIGN_OR_RETURN(svd, ComputeTruncatedSvd(op, options));
  }
  return LsiIndex(std::move(svd), {}, ColumnNorms(term_document));
}

Result<LsiIndex> LsiIndex::Build(const linalg::DenseMatrix& term_document,
                                 const LsiOptions& options) {
  if (options.solver == SvdSolver::kJacobi) {
    linalg::SvdResult svd;
    {
      obs::ScopedSpan span("factor");
      LSI_ASSIGN_OR_RETURN(svd, ComputeJacobi(term_document, options.rank));
    }
    return LsiIndex(std::move(svd), {}, ColumnNorms(term_document));
  }
  linalg::DenseOperator op(term_document);
  linalg::SvdResult svd;
  {
    obs::ScopedSpan span("factor");
    LSI_ASSIGN_OR_RETURN(svd, ComputeTruncatedSvd(op, options));
  }
  return LsiIndex(std::move(svd), {}, ColumnNorms(term_document));
}

Result<LsiIndex> LsiIndex::FromSvd(linalg::SvdResult svd) {
  if (svd.rank() == 0 || svd.u.cols() != svd.rank() ||
      svd.v.cols() != svd.rank() || svd.u.rows() == 0 || svd.v.rows() == 0) {
    return Status::InvalidArgument(
        "LsiIndex::FromSvd: inconsistent SVD factor shapes");
  }
  return LsiIndex(std::move(svd));
}

Result<std::size_t> LsiIndex::FoldInDocument(
    const linalg::DenseVector& term_vector, double* residual_angle) {
  if (term_vector.size() != NumTerms()) {
    return Status::InvalidArgument(
        "FoldInDocument: vector dimension must equal the number of terms");
  }
  linalg::DenseVector folded =
      linalg::MultiplyTranspose(svd().u, term_vector);
  if (residual_angle != nullptr) {
    // U_k has orthonormal columns, so ||U_k^T d|| is the length of d's
    // projection onto span(U_k) and the residual angle is
    // acos(||U_k^T d|| / ||d||). Guard rounding: the ratio can exceed 1
    // by an ulp. A zero document projects exactly (angle 0).
    const double document_norm = term_vector.Norm();
    if (document_norm == 0.0) {
      *residual_angle = 0.0;
    } else {
      const double ratio =
          std::min(1.0, std::max(0.0, folded.Norm() / document_norm));
      *residual_angle = std::acos(ratio);
    }
  }
  folded_vectors_.AppendRow(folded);
  folded_norms_.push_back(folded.Norm());
  max_document_norm_ = std::max(max_document_norm_, folded_norms_.back());
  deleted_.push_back(0);
  return NumDocuments() - 1;
}

Status LsiIndex::MarkDeleted(std::size_t j) {
  if (j >= NumDocuments()) {
    return Status::OutOfRange("MarkDeleted: document index out of range");
  }
  num_deleted_ += deleted_[j] == 0 ? 1 : 0;
  deleted_[j] = 1;
  return Status::OK();
}

double LsiIndex::SingularValue(std::size_t i) const {
  LSI_CHECK(i < rank());
  return svd().singular_values[i];
}

const double* LsiIndex::Row(std::size_t j) const {
  const std::size_t built = built_->document_vectors.rows();
  return j < built ? built_->document_vectors.RowPtr(j)
                   : folded_vectors_.RowPtr(j - built);
}

double LsiIndex::RowNorm(std::size_t j) const {
  const std::size_t built = built_->document_norms.size();
  return j < built ? built_->document_norms[j] : folded_norms_[j - built];
}

linalg::DenseVector LsiIndex::DocumentVector(std::size_t j) const {
  LSI_CHECK(j < NumDocuments());
  linalg::DenseVector vector(rank(), 0.0);
  if (!IsDeleted(j)) std::copy(Row(j), Row(j) + rank(), vector.data());
  return vector;
}

linalg::DenseMatrix LsiIndex::TermVectors() const {
  const std::size_t n = NumTerms();
  const std::size_t k = rank();
  linalg::DenseMatrix term_vectors(n, k);
  for (std::size_t t = 0; t < n; ++t) {
    for (std::size_t i = 0; i < k; ++i) {
      term_vectors(t, i) = svd().u(t, i) * svd().singular_values[i];
    }
  }
  return term_vectors;
}

Result<linalg::DenseVector> LsiIndex::FoldInQuery(
    const linalg::DenseVector& query) const {
  if (query.size() != NumTerms()) {
    return Status::InvalidArgument(
        "FoldInQuery: query dimension must equal the number of terms");
  }
  return linalg::MultiplyTranspose(svd().u, query);
}

Result<std::vector<SearchResult>> LsiIndex::Search(
    const linalg::DenseVector& query, std::size_t top_k) const {
  obs::ScopedSpan span("score");
  LSI_ASSIGN_OR_RETURN(linalg::DenseVector folded, FoldInQuery(query));
  // A query orthogonal to the latent subspace folds to a numerically
  // zero vector; cosines against it are rounding noise, so it scores 0.
  return Rank(folded, 1e-12 * query.Norm(), SIZE_MAX, top_k);
}

Result<std::vector<SearchResult>> LsiIndex::SearchLatent(
    const linalg::DenseVector& latent, std::size_t top_k,
    std::size_t exclude) const {
  if (latent.size() != rank()) {
    return Status::InvalidArgument(
        "SearchLatent: vector dimension must equal the rank");
  }
  return Rank(latent, 1e-12 * max_document_norm_, exclude, top_k);
}

std::vector<SearchResult> LsiIndex::Rank(const linalg::DenseVector& latent,
                                         double latent_floor,
                                         std::size_t exclude,
                                         std::size_t top_k) const {
  // Slot s scores live document ids[s]. The ids ascend, so the stable
  // sort in RankScores yields (score desc, id asc) — the order the whole
  // index ranks in, which is what makes shard merges exact.
  const std::size_t m = NumDocuments();
  std::vector<std::size_t> ids;
  ids.reserve(m - num_deleted_);
  for (std::size_t j = 0; j < m; ++j) {
    if (deleted_[j] == 0 && j != exclude) ids.push_back(j);
  }
  const std::size_t k = rank();
  std::vector<double> scores(ids.size(), 0.0);
  // Rows that fold to numerically nothing score 0 too (norms are cached).
  const double doc_floor = 1e-12 * max_document_norm_;
  const double latent_norm = latent.Norm();
  if (latent_norm > latent_floor) {
    // Slot-parallel over disjoint score slots; each cosine reads one
    // contiguous V_k D_k row through the SIMD dot kernel, so a score
    // never depends on the partition or on LSI_THREADS.
    const std::size_t grain = std::max<std::size_t>(64, (1 << 16) / k);
    par::ParallelFor(0, ids.size(), grain,
                     [&](std::size_t begin, std::size_t end) {
      for (std::size_t s = begin; s < end; ++s) {
        const double norm = RowNorm(ids[s]);
        if (norm <= doc_floor) continue;
        scores[s] = linalg::simd::Dot(latent.data(), Row(ids[s]), k) /
                    (latent_norm * norm);
      }
    });
  }
  std::vector<SearchResult> ranked = RankScores(scores, top_k);
  for (SearchResult& r : ranked) r.document = ids[r.document];
  return ranked;
}

std::vector<SearchResult> RankScores(const std::vector<double>& scores,
                                     std::size_t top_k) {
  std::vector<std::size_t> order(scores.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return scores[a] > scores[b];
                   });
  std::size_t keep = (top_k == 0) ? scores.size()
                                  : std::min(top_k, scores.size());
  std::vector<SearchResult> results;
  results.reserve(keep);
  for (std::size_t i = 0; i < keep; ++i) {
    results.push_back({order[i], scores[order[i]]});
  }
  return results;
}

}  // namespace lsi::core
