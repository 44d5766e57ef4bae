#include "core/vector_space_index.h"

#include <cmath>

#include "linalg/simd/simd.h"

namespace lsi::core {

VectorSpaceIndex::VectorSpaceIndex(linalg::SparseMatrix documents)
    : documents_(std::move(documents)),
      document_norms_(documents_.rows(), 0.0) {
  const auto& offsets = documents_.row_offsets();
  const auto& values = documents_.values();
  for (std::size_t j = 0; j < documents_.rows(); ++j) {
    document_norms_[j] = std::sqrt(linalg::simd::SquaredNorm(
        values.data() + offsets[j], offsets[j + 1] - offsets[j]));
  }
}

Result<VectorSpaceIndex> VectorSpaceIndex::Build(
    const linalg::SparseMatrix& term_document) {
  if (term_document.rows() == 0 || term_document.cols() == 0) {
    return Status::InvalidArgument(
        "VectorSpaceIndex requires a nonempty matrix");
  }
  return VectorSpaceIndex(term_document.Transposed());
}

Result<double> VectorSpaceIndex::Similarity(const linalg::DenseVector& query,
                                            std::size_t document) const {
  if (query.size() != NumTerms()) {
    return Status::InvalidArgument(
        "Similarity: query dimension must equal the number of terms");
  }
  if (document >= NumDocuments()) {
    return Status::OutOfRange("Similarity: document index out of range");
  }
  double qnorm = query.Norm();
  if (qnorm == 0.0 || document_norms_[document] == 0.0) return 0.0;
  // The same sparse dot Search computes for this document's row.
  const std::size_t begin = documents_.row_offsets()[document];
  double dot = linalg::simd::SparseDot(
      documents_.values().data() + begin,
      documents_.col_indices().data() + begin,
      documents_.row_offsets()[document + 1] - begin, query.data());
  return dot / (qnorm * document_norms_[document]);
}

Result<std::vector<SearchResult>> VectorSpaceIndex::Search(
    const linalg::DenseVector& query, std::size_t top_k) const {
  if (query.size() != NumTerms()) {
    return Status::InvalidArgument(
        "Search: query dimension must equal the number of terms");
  }
  linalg::DenseVector dots = documents_.Multiply(query);  // A^T q
  double qnorm = query.Norm();
  std::vector<double> scores(NumDocuments(), 0.0);
  if (qnorm > 0.0) {
    for (std::size_t j = 0; j < scores.size(); ++j) {
      if (document_norms_[j] > 0.0) {
        scores[j] = dots[j] / (qnorm * document_norms_[j]);
      }
    }
  }
  return RankScores(scores, top_k);
}

}  // namespace lsi::core
