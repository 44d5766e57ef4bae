#ifndef LSI_CORE_VECTOR_SPACE_INDEX_H_
#define LSI_CORE_VECTOR_SPACE_INDEX_H_

#include <vector>

#include "common/result.h"
#include "core/lsi_index.h"
#include "linalg/dense_vector.h"
#include "linalg/sparse_matrix.h"

namespace lsi::core {

/// The "conventional vector-based method" the paper compares LSI against:
/// documents and queries are raw term-space vectors, retrieval ranks by
/// cosine similarity in term space. No latent structure, so synonymy and
/// polysemy hit it head-on.
class VectorSpaceIndex {
 public:
  /// Builds the index over a term-document matrix (rows terms, columns
  /// documents). Fails on an empty matrix.
  static Result<VectorSpaceIndex> Build(
      const linalg::SparseMatrix& term_document);

  std::size_t NumTerms() const { return documents_.cols(); }
  std::size_t NumDocuments() const { return documents_.rows(); }

  /// Cosine similarity of `query` (term-space, dimension n) with
  /// document j.
  Result<double> Similarity(const linalg::DenseVector& query,
                            std::size_t document) const;

  /// Ranks all documents by cosine similarity to `query` in term space;
  /// returns the best `top_k` (all if 0).
  Result<std::vector<SearchResult>> Search(const linalg::DenseVector& query,
                                           std::size_t top_k = 0) const;

 private:
  explicit VectorSpaceIndex(linalg::SparseMatrix documents);

  // A^T: row j is document j, so scoring is a row gather.
  linalg::SparseMatrix documents_;
  std::vector<double> document_norms_;
};

}  // namespace lsi::core

#endif  // LSI_CORE_VECTOR_SPACE_INDEX_H_
