#ifndef LSI_CORE_LSI_INDEX_H_
#define LSI_CORE_LSI_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "linalg/dense_matrix.h"
#include "linalg/dense_vector.h"
#include "linalg/gkl_svd.h"
#include "linalg/sparse_matrix.h"
#include "linalg/svd.h"

namespace lsi::linalg::io_internal {
class Reader;
class Writer;
}  // namespace lsi::linalg::io_internal

namespace lsi::core {

/// One ranked retrieval hit.
struct SearchResult {
  std::size_t document = 0;
  double score = 0.0;
};

/// Which truncated-SVD backend LsiIndex uses.
enum class SvdSolver {
  /// Symmetric Lanczos on the Gram operator with full
  /// reorthogonalization — the default; plays the role of SVDPACK in
  /// the paper's experiments.
  kLanczos,
  /// Randomized subspace iteration (Halko et al.) — faster, slightly
  /// less accurate on clustered spectra.
  kRandomized,
  /// Dense one-sided Jacobi — exact, cubic; for small matrices and tests.
  kJacobi,
  /// Golub-Kahan-Lanczos bidiagonalization — avoids squaring the
  /// condition number; best when small singular values matter.
  kGkl,
};

/// Options for building an LsiIndex.
struct LsiOptions {
  /// The k of rank-k LSI: dimensionality of the latent space. "It should
  /// be small enough to enable fast retrieval and large enough to
  /// adequately capture the structure of the corpus" (§2).
  std::size_t rank = 100;
  SvdSolver solver = SvdSolver::kLanczos;
  linalg::LanczosSvdOptions lanczos;
  linalg::RandomizedSvdOptions randomized;
  linalg::GklSvdOptions gkl;
};

/// A rank-k latent semantic index over a term-document matrix A (§2).
///
/// Computes A_k = U_k D_k V_k^T and represents document j by row j of
/// V_k D_k (equivalently U_k^T a_j). Queries are folded into the same
/// space by q |-> U_k^T q, and retrieval ranks documents by cosine
/// similarity in the latent space.
/// Copies share what Build/Load produced (factors, rows, norms) and own
/// only the rows folded in since and a one-byte-per-document tombstone
/// mask; a copy that tombstones most documents scores only the rest.
class LsiIndex {
 public:
  /// Builds the index from a sparse term-document matrix (rows terms,
  /// columns documents). Fails if rank is 0 or exceeds min(n, m), or if
  /// the SVD solver fails.
  static Result<LsiIndex> Build(const linalg::SparseMatrix& term_document,
                                const LsiOptions& options = {});

  /// Builds from a dense matrix (used by the two-step random-projection
  /// pipeline, whose projected matrix is dense).
  static Result<LsiIndex> Build(const linalg::DenseMatrix& term_document,
                                const LsiOptions& options = {});

  /// Reconstructs an index from a caller-supplied truncated SVD — the
  /// deserialization/advanced-use entry point. Fails on inconsistent
  /// factor shapes.
  static Result<LsiIndex> FromSvd(linalg::SvdResult svd);

  std::size_t rank() const { return built_->svd.rank(); }
  std::size_t NumTerms() const { return built_->svd.u.rows(); }

  /// Number of document ids, including fold-ins after the build (so this
  /// can exceed svd().v.rows()) and tombstoned documents.
  std::size_t NumDocuments() const { return deleted_.size(); }

  /// The i-th retained singular value.
  double SingularValue(std::size_t i) const;

  /// The rows Build/Load produced: row j is document j's latent vector
  /// (V_k D_k, dimension k). DocumentVector(j) also sees later changes.
  const linalg::DenseMatrix& document_vectors() const {
    return built_->document_vectors;
  }

  /// Copy of document j's latent vector (zero once j is tombstoned).
  linalg::DenseVector DocumentVector(std::size_t j) const;

  /// Term representations: row t is term t's latent vector (U_k D_k).
  /// Synonymous terms end up with nearly parallel rows (§4, Synonymy).
  linalg::DenseMatrix TermVectors() const;

  /// Folds a term-space query vector (dimension n) into the latent
  /// space: returns U_k^T q. Fails on dimension mismatch.
  Result<linalg::DenseVector> FoldInQuery(
      const linalg::DenseVector& query) const;

  /// Ranks all live documents by cosine similarity to `query` (a term-space
  /// vector) in the latent space; returns the best `top_k` (all if 0).
  Result<std::vector<SearchResult>> Search(const linalg::DenseVector& query,
                                           std::size_t top_k = 0) const;

  /// Search() for a vector already in the latent space (dimension k),
  /// skipping document `exclude`. Like a document, the vector scores
  /// nothing when its norm is at most 1e-12 of the largest row norm.
  Result<std::vector<SearchResult>> SearchLatent(
      const linalg::DenseVector& latent, std::size_t top_k = 0,
      std::size_t exclude = SIZE_MAX) const;

  /// Folds a new document into the existing latent space WITHOUT
  /// recomputing the SVD (the classic LSI "folding-in" update): the
  /// document becomes searchable immediately, represented by U_k^T d.
  /// Quality degrades as folded documents shift the corpus statistics;
  /// rebuild periodically. Returns the new document's index.
  ///
  /// When `residual_angle` is non-null it receives the angle (radians)
  /// between the document and its projection onto span(U_k) — 0 when
  /// the document lies entirely inside the latent subspace, pi/2 when
  /// it is orthogonal to it. This is the per-document drift signal the
  /// live layer aggregates to decide when a re-SVD is due (the paper's
  /// §4 perturbation analysis bounds subspace quality in exactly these
  /// terms). A zero document reports 0 (it is represented exactly).
  Result<std::size_t> FoldInDocument(const linalg::DenseVector& term_vector,
                                     double* residual_angle = nullptr);

  /// The mean, over the documents Build factored, of the residual angle
  /// FoldInDocument reports for a document's own column a_j:
  /// acos(||U_k^T a_j|| / ||a_j||), 0 for a zero column. It is the drift
  /// baseline: typical documents keep a large residual outside span(U_k)
  /// (about 1 rad for 50-100 term documents at k = 100), so fold-ins are
  /// compared with it, not with 0. 0 for an index from Load or FromSvd.
  double MeanBuiltResidualAngle() const { return built_->mean_residual_angle; }

  /// Number of documents folded in since the build.
  std::size_t NumFoldedDocuments() const {
    return NumDocuments() - svd().v.rows();
  }

  /// Tombstones document `j`: sets its mask byte, so it is excluded from
  /// every ranking and its vector reads as zero. Other documents' scores
  /// do not change. Idempotent. Deletion marks are an in-memory overlay —
  /// Save() writes the row as zeros but not the flag (rebuild the overlay
  /// from the system of record, e.g. the live layer's WAL, after Load()).
  Status MarkDeleted(std::size_t j);

  /// True when document `j` has been tombstoned by MarkDeleted().
  bool IsDeleted(std::size_t j) const {
    return j < deleted_.size() && deleted_[j] != 0;
  }

  /// Number of tombstoned documents.
  std::size_t NumDeleted() const { return num_deleted_; }

  /// Serializes the index (SVD factors + document vectors, including
  /// folded-in ones) to a binary file. Crash-safe: writes `path + ".tmp"`
  /// and renames it into place, so `path` always holds either the old
  /// index or the complete new one.
  Status Save(const std::string& path) const;

  /// Loads an index written by Save(). Corruption anywhere in the file —
  /// truncation, bit flips, implausible headers — comes back as
  /// InvalidArgument, never a crash (every section carries a CRC32C
  /// trailer).
  static Result<LsiIndex> Load(const std::string& path);

  /// Streams the index body (versioned header, SVD factors, document
  /// vectors) into an open writer / back out of an open reader — the
  /// building blocks Save/Load and the engine's single-file format
  /// share.
  Status WriteTo(linalg::io_internal::Writer& writer) const;
  static Result<LsiIndex> ReadFrom(linalg::io_internal::Reader& reader);

  /// The underlying truncated SVD.
  const linalg::SvdResult& svd() const { return built_->svd; }

 private:
  // What Build/Load produce; shared by every copy, never written after.
  struct Built {
    linalg::SvdResult svd;
    linalg::DenseMatrix document_vectors;
    std::vector<double> document_norms;
    double mean_residual_angle = 0.0;
  };

  // Empty `document_vectors` projects V_k D_k from the factors. Non-empty
  // `column_norms` (||a_j|| of the factored matrix) sets the mean residual.
  explicit LsiIndex(linalg::SvdResult svd,
                    linalg::DenseMatrix document_vectors = {},
                    const std::vector<double>& column_norms = {});

  const double* Row(std::size_t j) const;
  double RowNorm(std::size_t j) const;
  // The one scoring loop: ranks live documents other than `exclude` by
  // cosine to `latent`, which scores 0 unless its norm exceeds the floor.
  std::vector<SearchResult> Rank(const linalg::DenseVector& latent,
                                 double latent_floor, std::size_t exclude,
                                 std::size_t top_k) const;

  std::shared_ptr<const Built> built_;
  // Owned by this copy: rows folded in since Build/Load and their norms.
  linalg::DenseMatrix folded_vectors_;
  std::vector<double> folded_norms_;
  // Max row norm, used to zero out documents that fold to nothing. It
  // never falls on delete, so a delete cannot move another's score.
  double max_document_norm_ = 0.0;
  // Tombstone mask, one byte per id (not serialized; see MarkDeleted).
  std::vector<std::uint8_t> deleted_;
  std::size_t num_deleted_ = 0;
};

/// Ranks `scores` and returns the top_k indices by descending score
/// (all when top_k == 0). Shared by the index implementations.
std::vector<SearchResult> RankScores(const std::vector<double>& scores,
                                     std::size_t top_k);

}  // namespace lsi::core

#endif  // LSI_CORE_LSI_INDEX_H_
