#include "core/engine.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <unordered_map>

#include "common/fault.h"
#include "common/timer.h"
#include "linalg/matrix_io.h"
#include "linalg/simd/simd.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "par/parallel_for.h"

namespace lsi::core {
namespace {

using linalg::io_internal::AtomicFile;
using linalg::io_internal::FileHandle;
using linalg::io_internal::Reader;
using linalg::io_internal::Writer;

constexpr char kEngineMagic[4] = {'L', 'S', 'I', 'E'};
// Version 2: single-file layout (the index is embedded after the
// metadata section instead of living in a sibling "<path>.index" file,
// so one atomic rename publishes both), per-section CRC32C trailers.
constexpr std::uint64_t kFormatVersion = 2;

}  // namespace

LsiEngine::LsiEngine(LsiIndex index, Shared shared)
    : index_(std::move(index)) {
  for (std::size_t t = 0; t < shared.terms.size(); ++t) {
    shared.term_ids.emplace(shared.terms[t], t);
  }
  shared_ = std::make_shared<const Shared>(std::move(shared));
}

const std::string* LsiEngine::FindName(std::size_t document) const {
  const std::vector<std::string>& built = shared_->document_names;
  if (document < built.size()) return &built[document];
  document -= built.size();
  return document < folded_names_.size() ? &folded_names_[document] : nullptr;
}

Result<LsiEngine> LsiEngine::Build(const text::Corpus& corpus,
                                   const LsiEngineOptions& options) {
  if (corpus.NumDocuments() == 0 || corpus.NumTerms() == 0) {
    return Status::InvalidArgument("LsiEngine: empty corpus");
  }
  obs::ScopedSpan build_span("engine.build");
  obs::MetricsRegistry::Global().GetCounter("lsi.engine.builds").Increment();

  linalg::SparseMatrix matrix(0, 0);
  {
    obs::ScopedSpan span("weight");
    text::TermDocumentMatrixOptions matrix_options;
    matrix_options.scheme = options.weighting;
    LSI_ASSIGN_OR_RETURN(matrix,
                         text::BuildTermDocumentMatrix(corpus, matrix_options));
  }

  // LsiIndex::Build opens the "factor" and "project" child spans.
  LsiOptions lsi_options;
  lsi_options.rank = std::max<std::size_t>(
      1, std::min(options.rank, std::min(matrix.rows(), matrix.cols())));
  lsi_options.solver = options.solver;
  LSI_ASSIGN_OR_RETURN(LsiIndex index, LsiIndex::Build(matrix, lsi_options));

  std::vector<std::string> document_names;
  document_names.reserve(corpus.NumDocuments());
  for (std::size_t d = 0; d < corpus.NumDocuments(); ++d) {
    document_names.push_back(corpus.document(d).name());
  }
  return LsiEngine(
      std::move(index),
      {.weighting = options.weighting,
       .terms = corpus.vocabulary().terms(),
       .global_weights = text::ComputeGlobalWeights(corpus, options.weighting),
       .document_names = std::move(document_names)});
}

Result<std::vector<EngineHit>> LsiEngine::ToHits(
    Result<std::vector<SearchResult>> results) const {
  if (!results.ok()) return results.status();
  std::vector<EngineHit> hits;
  hits.reserve(results->size());
  for (const SearchResult& r : results.value()) {
    const std::string* name = FindName(r.document);
    hits.push_back({name != nullptr ? *name
                                    : "folded" + std::to_string(r.document),
                    r.document, r.score});
  }
  return hits;
}

Result<std::vector<EngineHit>> LsiEngine::Query(std::string_view query_text,
                                                std::size_t top_k) const {
  Timer latency;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("lsi.engine.queries").Increment();
  obs::ScopedSpan query_span("engine.query");

  std::vector<std::pair<std::size_t, std::size_t>> counts;
  {
    obs::ScopedSpan span("analyze");
    counts = AnalyzeQueryCounts(query_text);
  }

  Result<std::vector<EngineHit>> hits = std::vector<EngineHit>{};
  if (!counts.empty()) {
    linalg::DenseVector query(NumTerms(), 0.0);
    {
      obs::ScopedSpan span("weight");
      for (const auto& [term, count] : counts) {
        query[term] = text::LocalTermWeight(weighting(), count) *
                      shared_->global_weights[term];
      }
    }
    // LsiIndex::Search opens the "score" child span.
    hits = ToHits(index_.Search(query, top_k));
  }
  registry.GetHistogram("lsi.engine.query.latency_ms")
      .Observe(latency.ElapsedMillis());
  return hits;
}

std::vector<std::pair<std::size_t, std::size_t>> LsiEngine::AnalyzeQueryCounts(
    std::string_view query_text) const {
  std::map<std::size_t, std::size_t> counts;
  for (const std::string& token : shared_->analyzer.Analyze(query_text)) {
    auto it = shared_->term_ids.find(token);
    if (it != shared_->term_ids.end()) counts[it->second]++;
  }
  return {counts.begin(), counts.end()};  // std::map iterates sorted by id.
}

Result<std::vector<std::vector<EngineHit>>> LsiEngine::QueryBatch(
    const std::vector<std::string>& queries, std::size_t top_k) const {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("lsi.engine.batch_queries").Increment();
  registry.GetCounter("lsi.engine.batch_query_items").Increment(queries.size());
  // No enclosing span: each query records its usual "engine.query" span,
  // and span paths thread-locally nest — a batch span would prefix only
  // the queries that happen to run on the submitting thread.
  std::vector<Result<std::vector<EngineHit>>> per_query(
      queries.size(), std::vector<EngineHit>{});
  par::ParallelFor(0, queries.size(), 1,
                   [&](std::size_t begin, std::size_t end) {
                     for (std::size_t i = begin; i < end; ++i) {
                       per_query[i] = Query(queries[i], top_k);
                     }
                   });
  std::vector<std::vector<EngineHit>> hits;
  hits.reserve(queries.size());
  for (Result<std::vector<EngineHit>>& result : per_query) {
    if (!result.ok()) return result.status();
    hits.push_back(std::move(result).value());
  }
  return hits;
}

Result<std::vector<EngineHit>> LsiEngine::MoreLikeThis(
    std::size_t document, std::size_t top_k) const {
  obs::ScopedSpan span("engine.more_like_this");
  obs::MetricsRegistry::Global()
      .GetCounter("lsi.engine.more_like_this_calls")
      .Increment();
  if (document >= NumDocuments()) {
    return Status::OutOfRange("MoreLikeThis: document index out of range");
  }
  return ToHits(
      index_.SearchLatent(index_.DocumentVector(document), top_k, document));
}

Result<std::vector<RelatedTerm>> LsiEngine::RelatedTerms(
    std::string_view term, std::size_t top_k) const {
  obs::ScopedSpan span("engine.related_terms");
  obs::MetricsRegistry::Global()
      .GetCounter("lsi.engine.related_terms_calls")
      .Increment();
  std::vector<std::string> analyzed = shared_->analyzer.Analyze(term);
  if (analyzed.size() != 1) {
    return Status::InvalidArgument(
        "RelatedTerms expects a single content word");
  }
  auto it = shared_->term_ids.find(analyzed[0]);
  if (it == shared_->term_ids.end()) {
    return Status::NotFound("term not in the corpus: " + analyzed[0]);
  }
  const std::size_t anchor = it->second;

  linalg::DenseMatrix term_vectors = index_.TermVectors();
  linalg::DenseVector anchor_vector = term_vectors.Row(anchor);
  const std::size_t k = term_vectors.cols();
  double anchor_norm = anchor_vector.Norm();
  // Guard terms that fold to numerically nothing (cf. LsiIndex::Search).
  double max_norm = 0.0;
  std::vector<double> norms(NumTerms(), 0.0);
  for (std::size_t t = 0; t < NumTerms(); ++t) {
    norms[t] = std::sqrt(linalg::simd::SquaredNorm(term_vectors.RowPtr(t), k));
    max_norm = std::max(max_norm, norms[t]);
  }
  const double floor = 1e-12 * max_norm;
  std::vector<double> scores(NumTerms(), -2.0);
  if (anchor_norm > floor) {
    for (std::size_t t = 0; t < NumTerms(); ++t) {
      if (t == anchor || norms[t] <= floor) continue;
      scores[t] = linalg::simd::Dot(anchor_vector.data(),
                                    term_vectors.RowPtr(t), k) /
                  (anchor_norm * norms[t]);
    }
  }
  auto ranked = RankScores(scores, top_k);
  std::vector<RelatedTerm> related;
  related.reserve(ranked.size());
  for (const SearchResult& r : ranked) {
    if (r.score <= -2.0) continue;
    related.push_back({shared_->terms[r.document], r.score});
  }
  return related;
}

Result<LsiEngine::FoldInResult> LsiEngine::FoldInDocument(
    std::string_view name, std::string_view text) {
  linalg::DenseVector vec(NumTerms(), 0.0);
  for (const auto& [term, count] : AnalyzeQueryCounts(text)) {
    vec[term] = text::LocalTermWeight(weighting(), count) *
                shared_->global_weights[term];
  }
  FoldInResult result;
  LSI_ASSIGN_OR_RETURN(result.document,
                       index_.FoldInDocument(vec, &result.residual_angle));
  folded_names_.emplace_back(name);
  return result;
}

Status LsiEngine::RemoveDocument(std::size_t document) {
  return index_.MarkDeleted(document);
}

Result<std::string> LsiEngine::DocumentName(std::size_t document) const {
  const std::string* name = FindName(document);
  if (name == nullptr) {
    return Status::OutOfRange("DocumentName: index out of range");
  }
  return *name;
}

Status LsiEngine::Save(const std::string& path) const {
  if (LSI_FAULT_POINT("core.engine.save")) {
    return fault::InjectedFailure("core.engine.save");
  }
  AtomicFile file(path);
  if (!file.ok()) {
    return Status::InvalidArgument("cannot open for write: " + path + ".tmp");
  }
  Writer& writer = file.writer();
  LSI_RETURN_IF_ERROR(writer.WriteBytes(kEngineMagic, 4));
  LSI_RETURN_IF_ERROR(writer.WriteU64(kFormatVersion));
  writer.BeginSection();
  LSI_RETURN_IF_ERROR(
      writer.WriteU64(static_cast<std::uint64_t>(weighting())));
  LSI_RETURN_IF_ERROR(writer.WriteU64(shared_->terms.size()));
  for (const std::string& term : shared_->terms) {
    LSI_RETURN_IF_ERROR(writer.WriteString(term));
  }
  LSI_RETURN_IF_ERROR(writer.WriteDoubles(shared_->global_weights.data(),
                                          shared_->global_weights.size()));
  LSI_RETURN_IF_ERROR(writer.WriteU64(shared_->document_names.size() +
                                      folded_names_.size()));
  for (std::size_t d = 0; FindName(d) != nullptr; ++d) {
    LSI_RETURN_IF_ERROR(writer.WriteString(*FindName(d)));
  }
  LSI_RETURN_IF_ERROR(writer.EndSection());
  LSI_RETURN_IF_ERROR(index_.WriteTo(writer));
  return file.Commit();
}

Result<LsiEngine> LsiEngine::Load(const std::string& path) {
  if (LSI_FAULT_POINT("core.engine.load")) {
    return fault::InjectedFailure("core.engine.load");
  }
  FileHandle file(path, "rb");
  if (!file.ok()) return Status::NotFound("cannot open for read: " + path);
  Reader reader(file.get());
  char magic[4];
  LSI_RETURN_IF_ERROR(reader.ReadBytes(magic, 4));
  if (std::memcmp(magic, kEngineMagic, 4) != 0) {
    return Status::InvalidArgument("not an LsiEngine file: " + path);
  }
  LSI_ASSIGN_OR_RETURN(std::uint64_t version, reader.ReadU64());
  if (version == 1) {
    return Status::InvalidArgument(
        "LsiEngine format version 1 predates the single-file checksummed "
        "layout; rebuild and re-save with this build");
  }
  if (version != kFormatVersion) {
    return Status::InvalidArgument("unsupported LsiEngine format version");
  }
  reader.BeginSection();
  LSI_ASSIGN_OR_RETURN(std::uint64_t weighting_raw, reader.ReadU64());
  if (weighting_raw >
      static_cast<std::uint64_t>(text::WeightingScheme::kLogEntropy)) {
    return Status::InvalidArgument("unknown weighting scheme in file");
  }
  LSI_ASSIGN_OR_RETURN(std::uint64_t num_terms, reader.ReadU64());
  std::uint64_t weight_bytes = 0;
  if (__builtin_mul_overflow(num_terms, sizeof(double), &weight_bytes) ||
      weight_bytes > reader.remaining()) {
    return Status::InvalidArgument("term count implausible");
  }
  std::vector<std::string> terms;
  terms.reserve(num_terms);
  for (std::uint64_t t = 0; t < num_terms; ++t) {
    LSI_ASSIGN_OR_RETURN(std::string term, reader.ReadString());
    terms.push_back(std::move(term));
  }
  std::vector<double> global_weights(num_terms);
  LSI_RETURN_IF_ERROR(reader.ReadDoubles(global_weights.data(), num_terms));
  LSI_ASSIGN_OR_RETURN(std::uint64_t num_docs, reader.ReadU64());
  // Each document contributes at least a length prefix to this section.
  if (num_docs > reader.remaining() / sizeof(std::uint64_t)) {
    return Status::InvalidArgument("document count implausible");
  }
  std::vector<std::string> document_names;
  document_names.reserve(num_docs);
  for (std::uint64_t d = 0; d < num_docs; ++d) {
    LSI_ASSIGN_OR_RETURN(std::string name, reader.ReadString());
    document_names.push_back(std::move(name));
  }
  LSI_RETURN_IF_ERROR(reader.EndSection());

  LSI_ASSIGN_OR_RETURN(LsiIndex index, LsiIndex::ReadFrom(reader));
  if (index.NumTerms() != terms.size()) {
    return Status::InvalidArgument(
        "LsiEngine metadata does not match its embedded index");
  }
  return LsiEngine(
      std::move(index),
      {.weighting = static_cast<text::WeightingScheme>(weighting_raw),
       .terms = std::move(terms),
       .global_weights = std::move(global_weights),
       .document_names = std::move(document_names)});
}

std::vector<EngineHit> MergeTopKHits(
    std::vector<std::vector<EngineHit>> sources, std::size_t top_k) {
  std::vector<EngineHit> merged;
  std::size_t total = 0;
  for (const auto& source : sources) total += source.size();
  merged.reserve(total);
  for (auto& source : sources) {
    for (EngineHit& hit : source) merged.push_back(std::move(hit));
  }
  std::sort(merged.begin(), merged.end(),
            [](const EngineHit& a, const EngineHit& b) {
              if (a.score != b.score) return a.score > b.score;
              if (a.document != b.document) return a.document < b.document;
              return a.document_name < b.document_name;
            });
  if (top_k != 0 && merged.size() > top_k) merged.resize(top_k);
  return merged;
}

}  // namespace lsi::core
