#include "synth.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "model/separable_model.h"
#include "text/analyzer.h"

namespace lsibench {
namespace {

std::uint64_t SplitMix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

lsi::model::CorpusModel MakeModel() {
  lsi::model::SeparableModelParams params;
  params.num_topics = kTopics;
  params.terms_per_topic = kTermsPerTopic;
  params.epsilon = kEpsilon;
  params.min_document_length = kMinDocLength;
  params.max_document_length = kMaxDocLength;
  auto model = lsi::model::BuildSeparableModel(params);
  if (!model.ok()) {
    std::fprintf(stderr, "lsibench: model: %s\n",
                 model.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(model).value();
}

}  // namespace

lsi::Rng StreamRng(std::uint64_t seed, Stream stream, std::uint64_t index) {
  return lsi::Rng(SplitMix(SplitMix(SplitMix(seed) ^
                                    static_cast<std::uint64_t>(stream)) ^
                           index));
}

Synth::Synth(std::uint64_t seed) : seed_(seed), model_(MakeModel()) {
  names_.reserve(model_.UniverseSize());
  char buffer[32];
  for (std::size_t t = 0; t < model_.UniverseSize(); ++t) {
    std::snprintf(buffer, sizeof buffer, "term%05zu", t);
    names_.emplace_back(buffer);
  }
}

std::vector<lsi::text::TermId> Synth::DocumentTerms(
    Stream stream, std::uint64_t index) const {
  lsi::Rng rng = StreamRng(seed_, stream, index);
  auto document = model_.GenerateDocument(rng);
  if (!document.ok()) {
    std::fprintf(stderr, "lsibench: document: %s\n",
                 document.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(document->first);
}

std::string Synth::Join(const std::vector<lsi::text::TermId>& terms) const {
  std::string text;
  text.reserve(terms.size() * 10);
  for (lsi::text::TermId term : terms) {
    if (!text.empty()) text += ' ';
    text += names_[term];
  }
  return text;
}

std::string Synth::DocumentText(Stream stream, std::uint64_t index) const {
  return Join(DocumentTerms(stream, index));
}

std::string Synth::QueryText(Stream stream, std::uint64_t index) const {
  lsi::Rng rng = StreamRng(seed_, stream, index);
  const auto& topic =
      model_.topic(static_cast<std::size_t>(rng.NextUint64Below(kTopics)));
  std::vector<lsi::text::TermId> terms;
  for (std::size_t i = 0; i < kQueryTerms; ++i) terms.push_back(topic.Sample(rng));
  return Join(terms);
}

lsi::text::Corpus Synth::BaseCorpus(std::size_t documents) const {
  // Sampling dominates; it runs on plain threads (not the lsi::par pool,
  // whose counters the traced run reads) and the corpus is assembled in
  // document order afterwards.
  std::vector<std::vector<lsi::text::TermId>> terms(documents);
  const std::size_t workers = 4;
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      for (std::size_t d = w; d < documents; d += workers) {
        terms[d] = DocumentTerms(Stream::kBaseDocument, d);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  // Pre-register the universe so term ids equal universe indices, the
  // layout CorpusModel::GenerateCorpus uses.
  lsi::text::Corpus corpus;
  for (const std::string& name : names_) corpus.AddTerm(name);
  for (std::size_t d = 0; d < documents; ++d) {
    auto added =
        corpus.AddDocumentFromIds("d" + std::to_string(d), std::move(terms[d]));
    if (!added.ok()) {
      std::fprintf(stderr, "lsibench: corpus: %s\n",
                   added.status().ToString().c_str());
      std::exit(1);
    }
  }
  return corpus;
}

bool Synth::CheckAnalyzerIdentity() const {
  const lsi::text::Analyzer analyzer;
  for (std::uint64_t d = 0; d < 8; ++d) {
    const std::vector<lsi::text::TermId> terms =
        DocumentTerms(Stream::kBaseDocument, d);
    const std::vector<std::string> tokens = analyzer.Analyze(Join(terms));
    if (tokens.size() != terms.size()) return false;
    for (std::size_t i = 0; i < terms.size(); ++i) {
      if (tokens[i] != names_[terms[i]]) return false;
    }
  }
  return true;
}

Zipf::Zipf(std::size_t n, double s) : cdf_(n) {
  double total = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::size_t Zipf::Sample(lsi::Rng& rng) const {
  const double u = rng.NextDouble();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1);
}

}  // namespace lsibench
