// Corpus and request synthesis from the paper's own corpus model
// (src/model): the ε-separable pure-topic model of §4, scaled up to
// 100 topics × 200 primary terms. Every draw is a pure function of
// (seed, stream, index), so any request can be regenerated by index and
// generation parallelizes without changing the result.

#ifndef LSIBENCH_SYNTH_H_
#define LSIBENCH_SYNTH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "model/corpus_model.h"
#include "text/corpus.h"

namespace lsibench {

inline constexpr std::size_t kTopics = 100;
inline constexpr std::size_t kTermsPerTopic = 200;
inline constexpr double kEpsilon = 0.05;
inline constexpr std::size_t kMinDocLength = 50;
inline constexpr std::size_t kMaxDocLength = 100;
inline constexpr std::size_t kQueryTerms = 5;

/// Independent random streams drawn from one workload seed.
enum class Stream : std::uint64_t {
  kBaseDocument = 1,  // Document i of the base corpus.
  kQuery = 2,         // Fresh query i.
  kWriteDocument = 3, // Text of live write i.
  kPool = 4,          // The Zipf query pool and its popularity order.
  kArrivals = 5,      // Open-loop inter-arrival gaps and Zipf draws.
  kWriteTarget = 6,   // Which document an update/delete names.
  kSample = 7,        // Which responses the oracle checks.
  kThink = 8,         // Closed-loop think time before request i.
};

lsi::Rng StreamRng(std::uint64_t seed, Stream stream, std::uint64_t index);

class Synth {
 public:
  explicit Synth(std::uint64_t seed);

  /// The first `documents` documents of the base stream as a tokenized
  /// corpus named d0, d1, ... (the analyzer maps each generated text to
  /// exactly these tokens; CheckAnalyzerIdentity verifies it).
  lsi::text::Corpus BaseCorpus(std::size_t documents) const;

  /// Space-separated text of a model-sampled document.
  std::string DocumentText(Stream stream, std::uint64_t index) const;

  /// A query: kQueryTerms terms drawn from one uniformly chosen topic.
  std::string QueryText(Stream stream, std::uint64_t index) const;

  /// True when the analyzer turns a few generated texts into exactly
  /// their generated tokens, i.e. the token corpus equals the analyzed
  /// text corpus.
  bool CheckAnalyzerIdentity() const;

 private:
  std::vector<lsi::text::TermId> DocumentTerms(Stream stream,
                                               std::uint64_t index) const;
  std::string Join(const std::vector<lsi::text::TermId>& terms) const;

  std::uint64_t seed_;
  lsi::model::CorpusModel model_;
  std::vector<std::string> names_;  // Universe index -> term text.
};

/// Zipf(s) sampler over ranks [0, n).
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  std::size_t Sample(lsi::Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

}  // namespace lsibench

#endif  // LSIBENCH_SYNTH_H_
