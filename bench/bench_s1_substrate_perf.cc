// Substrate performance: throughput of the kernels everything else sits
// on — sparse mat-vec, dense QR, random projection application, the text
// pipeline (tokenize + stop-words + Porter stemming), and alias-method
// sampling. Not a paper experiment; tracks regressions in the hot paths.

#include <cmath>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "linalg/dense_matrix.h"
#include "linalg/operators.h"
#include "linalg/qr.h"
#include "linalg/random_matrix.h"
#include "linalg/simd/simd.h"
#include "model/discrete_distribution.h"
#include "par/par.h"
#include "par/parallel_for.h"
#include "text/analyzer.h"

namespace {

void BM_SparseMatVec(benchmark::State& state) {
  lsi::model::SeparableModelParams params;
  params.num_topics = 10;
  params.terms_per_topic = 200;
  lsi::bench::BenchCorpus corpus = lsi::bench::MakeSeparableCorpus(
      params, static_cast<std::size_t>(state.range(0)), 777);
  lsi::linalg::DenseVector x(corpus.matrix.cols(), 1.0);
  for (auto _ : state) {
    auto y = corpus.matrix.Multiply(x);
    benchmark::DoNotOptimize(y);
  }
  state.counters["nnz"] = static_cast<double>(corpus.matrix.NumNonZeros());
}

void BM_SparseMatVecTranspose(benchmark::State& state) {
  lsi::model::SeparableModelParams params;
  params.num_topics = 10;
  params.terms_per_topic = 200;
  lsi::bench::BenchCorpus corpus = lsi::bench::MakeSeparableCorpus(
      params, static_cast<std::size_t>(state.range(0)), 778);
  lsi::linalg::SparseOperator op(corpus.matrix);
  lsi::linalg::DenseVector x(corpus.matrix.rows(), 1.0);
  for (auto _ : state) {
    auto y = op.ApplyTranspose(x);
    benchmark::DoNotOptimize(y);
  }
}

void BM_HouseholderQr(benchmark::State& state) {
  lsi::Rng rng(11);
  auto g = lsi::linalg::GaussianMatrix(
      static_cast<std::size_t>(state.range(0)), 120, rng);
  for (auto _ : state) {
    auto q = lsi::linalg::Orthonormalize(g);
    benchmark::DoNotOptimize(q);
  }
}

void BM_TextPipeline(benchmark::State& state) {
  // ~1 KiB of prose, analyzed repeatedly.
  std::string text;
  for (int i = 0; i < 12; ++i) {
    text +=
        "The spectral analysis of the term document matrix reveals the "
        "latent semantic structure hiding behind correlated words and "
        "their repeated usage patterns across documents in a corpus. ";
  }
  lsi::text::Analyzer analyzer;
  for (auto _ : state) {
    auto tokens = analyzer.Analyze(text);
    benchmark::DoNotOptimize(tokens);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}

void BM_AliasSampling(benchmark::State& state) {
  std::vector<double> weights(2000);
  lsi::Rng seed_rng(13);
  for (double& w : weights) w = seed_rng.Uniform(0.1, 5.0);
  auto dist = lsi::model::DiscreteDistribution::FromWeights(weights);
  lsi::Rng rng(17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dist->Sample(rng));
  }
}

// Serial-vs-parallel throughput of the lsi::par-threaded kernels. The
// second range argument is the thread count handed to par::SetThreads;
// the ci bench guard compares the 1-thread and 4-thread timings of these
// benchmarks. Each restores automatic thread resolution before exiting
// so the thread count never leaks into other benchmarks.

void BM_SparseMatVecThreads(benchmark::State& state) {
  lsi::model::SeparableModelParams params;
  params.num_topics = 10;
  params.terms_per_topic = 200;
  lsi::bench::BenchCorpus corpus = lsi::bench::MakeSeparableCorpus(
      params, static_cast<std::size_t>(state.range(0)), 777);
  lsi::linalg::DenseVector x(corpus.matrix.cols(), 1.0);
  lsi::par::SetThreads(static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    auto y = corpus.matrix.Multiply(x);
    benchmark::DoNotOptimize(y);
  }
  lsi::par::SetThreads(0);
  state.counters["nnz"] = static_cast<double>(corpus.matrix.NumNonZeros());
}

void BM_GramApplyThreads(benchmark::State& state) {
  // One A^T (A x) round trip — the inner loop of every Gram-side solver.
  lsi::model::SeparableModelParams params;
  params.num_topics = 10;
  params.terms_per_topic = 200;
  lsi::bench::BenchCorpus corpus = lsi::bench::MakeSeparableCorpus(
      params, static_cast<std::size_t>(state.range(0)), 779);
  lsi::linalg::SparseOperator op(corpus.matrix);
  lsi::linalg::GramOperator gram(op);
  lsi::linalg::DenseVector x(gram.cols(), 1.0);
  lsi::par::SetThreads(static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    auto y = gram.Apply(x);
    benchmark::DoNotOptimize(y);
  }
  lsi::par::SetThreads(0);
}

void BM_DenseGemmThreads(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  lsi::Rng rng(23);
  auto a = lsi::linalg::GaussianMatrix(n, n / 2, rng);
  auto b = lsi::linalg::GaussianMatrix(n / 2, n / 4, rng);
  lsi::par::SetThreads(static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    auto c = lsi::linalg::Multiply(a, b);
    benchmark::DoNotOptimize(c);
  }
  lsi::par::SetThreads(0);
}

// --- SIMD dispatch-path benchmarks -----------------------------------
//
// Each benchmark pins one lsi::simd path for its duration, so one run of
// this binary reports every path the host supports side by side; paths
// the host cannot execute are skipped (they stay visible in the JSON as
// errored entries, which the bench guard ignores). The per-PR BENCH
// trajectory and the scalar-vs-SIMD CI guard both read these numbers.

/// Pins `path` or skips the benchmark. Restores auto dispatch on scope
/// exit so the pin never leaks into other benchmarks.
class ScopedSimdPath {
 public:
  ScopedSimdPath(benchmark::State& state, lsi::linalg::simd::Path path)
      : ok_(lsi::linalg::simd::SetPath(path)) {
    if (!ok_) state.SkipWithError("simd path unsupported on this host");
  }
  ~ScopedSimdPath() { lsi::linalg::simd::ResetPath(); }
  bool ok() const { return ok_; }

 private:
  bool ok_;
};

// Cosine scoring over V_k D_k — the LsiEngine::Query / QueryBatch inner
// loop: one latent query vector against every document row, normalized
// by cached norms. range(0) = documents, range(1) = threads; the latent
// rank is fixed at 128 (a mid-size production rank).
void BM_CosineScoreThreads(benchmark::State& state,
                           lsi::linalg::simd::Path path) {
  const std::size_t docs = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kRank = 128;
  lsi::Rng rng(31);
  auto doc_vectors = lsi::linalg::GaussianMatrix(docs, kRank, rng);
  auto query = lsi::linalg::GaussianMatrix(1, kRank, rng);
  const double* q = query.RowPtr(0);
  ScopedSimdPath pin(state, path);
  if (!pin.ok()) return;
  std::vector<double> norms(docs);
  for (std::size_t j = 0; j < docs; ++j) {
    norms[j] = std::sqrt(
        lsi::linalg::simd::SquaredNorm(doc_vectors.RowPtr(j), kRank));
  }
  const double query_norm = std::sqrt(lsi::linalg::simd::SquaredNorm(q, kRank));
  std::vector<double> scores(docs, 0.0);
  lsi::par::SetThreads(static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    lsi::par::ParallelFor(
        0, docs, 256, [&](std::size_t begin, std::size_t end) {
          for (std::size_t j = begin; j < end; ++j) {
            scores[j] =
                lsi::linalg::simd::Dot(q, doc_vectors.RowPtr(j), kRank) /
                (query_norm * norms[j]);
          }
        });
    benchmark::DoNotOptimize(scores.data());
    benchmark::ClobberMemory();
  }
  lsi::par::SetThreads(0);
  state.counters["docs"] = static_cast<double>(docs);
}

// Raw dot-product kernel throughput at a serving-size rank.
void BM_SimdDot(benchmark::State& state, lsi::linalg::simd::Path path) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  lsi::Rng rng(37);
  auto data = lsi::linalg::GaussianMatrix(2, n, rng);
  ScopedSimdPath pin(state, path);
  if (!pin.ok()) return;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        lsi::linalg::simd::Dot(data.RowPtr(0), data.RowPtr(1), n));
  }
}

// CSR SpMV through the dispatch layer (gathered sparse dot per row).
void BM_SpmvPath(benchmark::State& state, lsi::linalg::simd::Path path) {
  lsi::model::SeparableModelParams params;
  params.num_topics = 10;
  params.terms_per_topic = 200;
  lsi::bench::BenchCorpus corpus = lsi::bench::MakeSeparableCorpus(
      params, static_cast<std::size_t>(state.range(0)), 777);
  lsi::linalg::DenseVector x(corpus.matrix.cols(), 1.0);
  ScopedSimdPath pin(state, path);
  if (!pin.ok()) return;
  lsi::par::SetThreads(1);
  for (auto _ : state) {
    auto y = corpus.matrix.Multiply(x);
    benchmark::DoNotOptimize(y);
  }
  lsi::par::SetThreads(0);
  state.counters["nnz"] = static_cast<double>(corpus.matrix.NumNonZeros());
}

// Dense GEMM panel micro-kernels through the dispatch layer.
void BM_GemmPath(benchmark::State& state, lsi::linalg::simd::Path path) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  lsi::Rng rng(23);
  auto a = lsi::linalg::GaussianMatrix(n, n / 2, rng);
  auto b = lsi::linalg::GaussianMatrix(n / 2, n / 4, rng);
  ScopedSimdPath pin(state, path);
  if (!pin.ok()) return;
  lsi::par::SetThreads(1);
  for (auto _ : state) {
    auto c = lsi::linalg::Multiply(a, b);
    benchmark::DoNotOptimize(c);
  }
  lsi::par::SetThreads(0);
}

}  // namespace

BENCHMARK(BM_SparseMatVec)->Arg(500)->Arg(2000)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_SparseMatVecTranspose)->Arg(500)->Arg(2000)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_HouseholderQr)->Arg(1000)->Arg(4000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TextPipeline)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_AliasSampling);
BENCHMARK(BM_SparseMatVecThreads)
    ->Args({2000, 1})->Args({2000, 4})->Args({2000, 8})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_GramApplyThreads)
    ->Args({2000, 1})->Args({2000, 4})->Args({2000, 8})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_DenseGemmThreads)
    ->Args({600, 1})->Args({600, 4})->Args({600, 8})
    ->Unit(benchmark::kMillisecond);

// Per-path variants: every path is registered on every host; paths the
// hardware cannot run error out via SkipWithError and the bench guard
// drops them, so one JSON schema covers x86, aarch64, and scalar-only.
using lsi::linalg::simd::Path;
BENCHMARK_CAPTURE(BM_CosineScoreThreads, scalar, Path::kScalar)
    ->Args({2000, 1})->Args({2000, 4})->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_CosineScoreThreads, avx2, Path::kAvx2)
    ->Args({2000, 1})->Args({2000, 4})->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_CosineScoreThreads, neon, Path::kNeon)
    ->Args({2000, 1})->Args({2000, 4})->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_SimdDot, scalar, Path::kScalar)->Arg(128)->Arg(4096);
BENCHMARK_CAPTURE(BM_SimdDot, avx2, Path::kAvx2)->Arg(128)->Arg(4096);
BENCHMARK_CAPTURE(BM_SimdDot, neon, Path::kNeon)->Arg(128)->Arg(4096);
BENCHMARK_CAPTURE(BM_SpmvPath, scalar, Path::kScalar)
    ->Arg(2000)->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_SpmvPath, avx2, Path::kAvx2)
    ->Arg(2000)->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_SpmvPath, neon, Path::kNeon)
    ->Arg(2000)->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_GemmPath, scalar, Path::kScalar)
    ->Arg(600)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_GemmPath, avx2, Path::kAvx2)
    ->Arg(600)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_GemmPath, neon, Path::kNeon)
    ->Arg(600)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
