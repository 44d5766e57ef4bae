#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/engine.h"
#include "core/lsi_index.h"
#include "par/par.h"
#include "test_util.h"
#include "text/analyzer.h"

namespace lsi::core {
namespace {

using linalg::DenseVector;

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

LsiIndex BuildSmall() {
  linalg::SparseMatrixBuilder builder(6, 5);
  Rng rng(77);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      if (rng.Bernoulli(0.5)) builder.Add(i, j, rng.Uniform(0.5, 3.0));
    }
  }
  LsiOptions options;
  options.rank = 3;
  options.solver = SvdSolver::kJacobi;
  return LsiIndex::Build(builder.Build(), options).value();
}

text::Corpus TwoTopicCorpus() {
  text::Analyzer analyzer;
  text::Corpus corpus;
  corpus.AddDocument("space1",
                     analyzer.Analyze("rocket moon orbit astronauts"));
  corpus.AddDocument("space2", analyzer.Analyze("astronauts orbit stars"));
  corpus.AddDocument("food1", analyzer.Analyze("garlic tomato pasta sauce"));
  corpus.AddDocument("food2", analyzer.Analyze("bread garlic butter pasta"));
  return corpus;
}

LsiEngineOptions SmallEngineOptions() {
  LsiEngineOptions options;
  options.rank = 2;
  options.solver = SvdSolver::kJacobi;
  return options;
}

TEST(FoldInEdgeTest, EmptyDocumentFoldsInWithZeroAngle) {
  LsiIndex index = BuildSmall();
  double angle = -1.0;
  auto appended = index.FoldInDocument(DenseVector(6, 0.0), &angle);
  ASSERT_TRUE(appended.ok());
  // A zero document has no residual by definition (angle 0, not NaN).
  EXPECT_EQ(angle, 0.0);
  EXPECT_EQ(index.NumDocuments(), 6u);
  // It can never match any query, but searching must not blow up on the
  // zero norm.
  DenseVector query(6, 1.0);
  auto results = index.Search(query, 6);
  ASSERT_TRUE(results.ok());
  for (const SearchResult& r : results.value()) {
    if (r.document == appended.value()) {
      EXPECT_EQ(r.score, 0.0);
    }
  }
}

TEST(FoldInEdgeTest, AllOovDocumentFoldsToZeroVector) {
  auto engine = LsiEngine::Build(TwoTopicCorpus(), SmallEngineOptions());
  ASSERT_TRUE(engine.ok());
  auto fold = engine->FoldInDocument("oov", "xylophone quasar marmalade");
  ASSERT_TRUE(fold.ok()) << fold.status().ToString();
  EXPECT_EQ(fold->residual_angle, 0.0);
  auto name = engine->DocumentName(fold->document);
  ASSERT_TRUE(name.ok());
  EXPECT_EQ(name.value(), "oov");
  // Its stored document vector is exactly zero.
  const DenseVector stored = engine->index().DocumentVector(fold->document);
  for (std::size_t i = 0; i < stored.size(); ++i) {
    EXPECT_EQ(stored[i], 0.0);
  }
}

TEST(FoldInEdgeTest, ResidualAngleIsBoundedAndMonotoneInNovelty) {
  auto engine = LsiEngine::Build(TwoTopicCorpus(), SmallEngineOptions());
  ASSERT_TRUE(engine.ok());
  // A verbatim copy of an indexed document lies (almost) in the rank-k
  // subspace; a cross-topic blend sticks further out of it.
  auto in_span =
      engine->FoldInDocument("copy", "rocket moon orbit astronauts");
  auto blended = engine->FoldInDocument("blend", "rocket garlic");
  ASSERT_TRUE(in_span.ok() && blended.ok());
  EXPECT_GE(in_span->residual_angle, 0.0);
  EXPECT_LE(in_span->residual_angle, 3.14159265358979 / 2.0 + 1e-12);
  EXPECT_GE(blended->residual_angle, 0.0);
  EXPECT_LE(blended->residual_angle, 3.14159265358979 / 2.0 + 1e-12);
}

TEST(FoldInEdgeTest, FoldInAfterLoadFromDiskMatchesInMemory) {
  const std::string path = TempPath("fold_after_load.bin");
  auto engine = LsiEngine::Build(TwoTopicCorpus(), SmallEngineOptions());
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine->Save(path).ok());
  auto loaded = LsiEngine::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  auto in_memory = engine->FoldInDocument("new", "astronauts pasta orbit");
  auto from_disk = loaded->FoldInDocument("new", "astronauts pasta orbit");
  ASSERT_TRUE(in_memory.ok() && from_disk.ok());
  EXPECT_EQ(in_memory->document, from_disk->document);
  EXPECT_DOUBLE_EQ(in_memory->residual_angle, from_disk->residual_angle);
  const DenseVector a = engine->index().DocumentVector(in_memory->document);
  const DenseVector b = loaded->index().DocumentVector(from_disk->document);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  std::remove(path.c_str());
}

TEST(FoldInEdgeTest, FoldInIsDeterministicAcrossThreadCounts) {
  const std::size_t restore = par::Threads();
  std::vector<double> angles;
  std::vector<DenseVector> vectors;
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    par::SetThreads(threads);
    auto engine = LsiEngine::Build(TwoTopicCorpus(), SmallEngineOptions());
    ASSERT_TRUE(engine.ok());
    auto fold = engine->FoldInDocument("new", "astronauts garlic orbit");
    ASSERT_TRUE(fold.ok());
    angles.push_back(fold->residual_angle);
    vectors.push_back(engine->index().DocumentVector(fold->document));
  }
  par::SetThreads(restore);
  ASSERT_EQ(angles.size(), 2u);
  EXPECT_EQ(angles[0], angles[1]);
  ASSERT_EQ(vectors[0].size(), vectors[1].size());
  for (std::size_t i = 0; i < vectors[0].size(); ++i) {
    EXPECT_EQ(vectors[0][i], vectors[1][i]) << "component " << i;
  }
}

TEST(FoldInEdgeTest, SearchIsDeterministicAcrossThreadCounts) {
  // k = 64 makes the scoring grain 1024 slots, so with 1500 built rows and
  // 100 folded ones a grain spans the built/folded boundary; tombstones on
  // both sides of it shift which ids each grain scores.
  constexpr std::size_t kTerms = 80, kRank = 64, kBuilt = 1500;
  Rng rng(2024);
  linalg::SvdResult svd;
  svd.u = linalg::DenseMatrix(kTerms, kRank);
  svd.v = linalg::DenseMatrix(kBuilt, kRank);
  svd.singular_values = DenseVector(kRank);
  for (std::size_t i = 0; i < kRank; ++i) {
    svd.singular_values[i] = static_cast<double>(kRank - i);
    for (std::size_t t = 0; t < kTerms; ++t) svd.u(t, i) = rng.Uniform(-1, 1);
    for (std::size_t j = 0; j < kBuilt; ++j) svd.v(j, i) = rng.Uniform(-1, 1);
  }
  auto built = LsiIndex::FromSvd(svd);
  ASSERT_TRUE(built.ok());
  LsiIndex index = *built;
  for (std::size_t f = 0; f < 100; ++f) {
    DenseVector doc(kTerms);
    for (std::size_t t = 0; t < kTerms; ++t) doc[t] = rng.Uniform(0, 1);
    ASSERT_TRUE(index.FoldInDocument(doc).ok());
  }
  const std::vector<std::size_t> deleted = {0, 7, 1023, 1499, 1500, 1599};
  for (std::size_t j : deleted) ASSERT_TRUE(index.MarkDeleted(j).ok());
  DenseVector query(kTerms);
  for (std::size_t t = 0; t < kTerms; ++t) query[t] = rng.Uniform(0, 1);

  const std::size_t restore = par::Threads();
  std::vector<std::vector<SearchResult>> runs;
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    par::SetThreads(threads);
    for (std::size_t top_k : {std::size_t{0}, std::size_t{10}}) {
      auto results = index.Search(query, top_k);
      ASSERT_TRUE(results.ok());
      runs.push_back(*results);
    }
  }
  par::SetThreads(restore);
  ASSERT_EQ(runs[0].size(), kBuilt + 100 - deleted.size());
  for (const SearchResult& r : runs[0]) EXPECT_FALSE(index.IsDeleted(r.document));
  for (std::size_t run = 0; run < 2; ++run) {
    const auto& one = runs[run];
    const auto& four = runs[run + 2];
    ASSERT_EQ(one.size(), four.size());
    for (std::size_t i = 0; i < one.size(); ++i) {
      EXPECT_EQ(one[i].document, four[i].document) << "rank " << i;
      EXPECT_EQ(one[i].score, four[i].score) << "rank " << i;
    }
  }
}

TEST(FoldInEdgeTest, DeletingTheLargestDocumentKeepsOthersScores) {
  // Document 1 folds to numerically nothing next to document 0, so it
  // scores 0. Deleting document 0 must not lower that floor: a shard is
  // a copy plus MarkDeleted, so otherwise it would score document 1 where
  // the unsharded index floors it.
  linalg::SvdResult svd;
  svd.u = linalg::DenseMatrix(2, 1);
  svd.u(0, 0) = 1.0;
  svd.singular_values = DenseVector(1, 1.0);
  svd.v = linalg::DenseMatrix(2, 1);
  svd.v(0, 0) = 1.0;
  svd.v(1, 0) = 1e-13;
  auto index = LsiIndex::FromSvd(svd);
  ASSERT_TRUE(index.ok());
  DenseVector query(2, 0.0);
  query[0] = 1.0;
  auto before = index->Search(query);
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before->size(), 2u);
  EXPECT_EQ((*before)[1].document, 1u);
  EXPECT_EQ((*before)[1].score, 0.0);

  ASSERT_TRUE(index->MarkDeleted(0).ok());
  auto after = index->Search(query);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->size(), 1u);
  EXPECT_EQ((*after)[0].document, 1u);
  EXPECT_EQ((*after)[0].score, 0.0);
}

TEST(FoldInEdgeTest, MarkDeletedHidesFoldedDocument) {
  LsiIndex index = BuildSmall();
  DenseVector doc(6, 0.0);
  doc[0] = 2.0;
  doc[3] = 1.0;
  auto appended = index.FoldInDocument(doc);
  ASSERT_TRUE(appended.ok());
  ASSERT_TRUE(index.MarkDeleted(appended.value()).ok());
  EXPECT_TRUE(index.IsDeleted(appended.value()));
  EXPECT_EQ(index.NumDeleted(), 1u);
  auto results = index.Search(doc, 6);
  ASSERT_TRUE(results.ok());
  for (const SearchResult& r : results.value()) {
    EXPECT_NE(r.document, appended.value());
  }
  // Deleting twice is a harmless no-op; out of range is refused.
  EXPECT_TRUE(index.MarkDeleted(appended.value()).ok());
  EXPECT_EQ(index.NumDeleted(), 1u);
  EXPECT_FALSE(index.MarkDeleted(999).ok());
}

}  // namespace
}  // namespace lsi::core
