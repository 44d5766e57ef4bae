#include "live/live_engine.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/engine.h"
#include "model/separable_model.h"
#include "text/analyzer.h"

namespace lsi::live {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

text::Corpus BaseCorpus() {
  text::Analyzer analyzer;
  text::Corpus corpus;
  corpus.AddDocument("space1",
                     analyzer.Analyze("the rocket launched toward the moon "
                                      "carrying astronauts into orbit"));
  corpus.AddDocument("space2",
                     analyzer.Analyze("astronauts aboard the orbit station "
                                      "watched the moon and the stars"));
  corpus.AddDocument("cars1",
                     analyzer.Analyze("the engine of the car roared as the "
                                      "automobile sped down the road"));
  corpus.AddDocument("cars2",
                     analyzer.Analyze("mechanics repaired the engine and "
                                      "the brakes of the old automobile"));
  corpus.AddDocument("food1",
                     analyzer.Analyze("simmer the garlic and tomatoes into "
                                      "a sauce for the fresh pasta"));
  corpus.AddDocument("food2",
                     analyzer.Analyze("bake the bread with garlic butter "
                                      "and serve with pasta and sauce"));
  return corpus;
}

LiveOptions SmallOptions() {
  LiveOptions options;
  options.engine.rank = 3;
  options.engine.solver = core::SvdSolver::kJacobi;
  options.background_refresh = false;  // Tests drive refreshes directly.
  return options;
}

std::unique_ptr<LiveEngine> OpenFresh(const char* wal_name,
                                      LiveOptions options = SmallOptions()) {
  const std::string path = TempPath(wal_name);
  std::remove(path.c_str());
  auto live = LiveEngine::Open(BaseCorpus(), path, std::move(options));
  EXPECT_TRUE(live.ok()) << live.status().ToString();
  return live.ok() ? std::move(live).value() : nullptr;
}

std::string ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return "";
  std::string bytes;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    bytes.append(buffer, n);
  }
  std::fclose(f);
  return bytes;
}

/// `n` documents of the paper's separable model (10 topics of 40 primary
/// terms, 30-60 terms each), as text the analyzer maps back to the terms.
std::vector<std::string> ModelTexts(std::size_t n) {
  model::SeparableModelParams params;
  params.num_topics = 10;
  params.terms_per_topic = 40;
  params.min_document_length = 30;
  params.max_document_length = 60;
  auto corpus_model = model::BuildSeparableModel(params);
  EXPECT_TRUE(corpus_model.ok()) << corpus_model.status().ToString();
  Rng rng(7);
  std::vector<std::string> texts;
  char buffer[16];
  for (std::size_t i = 0; i < n && corpus_model.ok(); ++i) {
    auto generated = corpus_model->GenerateDocument(rng);
    EXPECT_TRUE(generated.ok()) << generated.status().ToString();
    std::string text;
    for (text::TermId term : generated->first) {
      std::snprintf(buffer, sizeof(buffer), "term%05zu ",
                    static_cast<std::size_t>(term));
      text += buffer;
    }
    texts.push_back(std::move(text));
  }
  return texts;
}

/// The first `n` texts as a base corpus named d0, d1, ...
text::Corpus ModelCorpus(const std::vector<std::string>& texts,
                         std::size_t n) {
  text::Analyzer analyzer;
  text::Corpus corpus;
  for (std::size_t i = 0; i < n; ++i) {
    corpus.AddDocument("d" + std::to_string(i), analyzer.Analyze(texts[i]));
  }
  return corpus;
}

LiveOptions ModelOptions() {
  LiveOptions options;
  options.engine.rank = 20;
  options.engine.solver = core::SvdSolver::kLanczos;
  options.background_refresh = false;
  return options;
}

std::vector<std::string> TopNames(const core::LsiEngine& engine,
                                  const std::string& query, std::size_t k) {
  auto hits = engine.Query(query, k);
  EXPECT_TRUE(hits.ok()) << hits.status().ToString();
  std::vector<std::string> names;
  if (hits.ok()) {
    for (const auto& hit : hits.value()) names.push_back(hit.document_name);
  }
  return names;
}

TEST(LiveEngineTest, AddBecomesVisibleToQueries) {
  auto live = OpenFresh("live_add.log");
  ASSERT_NE(live, nullptr);
  const std::uint64_t epoch_before = live->epoch();

  auto receipt =
      live->Add("space3", "a telescope watched the moon orbit the planet");
  ASSERT_TRUE(receipt.ok()) << receipt.status().ToString();
  EXPECT_EQ(receipt->seq, 1u);
  EXPECT_GT(live->epoch(), epoch_before);

  auto snapshot = live->Snapshot();
  EXPECT_EQ(snapshot->NumDocuments(), 7u);
  const std::vector<std::string> top =
      TopNames(*snapshot, "moon orbit telescope", 3);
  EXPECT_NE(std::find(top.begin(), top.end(), "space3"), top.end());
  ASSERT_TRUE(live->Close().ok());
}

TEST(LiveEngineTest, DeleteHidesDocumentAndMissingNameIsNotFound) {
  auto live = OpenFresh("live_delete.log");
  ASSERT_NE(live, nullptr);

  auto receipt = live->Delete("food1");
  ASSERT_TRUE(receipt.ok()) << receipt.status().ToString();
  EXPECT_EQ(receipt->removed, 1u);

  auto snapshot = live->Snapshot();
  const std::vector<std::string> top =
      TopNames(*snapshot, "garlic pasta sauce", 6);
  EXPECT_EQ(std::find(top.begin(), top.end(), "food1"), top.end());
  EXPECT_NE(std::find(top.begin(), top.end(), "food2"), top.end());

  auto missing = live->Delete("no-such-doc");
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  // The refused delete was never logged.
  EXPECT_EQ(live->stats().wal_records, 1u);
  ASSERT_TRUE(live->Close().ok());
}

TEST(LiveEngineTest, UpdateReplacesAndUpsertsMissingName) {
  auto live = OpenFresh("live_update.log");
  ASSERT_NE(live, nullptr);

  auto replaced =
      live->Update("cars1", "the electric motor hummed in the quiet car");
  ASSERT_TRUE(replaced.ok());
  EXPECT_EQ(replaced->removed, 1u);

  auto upserted = live->Update("cars3", "the gearbox and clutch of the car");
  ASSERT_TRUE(upserted.ok());
  EXPECT_EQ(upserted->removed, 0u);

  const LiveStats stats = live->stats();
  EXPECT_EQ(stats.wal_records, 2u);
  EXPECT_EQ(stats.tombstones, 1u);
  EXPECT_EQ(stats.documents, 7u);  // 6 base - 1 replaced + 2 added.
  ASSERT_TRUE(live->Close().ok());
}

TEST(LiveEngineTest, RejectsMalformedWrites) {
  auto live = OpenFresh("live_validate.log");
  ASSERT_NE(live, nullptr);
  EXPECT_EQ(live->Add("", "text").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(live->Add("tab\tname", "text").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(live->Add("name", "line\nbreak").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(live->Add(std::string(kWalMaxNameBytes + 1, 'n'), "t")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(live->stats().wal_records, 0u);
  ASSERT_TRUE(live->Close().ok());
}

TEST(LiveEngineTest, PublishEveryBatchesVisibility) {
  LiveOptions options = SmallOptions();
  options.publish_every = 3;
  auto live = OpenFresh("live_batch.log", options);
  ASSERT_NE(live, nullptr);
  const std::uint64_t epoch0 = live->epoch();

  ASSERT_TRUE(live->Add("w1", "alpha beta gamma").ok());
  ASSERT_TRUE(live->Add("w2", "delta epsilon zeta").ok());
  // Durable but not yet visible.
  EXPECT_EQ(live->epoch(), epoch0);
  EXPECT_EQ(live->Snapshot()->NumDocuments(), 6u);
  EXPECT_EQ(live->stats().pending_writes, 2u);

  ASSERT_TRUE(live->Add("w3", "eta theta iota").ok());
  EXPECT_EQ(live->epoch(), epoch0 + 1);
  EXPECT_EQ(live->Snapshot()->NumDocuments(), 9u);

  // Flush publishes a partial batch.
  ASSERT_TRUE(live->Add("w4", "kappa lambda mu").ok());
  EXPECT_EQ(live->Snapshot()->NumDocuments(), 9u);
  ASSERT_TRUE(live->Flush().ok());
  EXPECT_EQ(live->Snapshot()->NumDocuments(), 10u);
  EXPECT_EQ(live->stats().pending_writes, 0u);
  ASSERT_TRUE(live->Close().ok());
}

TEST(LiveEngineTest, SnapshotsAreImmutableAcrossWrites) {
  auto live = OpenFresh("live_pin.log");
  ASSERT_NE(live, nullptr);
  const std::vector<std::string> queries = {"garlic pasta", "moon orbit",
                                            "engine automobile"};
  auto all_hits = [&](const core::LsiEngine& engine) {
    std::vector<std::vector<core::EngineHit>> hits;
    for (const std::string& q : queries) {
      hits.push_back(engine.Query(q, 0).value());
      hits.push_back(engine.MoreLikeThis(0, 0).value());
    }
    return hits;
  };
  auto pinned = live->Snapshot();
  const std::size_t docs_before = pinned->NumDocuments();
  const auto pinned_hits = all_hits(*pinned);
  ASSERT_TRUE(live->Add("new1", "completely new content here").ok());
  ASSERT_TRUE(live->Delete("food2").ok());
  // A second pin that already holds a folded row and a tombstone.
  auto pinned_mid = live->Snapshot();
  const auto mid_hits = all_hits(*pinned_mid);
  ASSERT_TRUE(live->Update("space2", "garlic rocket pasta").ok());
  ASSERT_TRUE(live->Delete("new1").ok());
  ASSERT_TRUE(live->Add("new2", "the moon and the automobile").ok());
  ASSERT_TRUE(live->Delete("cars1").ok());
  // The pinned snapshots still answer from their epochs, bit for bit: no
  // later delete, update or fold-in wrote into storage they share.
  EXPECT_EQ(pinned->NumDocuments(), docs_before);
  const std::vector<std::string> top = TopNames(*pinned, "garlic pasta", 6);
  EXPECT_NE(std::find(top.begin(), top.end(), "food2"), top.end());
  for (const auto& [engine, expected] :
       {std::pair{pinned.get(), &pinned_hits},
        std::pair{pinned_mid.get(), &mid_hits}}) {
    const auto actual = all_hits(*engine);
    ASSERT_EQ(actual.size(), expected->size());
    for (std::size_t q = 0; q < actual.size(); ++q) {
      ASSERT_EQ(actual[q].size(), (*expected)[q].size());
      for (std::size_t i = 0; i < actual[q].size(); ++i) {
        EXPECT_EQ(actual[q][i].document_name, (*expected)[q][i].document_name);
        EXPECT_EQ(actual[q][i].document, (*expected)[q][i].document);
        EXPECT_EQ(actual[q][i].score, (*expected)[q][i].score);
      }
    }
  }
  ASSERT_TRUE(live->Close().ok());
}

TEST(LiveEngineTest, ReplayRestoresAcknowledgedWritesExactly) {
  const std::string path = TempPath("live_replay.log");
  std::remove(path.c_str());
  std::vector<std::string> probe_queries = {"moon orbit telescope",
                                            "garlic pasta sauce",
                                            "engine automobile"};
  std::vector<std::vector<std::string>> expected;
  {
    auto live = LiveEngine::Open(BaseCorpus(), path, SmallOptions());
    ASSERT_TRUE(live.ok());
    ASSERT_TRUE(
        (*live)->Add("space3", "a telescope watched the moon orbit").ok());
    ASSERT_TRUE((*live)->Delete("food1").ok());
    ASSERT_TRUE(
        (*live)->Update("cars1", "the electric motor in the car").ok());
    for (const auto& q : probe_queries) {
      expected.push_back(TopNames(*(*live)->Snapshot(), q, 7));
    }
    ASSERT_TRUE((*live)->Close().ok());
  }

  // "Crash" and restart: replay must reproduce identical rankings.
  auto live = LiveEngine::Open(BaseCorpus(), path, SmallOptions());
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  EXPECT_EQ((*live)->stats().wal_records, 3u);
  auto snapshot = (*live)->Snapshot();
  for (std::size_t i = 0; i < probe_queries.size(); ++i) {
    EXPECT_EQ(TopNames(*snapshot, probe_queries[i], 7), expected[i])
        << probe_queries[i];
  }
  ASSERT_TRUE((*live)->Close().ok());
}

TEST(LiveEngineTest, OpenRefusesMismatchedCorpus) {
  const std::string path = TempPath("live_mismatch.log");
  std::remove(path.c_str());
  {
    auto live = LiveEngine::Open(BaseCorpus(), path, SmallOptions());
    ASSERT_TRUE(live.ok());
    ASSERT_TRUE((*live)->Close().ok());
  }
  text::Corpus bigger = BaseCorpus();
  text::Analyzer analyzer;
  bigger.AddDocument("extra", analyzer.Analyze("one more document"));
  auto live = LiveEngine::Open(std::move(bigger), path, SmallOptions());
  EXPECT_FALSE(live.ok());
  EXPECT_EQ(live.status().code(), StatusCode::kFailedPrecondition);
}

TEST(LiveEngineTest, ForceRefreshMatchesFreshBuildBitForBit) {
  auto live = OpenFresh("live_refresh.log");
  ASSERT_NE(live, nullptr);
  ASSERT_TRUE(live->Add("space3", "a telescope watched the moon orbit").ok());
  ASSERT_TRUE(live->Delete("cars2").ok());
  ASSERT_TRUE(live->Update("food1", "fresh basil pesto over pasta").ok());

  ASSERT_TRUE(live->ForceRefresh().ok());
  const LiveStats stats = live->stats();
  EXPECT_EQ(stats.refreshes, 1u);
  EXPECT_EQ(stats.tombstones, 0u);
  EXPECT_EQ(stats.folded_since_refresh, 0u);
  EXPECT_EQ(stats.drift_mean_radians, 0.0);

  // The refreshed engine must be byte-identical (same serialized form)
  // to LsiEngine::Build over the compacted corpus the refresh saw.
  auto snapshot = live->Snapshot();
  EXPECT_EQ(snapshot->NumDocuments(), 6u);
  const std::string refreshed_path = TempPath("live_refreshed_engine.bin");
  ASSERT_TRUE(snapshot->Save(refreshed_path).ok());

  text::Corpus accumulated = BaseCorpus();
  text::Analyzer analyzer;
  accumulated.AddDocument(
      "space3", analyzer.Analyze("a telescope watched the moon orbit"));
  accumulated.AddDocument("food1",
                          analyzer.Analyze("fresh basil pesto over pasta"));
  std::vector<std::uint8_t> alive = {1, 1, 1, 0, 0, 1, 1, 1};
  alive[4] = 0;  // food1 replaced by the update; cars2 deleted above.
  alive[3] = 0;
  text::Corpus reference_corpus = CompactCorpus(accumulated, alive);
  auto reference =
      core::LsiEngine::Build(reference_corpus, SmallOptions().engine);
  ASSERT_TRUE(reference.ok());
  const std::string reference_path = TempPath("live_reference_engine.bin");
  ASSERT_TRUE(reference->Save(reference_path).ok());

  std::FILE* a = std::fopen(refreshed_path.c_str(), "rb");
  std::FILE* b = std::fopen(reference_path.c_str(), "rb");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  std::string bytes_a, bytes_b;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), a)) > 0) {
    bytes_a.append(buffer, n);
  }
  while ((n = std::fread(buffer, 1, sizeof(buffer), b)) > 0) {
    bytes_b.append(buffer, n);
  }
  std::fclose(a);
  std::fclose(b);
  EXPECT_EQ(bytes_a, bytes_b);
  ASSERT_TRUE(live->Close().ok());
}

TEST(LiveEngineTest, WritesAfterCloseFail) {
  auto live = OpenFresh("live_closed.log");
  ASSERT_NE(live, nullptr);
  ASSERT_TRUE(live->Close().ok());
  EXPECT_EQ(live->Add("a", "b").status().code(),
            StatusCode::kFailedPrecondition);
  // Close is idempotent.
  EXPECT_TRUE(live->Close().ok());
}

TEST(LiveEngineTest, DriftStatsAccumulateAndResetOnRefresh) {
  auto live = OpenFresh("live_drift.log");
  ASSERT_NE(live, nullptr);
  // A rank-3 index over three topics discards roughly half the spectrum,
  // so an in-vocabulary document folds in with a nonzero residual angle.
  ASSERT_TRUE(live->Add("mixed", "garlic rocket engine moon pasta").ok());
  ASSERT_TRUE(live->Add("inspan", "astronauts orbit the moon").ok());
  const LiveStats stats = live->stats();
  EXPECT_EQ(stats.folded_since_refresh, 2u);
  EXPECT_GT(stats.drift_max_radians, 0.0);
  EXPECT_GE(stats.drift_max_radians, stats.drift_mean_radians);
  EXPECT_GT(stats.drift_mean_radians, 0.0);

  // A refresh folds everything into the new basis: drift starts over.
  ASSERT_TRUE(live->ForceRefresh().ok());
  EXPECT_EQ(live->stats().drift_mean_radians, 0.0);
  EXPECT_EQ(live->stats().folded_since_refresh, 0u);
  ASSERT_TRUE(live->Close().ok());
}

TEST(LiveEngineTest, AllOovAddFoldsInWithZeroDrift) {
  auto live = OpenFresh("live_oov.log");
  ASSERT_NE(live, nullptr);
  // Every term is out of vocabulary: the folded vector is zero, the
  // residual angle is defined as 0, and the document is still tracked
  // (it would gain content on a later update + refresh).
  auto receipt = live->Add("oov", "xylophone quasar bagpipe marmalade");
  ASSERT_TRUE(receipt.ok()) << receipt.status().ToString();
  const LiveStats stats = live->stats();
  EXPECT_EQ(stats.documents, 7u);
  EXPECT_EQ(stats.drift_max_radians, 0.0);
  auto hits = live->Snapshot()->Query("astronauts moon", 7);
  ASSERT_TRUE(hits.ok());
  for (const auto& hit : hits.value()) {
    // The zero vector can never actually match anything.
    if (hit.document_name == "oov") {
      EXPECT_EQ(hit.score, 0.0);
    }
  }
  ASSERT_TRUE(live->Close().ok());
}

TEST(LiveEngineTest, WritesDuringRefreshBuildAreReplayed) {
  const std::vector<std::string> all = ModelTexts(506);
  const text::Corpus base = ModelCorpus(all, 500);
  const std::vector<std::string> texts(all.begin() + 500, all.end());
  const LiveOptions options = ModelOptions();
  const std::string path = TempPath("live_midbuild.log");
  std::remove(path.c_str());
  auto opened = LiveEngine::Open(base, path, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  LiveEngine& live = **opened;

  // Before the refresh: a fold-in and a tombstone the rebuild compacts.
  ASSERT_TRUE(live.Add("pre", texts[0]).ok());
  ASSERT_TRUE(live.Delete("d1").ok());

  std::atomic<bool> done{false};
  Status refreshed;
  std::thread refresher([&] {
    refreshed = live.ForceRefresh();
    done.store(true, std::memory_order_release);
  });
  while (!live.stats().refresh_in_progress &&
         !done.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  // Every op kind while the BUILD phase runs, including writes that touch
  // a journaled add ("mid") and a fold-in from before the freeze ("pre").
  std::size_t mid_build = 0;
  auto write = [&](Result<WriteReceipt> receipt) {
    ASSERT_TRUE(receipt.ok()) << receipt.status().ToString();
    if (live.stats().refresh_in_progress) ++mid_build;
  };
  write(live.Add("mid", texts[1]));
  write(live.Update("d5", texts[2]));
  write(live.Delete("d7"));
  write(live.Update("mid", texts[3]));
  write(live.Delete("pre"));
  write(live.Add("mid2", texts[4]));
  refresher.join();
  ASSERT_TRUE(refreshed.ok()) << refreshed.ToString();
  EXPECT_GE(mid_build, 1u);
  EXPECT_EQ(live.stats().refreshes, 1u);

  // Reference: a fresh build over the corpus the refresh froze, then the
  // same fold-ins and tombstones in write order.
  text::Corpus frozen = base;
  frozen.AddDocument("pre", text::Analyzer().Analyze(texts[0]));
  std::vector<std::uint8_t> alive(frozen.NumDocuments(), 1);
  alive[1] = 0;
  auto reference = core::LsiEngine::Build(CompactCorpus(frozen, alive),
                                          options.engine);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  auto remove_named = [&](const std::string& name) {
    for (std::size_t id = 0; id < reference->NumDocuments(); ++id) {
      if (!reference->index().IsDeleted(id) &&
          reference->DocumentName(id).value() == name) {
        ASSERT_TRUE(reference->RemoveDocument(id).ok());
      }
    }
  };
  ASSERT_TRUE(reference->FoldInDocument("mid", texts[1]).ok());
  remove_named("d5");
  ASSERT_TRUE(reference->FoldInDocument("d5", texts[2]).ok());
  remove_named("d7");
  remove_named("mid");
  ASSERT_TRUE(reference->FoldInDocument("mid", texts[3]).ok());
  remove_named("pre");
  ASSERT_TRUE(reference->FoldInDocument("mid2", texts[4]).ok());

  const std::string got_path = TempPath("live_midbuild_got.bin");
  const std::string ref_path = TempPath("live_midbuild_ref.bin");
  ASSERT_TRUE(live.Snapshot()->Save(got_path).ok());
  ASSERT_TRUE(reference->Save(ref_path).ok());
  // EXPECT_TRUE, not EXPECT_EQ: a mismatch would print both files.
  EXPECT_TRUE(ReadFileBytes(got_path) == ReadFileBytes(ref_path));
  ASSERT_TRUE(live.Close().ok());
}

TEST(LiveEngineTest, RefreshDueMeasuresDriftPastTheBuiltBaseline) {
  // Means measured on the live-mixed corpus model (m = 2e4, k = 100):
  // built documents 1.042 rad, model fold-ins 1.044-1.050, topic-less
  // fold-ins 1.478.
  const LiveOptions options;
  LiveStats stats;
  stats.documents = 20000;
  stats.folded_since_refresh = 400;
  stats.drift_baseline_radians = 1.042;
  stats.drift_mean_radians = 1.050;
  EXPECT_FALSE(RefreshDue(stats, options));
  stats.drift_mean_radians = 1.478;
  EXPECT_TRUE(RefreshDue(stats, options));
  // Not while a refresh runs, nor with nothing folded in.
  stats.refresh_in_progress = true;
  EXPECT_FALSE(RefreshDue(stats, options));
  stats.refresh_in_progress = false;
  stats.folded_since_refresh = 0;
  EXPECT_FALSE(RefreshDue(stats, options));
  // The folded-fraction rule holds with no drift at all: 0.25 of all ids,
  // live and tombstoned.
  stats.drift_mean_radians = stats.drift_baseline_radians;
  stats.documents = 90;
  stats.tombstones = 10;
  stats.folded_since_refresh = 25;
  EXPECT_FALSE(RefreshDue(stats, options));
  stats.folded_since_refresh = 26;
  EXPECT_TRUE(RefreshDue(stats, options));
  LiveOptions disabled;
  disabled.drift_threshold_radians = 0.0;
  disabled.max_folded_fraction = 0.0;
  stats.drift_mean_radians = 3.0;
  EXPECT_FALSE(RefreshDue(stats, disabled));
}

TEST(LiveEngineTest, DriftBaselineIsTheBuiltDocumentsMeanResidual) {
  const std::vector<std::string> texts = ModelTexts(600);
  const std::string path = TempPath("live_baseline.log");
  std::remove(path.c_str());
  auto opened = LiveEngine::Open(ModelCorpus(texts, 500), path,
                                 ModelOptions());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  LiveEngine& live = **opened;
  const double baseline = live.stats().drift_baseline_radians;
  EXPECT_GT(baseline, 0.1);

  // Folding the built documents' own texts into a copy reports, on
  // average, exactly the baseline.
  core::LsiEngine copy = *live.Snapshot();
  double sum = 0.0;
  for (std::size_t i = 0; i < 500; ++i) {
    auto fold = copy.FoldInDocument("again", texts[i]);
    ASSERT_TRUE(fold.ok()) << fold.status().ToString();
    sum += fold->residual_angle;
  }
  EXPECT_NEAR(sum / 500.0, baseline, 1e-9);

  // Fresh documents from the same model drift by far less than the
  // threshold, so they do not call for a re-SVD.
  for (std::size_t i = 500; i < 600; ++i) {
    ASSERT_TRUE(live.Add("new" + std::to_string(i), texts[i]).ok());
  }
  const LiveStats stats = live.stats();
  EXPECT_LT(stats.drift_mean_radians - stats.drift_baseline_radians, 0.1);
  EXPECT_FALSE(RefreshDue(stats, ModelOptions()));
  ASSERT_TRUE(live.Close().ok());
}

}  // namespace
}  // namespace lsi::live
