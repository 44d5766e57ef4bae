#include "live/live_engine.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/fault.h"
#include "live/compact.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace lsi::live {
namespace {

bool ContainsAny(const std::string& s, const char* chars) {
  return s.find_first_of(chars) != std::string::npos;
}

const char* OpCounterName(WalOp op) {
  switch (op) {
    case WalOp::kAdd:
      return "lsi.live.adds";
    case WalOp::kDelete:
      return "lsi.live.deletes";
    case WalOp::kUpdate:
      return "lsi.live.updates";
  }
  return "lsi.live.unknown_ops";
}

}  // namespace

text::Corpus CompactCorpus(const text::Corpus& corpus,
                           const std::vector<std::uint8_t>& alive) {
  text::Corpus compacted;
  for (std::size_t i = 0; i < corpus.NumDocuments(); ++i) {
    if (i < alive.size() && alive[i] == 0) continue;
    const text::Document& doc = corpus.document(i);
    std::vector<std::string> tokens;
    tokens.reserve(doc.Length());
    for (const auto& [term, count] : doc.counts()) {
      for (std::size_t c = 0; c < count; ++c) {
        tokens.push_back(corpus.vocabulary().TermOf(term));
      }
    }
    compacted.AddDocument(doc.name(), tokens);
  }
  return compacted;
}

LiveEngine::LiveEngine(LiveOptions options) : options_(std::move(options)) {}

LiveEngine::~LiveEngine() { (void)Close(); }

Result<std::unique_ptr<LiveEngine>> LiveEngine::Open(
    text::Corpus base_corpus, const std::string& wal_path,
    LiveOptions options) {
  if (base_corpus.NumDocuments() == 0 || base_corpus.NumTerms() == 0) {
    return Status::InvalidArgument("live: empty base corpus");
  }
  options.publish_every = std::max<std::size_t>(1, options.publish_every);
  obs::ScopedSpan span("live.open");

  LSI_ASSIGN_OR_RETURN(core::LsiEngine base,
                       core::LsiEngine::Build(base_corpus, options.engine));
  std::unique_ptr<LiveEngine> live(new LiveEngine(std::move(options)));
  {
    MutexLock lock(live->write_mutex_);
    live->corpus_ = std::move(base_corpus);
    const std::size_t base_documents = live->corpus_.NumDocuments();
    live->live_.doc_corpus.resize(base_documents);
    std::iota(live->live_.doc_corpus.begin(), live->live_.doc_corpus.end(),
              std::size_t{0});
    live->live_.by_name = live->NamesOf(live->live_.doc_corpus);
    {
      MutexLock snapshot_lock(live->snapshot_mutex_);
      live->snapshot_ = std::make_shared<core::LsiEngine>(std::move(base));
    }
    live->wal_path_ = wal_path;
    LSI_ASSIGN_OR_RETURN(live->wal_, Wal::Open(wal_path, base_documents));

    // Replay through the exact path live writes take, then publish the
    // result as one epoch: a restarted engine is byte-identical to the
    // one that kept running.
    for (const WalRecord& record : live->wal_->replayed()) {
      Result<WriteReceipt> applied = live->ApplyLiveLocked(record);
      if (!applied.ok()) {
        return Status::Internal("live: wal replay failed at record " +
                                std::to_string(record.seq) + ": " +
                                applied.status().message());
      }
    }
    if (live->unpublished_ > 0) live->PublishLocked();
  }
  if (live->options_.background_refresh) {
    live->refresher_ = std::thread(&LiveEngine::RefresherLoop, live.get());
  }
  return live;
}

std::shared_ptr<const core::LsiEngine> LiveEngine::Snapshot() const {
  MutexLock lock(snapshot_mutex_);
  return snapshot_;
}

Status LiveEngine::ValidateWrite(WalOp op, const std::string& name,
                                 const std::string& text) const {
  if (name.empty()) {
    return Status::InvalidArgument("live: document name must be non-empty");
  }
  if (name.size() > kWalMaxNameBytes) {
    return Status::InvalidArgument("live: document name too large");
  }
  if (ContainsAny(name, "\t\n\r")) {
    return Status::InvalidArgument(
        "live: document name must not contain tabs or newlines");
  }
  if (text.size() > kWalMaxTextBytes) {
    return Status::InvalidArgument("live: document text too large");
  }
  if (ContainsAny(text, "\n\r")) {
    return Status::InvalidArgument(
        "live: document text must not contain newlines");
  }
  if (op == WalOp::kDelete && !text.empty()) {
    return Status::InvalidArgument("live: delete carries no text");
  }
  return Status::OK();
}

void LiveEngine::SwapSnapshotLocked(std::unique_ptr<core::LsiEngine> next) {
  {
    MutexLock lock(snapshot_mutex_);
    snapshot_ = std::move(next);
  }
  const std::uint64_t epoch =
      epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  obs::MetricsRegistry::Global().GetGauge("lsi.live.epoch").Set(
      static_cast<double>(epoch));
}

void LiveEngine::PublishLocked() {
  unpublished_ = 0;
  if (live_.pending == nullptr) return;
  SwapSnapshotLocked(std::move(live_.pending));
  ++publishes_;
  obs::MetricsRegistry::Global().GetCounter("lsi.live.publishes").Increment();
}

Result<WriteReceipt> LiveEngine::Apply(Target& target,
                                       const WalRecord& record,
                                       std::size_t corpus_index) {
  WriteReceipt receipt;
  receipt.seq = record.seq;
  if (record.op != WalOp::kAdd) {
    auto it = target.by_name.find(record.name);
    if (it != target.by_name.end()) {
      for (std::size_t id : it->second) {
        LSI_RETURN_IF_ERROR(target.pending->RemoveDocument(id));
      }
      receipt.removed = it->second.size();
      target.by_name.erase(it);
    } else if (record.op == WalOp::kDelete) {
      return Status::NotFound("live: no document named " + record.name);
    }
  }
  if (record.op != WalOp::kDelete) {
    LSI_ASSIGN_OR_RETURN(
        core::LsiEngine::FoldInResult fold,
        target.pending->FoldInDocument(record.name, record.text));
    target.doc_corpus.push_back(corpus_index);
    target.by_name[record.name].push_back(fold.document);
    target.drift_sum += fold.residual_angle;
    target.drift_max = std::max(target.drift_max, fold.residual_angle);
    ++target.drift_count;
    receipt.document = fold.document;
  }
  return receipt;
}

Result<WriteReceipt> LiveEngine::ApplyLiveLocked(const WalRecord& record) {
  if (live_.pending == nullptr) {
    live_.pending = std::make_unique<core::LsiEngine>(*Snapshot());
  }
  LSI_ASSIGN_OR_RETURN(WriteReceipt receipt,
                       Apply(live_, record, corpus_.NumDocuments()));
  if (record.op != WalOp::kDelete) {
    corpus_.AddDocument(record.name, analyzer_.Analyze(record.text));
  }
  if (refresh_in_progress_) refresh_journal_.push_back(record);
  ++unpublished_;
  return receipt;
}

LiveEngine::NameMap LiveEngine::NamesOf(
    const std::vector<std::size_t>& doc_corpus) const {
  NameMap by_name;
  for (std::size_t id = 0; id < doc_corpus.size(); ++id) {
    by_name[corpus_.document(doc_corpus[id]).name()].push_back(id);
  }
  return by_name;
}

Result<WriteReceipt> LiveEngine::Write(WalOp op, const std::string& name,
                                       const std::string& text) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  MutexLock lock(write_mutex_);
  if (closed_) return Status::FailedPrecondition("live: engine is closed");
  if (wal_ == nullptr) {
    // A failed autocompact could not re-open any WAL; without a log
    // there is no durability, so writes must fail loudly.
    return Status::FailedPrecondition(
        "live: WAL unavailable (autocompact recovery failed)");
  }
  LSI_RETURN_IF_ERROR(ValidateWrite(op, name, text));
  if (op == WalOp::kDelete && !live_.by_name.contains(name)) {
    // Refuse before logging: the WAL holds only writes that apply.
    return Status::NotFound("live: no document named " + name);
  }

  LSI_ASSIGN_OR_RETURN(std::uint64_t seq, wal_->Append(op, name, text));
  if (LSI_FAULT_POINT("live.publish")) {
    // Simulated crash between the WAL append and the apply/publish: the
    // caller gets an error (never an ack), so the record must not
    // survive to replay — clip it back off the log.
    Status aborted = wal_->AbortLast();
    if (!aborted.ok()) return aborted;
    registry.GetCounter("lsi.live.write_errors").Increment();
    return fault::InjectedFailure("live.publish");
  }

  Result<WriteReceipt> receipt = ApplyLiveLocked({op, seq, name, text});
  if (!receipt.ok()) {
    Status aborted = wal_->AbortLast();
    if (!aborted.ok()) return aborted;
    registry.GetCounter("lsi.live.write_errors").Increment();
    return receipt.status();
  }

  if (unpublished_ >= options_.publish_every) PublishLocked();
  receipt->epoch = epoch_.load(std::memory_order_acquire) +
                   (unpublished_ > 0 ? 1 : 0);
  registry.GetCounter(OpCounterName(op)).Increment();
  MaybeAutoCompactLocked();
  if (live_.drift_count > 0) {
    registry.GetGauge("lsi.live.drift_mean_radians")
        .Set(live_.drift_sum / static_cast<double>(live_.drift_count));
  }
  return receipt;
}

void LiveEngine::MaybeAutoCompactLocked() {
  if (options_.corpus_path.empty() || wal_ == nullptr) return;
  const bool over_bytes =
      options_.wal_compact_bytes != 0 &&
      wal_->committed_bytes() >= options_.wal_compact_bytes;
  const bool over_ops = options_.wal_compact_ops != 0 &&
                        wal_->record_count() >= options_.wal_compact_ops;
  if (!over_bytes && !over_ops) return;

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  if (LSI_FAULT_POINT("live.wal.autocompact")) {
    // Simulated compaction failure before any file is touched: the
    // acknowledged write that tripped the threshold stays acknowledged;
    // only the compaction is skipped (and will re-arm on the next
    // write, since the log is still over the threshold).
    registry.GetCounter("lsi.live.wal.autocompact_failures").Increment();
    return;
  }

  // The WAL must be closed while CompactLive replays and resets the
  // file underneath it. The write lock is held throughout, so no other
  // writer can observe the gap.
  const std::uint64_t old_base = wal_->base_documents();
  const Status closed = wal_->Close();
  wal_.reset();

  Result<CompactStats> compacted =
      closed.ok() ? CompactLive(options_.corpus_path, wal_path_)
                  : Result<CompactStats>(closed);
  const std::uint64_t new_base =
      compacted.ok() ? compacted->output_documents : old_base;
  Result<std::unique_ptr<Wal>> reopened = Wal::Open(wal_path_, new_base);
  if (!reopened.ok() && !compacted.ok()) {
    // A compact that died between the corpus rewrite and the WAL reset
    // leaves a new corpus paired with the old log; re-pin a fresh log
    // to whatever document count the corpus actually holds (its records
    // are already folded into the corpus when this state arises).
    Result<std::size_t> count = CountTsvDocuments(options_.corpus_path);
    if (count.ok() && ResetWal(options_.corpus_path, wal_path_).ok()) {
      reopened = Wal::Open(wal_path_, static_cast<std::uint64_t>(*count));
    }
  }
  if (reopened.ok()) wal_ = std::move(*reopened);

  if (compacted.ok() && reopened.ok()) {
    ++autocompacts_;
    registry.GetCounter("lsi.live.wal.autocompact").Increment();
  } else {
    registry.GetCounter("lsi.live.wal.autocompact_failures").Increment();
  }
}

Result<WriteReceipt> LiveEngine::Add(const std::string& name,
                                     const std::string& text) {
  return Write(WalOp::kAdd, name, text);
}

Result<WriteReceipt> LiveEngine::Delete(const std::string& name) {
  return Write(WalOp::kDelete, name, std::string());
}

Result<WriteReceipt> LiveEngine::Update(const std::string& name,
                                        const std::string& text) {
  return Write(WalOp::kUpdate, name, text);
}

Status LiveEngine::Flush() {
  MutexLock lock(write_mutex_);
  if (closed_) return Status::FailedPrecondition("live: engine is closed");
  PublishLocked();
  return Status::OK();
}

bool RefreshDue(const LiveStats& stats, const LiveOptions& options) {
  if (stats.refresh_in_progress || stats.folded_since_refresh == 0) {
    return false;
  }
  if (options.drift_threshold_radians > 0.0 &&
      stats.drift_mean_radians - stats.drift_baseline_radians >
          options.drift_threshold_radians) {
    return true;
  }
  const double ids = static_cast<double>(stats.documents + stats.tombstones);
  return options.max_folded_fraction > 0.0 &&
         static_cast<double>(stats.folded_since_refresh) >
             options.max_folded_fraction * ids;
}

// Lock order across the three phases follows the live band of
// src/common/lock_ranks.h strictly upward: refresh (20) is never held
// here (RefresherLoop drops it before calling in), phase 1 and 3 take
// write (24), and the publish swap nests snapshot (28) inside write —
// the same write -> snapshot order Open() uses. LSI_DEADLOCK_DETECT=1
// checks this on every refresh.
Status LiveEngine::RunRefresh() {
  obs::ScopedSpan span("live.refresh");
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();

  // Phase 1 (write lock): freeze the rebuild input, the corpus_
  // documents a non-tombstoned id of the current engine maps to. Writes
  // from here on are journaled into refresh_journal_ by ApplyLiveLocked.
  text::Corpus rebuild;
  std::vector<std::size_t> frozen;  // Fresh engine id -> corpus_ index.
  std::size_t frozen_size = 0;
  {
    MutexLock lock(write_mutex_);
    if (closed_) return Status::FailedPrecondition("live: engine is closed");
    if (refresh_in_progress_) {
      return Status::FailedPrecondition("live: refresh already in progress");
    }
    PublishLocked();
    const std::shared_ptr<const core::LsiEngine> current = Snapshot();
    std::vector<std::uint8_t> alive(corpus_.NumDocuments(), 0);
    for (std::size_t id = 0; id < live_.doc_corpus.size(); ++id) {
      if (current->index().IsDeleted(id)) continue;
      alive[live_.doc_corpus[id]] = 1;
      frozen.push_back(live_.doc_corpus[id]);
    }
    if (frozen.empty()) {
      return Status::FailedPrecondition(
          "live: refresh needs at least one live document");
    }
    rebuild = CompactCorpus(corpus_, alive);
    frozen_size = corpus_.NumDocuments();
    refresh_in_progress_ = true;
  }

  // Phase 2 (NO lock): the expensive SVD. Queries keep hitting the old
  // snapshot; writes keep folding into pending epochs.
  Status built = Status::OK();
  Target next;
  if (LSI_FAULT_POINT("live.refresh.build")) {
    built = fault::InjectedFailure("live.refresh.build");
  } else {
    Result<core::LsiEngine> rebuilt =
        core::LsiEngine::Build(rebuild, options_.engine);
    if (rebuilt.ok()) {
      next.pending = std::make_unique<core::LsiEngine>(*std::move(rebuilt));
    } else {
      built = rebuilt.status();
    }
  }

  // Phase 3 (write lock): replay the journal onto the fresh engine through
  // Apply, the path live writes take, then swap it in. A journaled add's
  // corpus_ index is the frozen size plus its rank among journaled adds.
  MutexLock lock(write_mutex_);
  refresh_in_progress_ = false;
  const std::vector<WalRecord> journal = std::exchange(refresh_journal_, {});
  if (built.ok() && closed_) {
    return Status::FailedPrecondition("live: engine closed");
  }
  if (built.ok()) {
    next.by_name = NamesOf(frozen);
    next.doc_corpus = std::move(frozen);
    std::size_t corpus_index = frozen_size;
    for (const WalRecord& record : journal) {
      built = Apply(next, record, corpus_index).status();
      if (!built.ok()) break;
      if (record.op != WalOp::kDelete) ++corpus_index;
    }
  }
  if (!built.ok()) {
    ++refresh_failures_;
    registry.GetCounter("lsi.live.refresh_failures").Increment();
    return built;
  }

  live_ = std::move(next);
  unpublished_ = 0;
  ++refreshes_;
  SwapSnapshotLocked(std::move(live_.pending));
  registry.GetCounter("lsi.live.refreshes").Increment();
  registry.GetGauge("lsi.live.drift_mean_radians")
      .Set(live_.drift_count > 0
               ? live_.drift_sum / static_cast<double>(live_.drift_count)
               : 0.0);
  return Status::OK();
}

Status LiveEngine::ForceRefresh() { return RunRefresh(); }

void LiveEngine::RefresherLoop() {
  MutexLock lock(refresh_mutex_);
  while (!stop_refresher_) {
    refresh_cv_.WaitFor(lock, options_.refresh_interval);
    if (stop_refresher_) break;
    lock.Unlock();
    // Failures are counted in lsi.live.refresh_failures; the old
    // snapshot keeps serving, and the next tick retries.
    if (RefreshDue(stats(), options_)) (void)RunRefresh();
    lock.Lock();
  }
}

Status LiveEngine::Close() {
  {
    MutexLock lock(refresh_mutex_);
    stop_refresher_ = true;
    refresh_cv_.NotifyAll();
  }
  if (refresher_.joinable()) refresher_.join();

  MutexLock lock(write_mutex_);
  if (closed_) return Status::OK();
  closed_ = true;
  PublishLocked();
  // A half-opened engine (Wal::Open or replay failed) has no log to close.
  return wal_ != nullptr ? wal_->Close() : Status::OK();
}

LiveStats LiveEngine::stats() const {
  LiveStats stats;
  MutexLock lock(write_mutex_);
  const std::shared_ptr<const core::LsiEngine> snapshot = Snapshot();
  const core::LsiIndex& current =
      (live_.pending ? *live_.pending : *snapshot).index();
  stats.epoch = epoch_.load(std::memory_order_acquire);
  stats.wal_records = wal_ != nullptr ? wal_->record_count() : 0;
  stats.documents = current.NumDocuments() - current.NumDeleted();
  stats.tombstones = current.NumDeleted();
  stats.folded_since_refresh = live_.drift_count;
  stats.pending_writes = unpublished_;
  stats.drift_mean_radians =
      live_.drift_count > 0
          ? live_.drift_sum / static_cast<double>(live_.drift_count)
          : 0.0;
  stats.drift_max_radians = live_.drift_max;
  stats.drift_baseline_radians = current.MeanBuiltResidualAngle();
  stats.publishes = publishes_;
  stats.refreshes = refreshes_;
  stats.refresh_failures = refresh_failures_;
  stats.autocompacts = autocompacts_;
  stats.refresh_in_progress = refresh_in_progress_;
  return stats;
}

}  // namespace lsi::live
