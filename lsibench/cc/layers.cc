#include "layers.h"

#include <cmath>
#include <filesystem>
#include <map>
#include <thread>

#include "client.h"
#include "core/lsi_index.h"
#include "live/wal.h"
#include "obs/span.h"
#include "par/par.h"
#include "serve/batcher.h"
#include "serve/http.h"
#include "serve/json.h"
#include "serve/query_cache.h"
#include "text/term_weighting.h"

namespace lsibench {
namespace {

constexpr std::size_t kReplays = 24;       // Fresh queries per layer replay.
constexpr std::size_t kBatchGroups = 8;    // QueryBatch calls per setting.
constexpr std::size_t kRoutedReplays = 16;
constexpr std::size_t kDirectWrites = 5;   // Per live write kind.
constexpr std::size_t kWalAppends = 10;
constexpr std::size_t kClones = 3;
// Direct writes draw their texts from this far into the write stream, so
// they never repeat a text the HTTP writer sent.
constexpr std::uint64_t kDirectWriteOffset = 1ULL << 40;

double Us(Clock::time_point from, Clock::time_point to) {
  return MsBetween(from, to) * 1e3;
}

/// Total seconds the program's own "engine.query" spans recorded.
double EngineQuerySpanSeconds() {
  double total = 0.0;
  for (const auto& [path, stats] : lsi::obs::SpanRegistry::Global().Snapshot()) {
    if (path == "engine.query") total += stats.total_seconds;
  }
  return total;
}

lsi::serve::JsonValue HitsJson(const std::vector<lsi::core::EngineHit>& hits) {
  lsi::serve::JsonValue::Array items;
  for (const lsi::core::EngineHit& hit : hits) {
    lsi::serve::JsonValue::Object fields;
    fields.emplace_back("document",
                        lsi::serve::JsonValue(static_cast<double>(hit.document)));
    fields.emplace_back("name", lsi::serve::JsonValue(hit.document_name));
    fields.emplace_back("score", lsi::serve::JsonValue(hit.score));
    items.emplace_back(std::move(fields));
  }
  lsi::serve::JsonValue::Object reply;
  reply.emplace_back("hits", lsi::serve::JsonValue(std::move(items)));
  return lsi::serve::JsonValue(std::move(reply));
}

std::string RawQueryRequest(const std::string& query) {
  const std::string body = QueryBody(query);
  return "POST /query HTTP/1.1\r\nHost: 127.0.0.1\r\n"
         "Content-Type: application/json\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

/// One replayed request through the serve layer's public pieces, in the
/// order LsiService::Handle runs them for a cache miss.
bool ReplayServePath(const LayerContext& context,
                     const lsi::core::LsiEngine& engine,
                     lsi::serve::QueryBatcher& batcher,
                     const std::string& query, SpanLog* spans,
                     std::map<std::string, std::vector<double>>* samples) {
  lsi::serve::LsiService& service = *context.stack->services[0];
  const std::uint64_t request = spans->NewRequest();
  const Clock::time_point root_start = Clock::now();
  std::vector<std::pair<std::string, std::pair<Clock::time_point,
                                               Clock::time_point>>> children;

  const std::string raw = RawQueryRequest(query);
  Clock::time_point t0 = Clock::now();
  lsi::serve::HttpParser parser;
  const bool parsed_http =
      parser.Feed(raw) == lsi::serve::HttpParser::State::kReady;
  const lsi::serve::HttpRequest http = parser.TakeRequest();
  Clock::time_point t1 = Clock::now();
  children.push_back({"serve.http.parse", {t0, t1}});
  (*samples)["serve.http.parse_us"].push_back(Us(t0, t1));

  t0 = Clock::now();
  auto body = lsi::serve::JsonValue::Parse(http.body);
  t1 = Clock::now();
  children.push_back({"serve.json.parse", {t0, t1}});
  (*samples)["serve.json.parse_us"].push_back(Us(t0, t1));
  if (!parsed_http || !body.ok()) return false;

  t0 = Clock::now();
  const auto counts = engine.AnalyzeQueryCounts(query);
  t1 = Clock::now();
  children.push_back({"core.analyze", {t0, t1}});
  (*samples)["core.analyze_us"].push_back(Us(t0, t1));
  std::string key = lsi::serve::QueryCache::Key(counts, kTopK);
  if (context.stack->live) {
    key += "|e" + std::to_string(context.stack->live->epoch());
  }

  t0 = Clock::now();
  (void)service.cache().Get(key);
  t1 = Clock::now();
  children.push_back({"serve.cache.get", {t0, t1}});
  (*samples)["serve.cache.get_us"].push_back(Us(t0, t1));

  const double engine_before = EngineQuerySpanSeconds();
  t0 = Clock::now();
  auto future = batcher.Submit(query, kTopK);
  if (!future) return false;
  const lsi::serve::QueryBatcher::QueryResult result = future->get();
  t1 = Clock::now();
  const double engine_us = (EngineQuerySpanSeconds() - engine_before) * 1e6;
  children.push_back({"serve.batch.roundtrip", {t0, t1}});
  (*samples)["serve.batch.roundtrip_ms"].push_back(MsBetween(t0, t1));
  if (!result.ok()) return false;

  t0 = Clock::now();
  const std::string reply = HitsJson(result.value()).Serialize();
  t1 = Clock::now();
  children.push_back({"serve.json.serialize", {t0, t1}});
  (*samples)["serve.json.serialize_us"].push_back(Us(t0, t1));

  const std::uint64_t root =
      spans->Add("serve.request", 0, request, root_start, Clock::now());
  for (const auto& [name, interval] : children) {
    const std::uint64_t id =
        spans->Add(name, root, request, interval.first, interval.second);
    if (name == "serve.batch.roundtrip") {
      spans->AddMeasured("core.engine_query", id, request, engine_us);
    }
  }
  std::vector<Hit> wire;
  return !reply.empty() && ParseHits(reply, &wire) &&
         SameHits(wire, result.value());
}

/// The engine's query path rebuilt from LsiIndex's public calls:
/// fold-in, scoring with top-k, and the full-vector ranking step.
bool ReplayCorePath(const lsi::core::LsiEngine& engine,
                    const std::vector<double>& global_weights,
                    const std::string& query, SpanLog* spans,
                    std::map<std::string, std::vector<double>>* samples) {
  const lsi::core::LsiIndex& index = engine.index();
  const std::uint64_t request = spans->NewRequest();
  const Clock::time_point root_start = Clock::now();

  Clock::time_point t0 = Clock::now();
  const auto counts = engine.AnalyzeQueryCounts(query);
  lsi::linalg::DenseVector vector(engine.NumTerms(), 0.0);
  for (const auto& [term, count] : counts) {
    vector[term] =
        lsi::text::LocalTermWeight(engine.weighting(), count) *
        global_weights[term];
  }
  Clock::time_point t1 = Clock::now();
  std::vector<std::pair<std::string, std::pair<Clock::time_point,
                                               Clock::time_point>>> children;
  children.push_back({"core.analyze_weight", {t0, t1}});

  t0 = Clock::now();
  auto folded = index.FoldInQuery(vector);
  t1 = Clock::now();
  children.push_back({"core.fold_in", {t0, t1}});
  (*samples)["core.fold_in_ms"].push_back(MsBetween(t0, t1));

  t0 = Clock::now();
  auto top = index.Search(vector, kTopK);
  t1 = Clock::now();
  children.push_back({"core.search", {t0, t1}});
  (*samples)["core.search_ms"].push_back(MsBetween(t0, t1));
  const Clock::time_point root_end = Clock::now();

  // RankScores over this query's full score vector, rebuilt from an
  // unranked-size Search (top_k = 0 returns every live document).
  auto all = index.Search(vector, 0);
  if (!folded.ok() || !top.ok() || !all.ok()) return false;
  std::vector<double> scores(engine.NumDocuments(), 0.0);
  for (const lsi::core::SearchResult& r : all.value()) scores[r.document] = r.score;
  t0 = Clock::now();
  const auto ranked = lsi::core::RankScores(scores, kTopK);
  t1 = Clock::now();
  (*samples)["core.rank_ms"].push_back(MsBetween(t0, t1));

  t0 = Clock::now();
  auto hits = engine.Query(query, kTopK);
  t1 = Clock::now();
  (*samples)["core.engine_query_ms"].push_back(MsBetween(t0, t1));

  const std::size_t threads = lsi::par::Threads();
  lsi::par::SetThreads(1);
  t0 = Clock::now();
  auto serial = index.Search(vector, kTopK);
  t1 = Clock::now();
  (*samples)["core.search_ms.t1"].push_back(MsBetween(t0, t1));
  lsi::par::SetThreads(4);
  t0 = Clock::now();
  auto parallel = index.Search(vector, kTopK);
  t1 = Clock::now();
  (*samples)["core.search_ms.t4"].push_back(MsBetween(t0, t1));
  lsi::par::SetThreads(threads);

  const std::uint64_t root =
      spans->Add("core.query_path", 0, request, root_start, root_end);
  for (const auto& [name, interval] : children) {
    spans->Add(name, root, request, interval.first, interval.second);
  }

  // Every route to the answer must agree with LsiEngine::Query.
  if (!hits.ok() || !serial.ok() || !parallel.ok()) return false;
  const auto same = [&](const std::vector<lsi::core::SearchResult>& results) {
    if (results.size() != hits->size()) return false;
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (results[i].document != (*hits)[i].document ||
          results[i].score != (*hits)[i].score) {
        return false;
      }
    }
    return true;
  };
  return same(top.value()) && same(ranked) && same(serial.value()) &&
         same(parallel.value());
}

/// QueryBatch at the observed batch size, per query, at the given
/// thread count.
double BatchMsPerQuery(const lsi::core::LsiEngine& engine, const Synth& synth,
                       std::uint64_t* next_query, std::size_t batch,
                       std::size_t threads) {
  const std::size_t saved = lsi::par::Threads();
  lsi::par::SetThreads(threads);
  std::vector<double> per_query;
  for (std::size_t g = 0; g < kBatchGroups; ++g) {
    std::vector<std::string> queries;
    for (std::size_t i = 0; i < batch; ++i) {
      queries.push_back(synth.QueryText(Stream::kQuery, (*next_query)++));
    }
    const Clock::time_point t0 = Clock::now();
    auto results = engine.QueryBatch(queries, kTopK);
    const Clock::time_point t1 = Clock::now();
    if (results.ok()) {
      per_query.push_back(MsBetween(t0, t1) / static_cast<double>(batch));
    }
  }
  lsi::par::SetThreads(saved);
  return Median(per_query);
}

bool MeasureLive(const LayerContext& context,
                 std::map<std::string, std::vector<double>>* samples) {
  lsi::live::LiveEngine& live = *context.stack->live;
  Writer& writer = *context.writer;
  const Synth& synth = *context.synth;
  bool ok = true;
  for (std::size_t i = 0; i < kDirectWrites; ++i) {
    const std::uint64_t index = kDirectWriteOffset + 3 * i;
    const std::string add_name = writer.NextAddName();
    Clock::time_point t0 = Clock::now();
    auto added = live.Add(add_name,
                          synth.DocumentText(Stream::kWriteDocument, index));
    Clock::time_point t1 = Clock::now();
    (*samples)["live.write_ms.add"].push_back(MsBetween(t0, t1));
    if (added.ok()) writer.NoteDirect(OpKind::kAdd, add_name);
    ok = ok && added.ok();

    const std::string update_name = writer.PickTarget(index + 1, false);
    t0 = Clock::now();
    auto updated = live.Update(
        update_name, synth.DocumentText(Stream::kWriteDocument, index + 1));
    t1 = Clock::now();
    (*samples)["live.write_ms.update"].push_back(MsBetween(t0, t1));
    ok = ok && updated.ok();

    const std::string delete_name = writer.PickTarget(index + 2, true);
    t0 = Clock::now();
    auto deleted = live.Delete(delete_name);
    t1 = Clock::now();
    (*samples)["live.write_ms.delete"].push_back(MsBetween(t0, t1));
    if (deleted.ok()) writer.NoteDirect(OpKind::kDelete, delete_name);
    ok = ok && deleted.ok();
  }

  // The copy-on-write publish clones the whole engine; time that copy at
  // the current epoch's size.
  for (std::size_t i = 0; i < kClones; ++i) {
    const auto snapshot = live.Snapshot();
    const Clock::time_point t0 = Clock::now();
    lsi::core::LsiEngine copy = *snapshot;
    const Clock::time_point t1 = Clock::now();
    (*samples)["live.publish_clone_ms"].push_back(MsBetween(t0, t1));
    ok = ok && copy.NumDocuments() == snapshot->NumDocuments();
  }

  // Append + fsync of the same kind of records on a throwaway log.
  const std::string wal_path = context.work_dir + "/probe-wal.log";
  {
    auto wal = lsi::live::Wal::Open(wal_path, context.corpus->NumDocuments());
    if (!wal.ok()) return false;
    for (std::size_t i = 0; i < kWalAppends; ++i) {
      const std::string text =
          synth.DocumentText(Stream::kWriteDocument, kDirectWriteOffset + i);
      const Clock::time_point t0 = Clock::now();
      auto seq = (*wal)->Append(lsi::live::WalOp::kAdd, "s" + std::to_string(i),
                                text);
      const Clock::time_point t1 = Clock::now();
      (*samples)["live.wal_append_sync_ms"].push_back(MsBetween(t0, t1));
      ok = ok && seq.ok();
    }
    ok = (*wal)->Close().ok() && ok;
  }
  std::error_code ignored;
  std::filesystem::remove(wal_path, ignored);
  return ok;
}

bool MeasureRouted(const LayerContext& context, std::uint64_t* next_query,
                   SpanLog* spans,
                   std::map<std::string, std::vector<double>>* samples) {
  Stack& stack = *context.stack;
  const std::size_t shards = stack.servers.size();
  std::vector<std::unique_ptr<Client>> backends;
  for (const auto& server : stack.servers) {
    backends.push_back(std::make_unique<Client>(server->port()));
  }
  Client router(stack.port);
  bool ok = true;
  for (std::size_t r = 0; r < kRoutedReplays; ++r) {
    const std::string query =
        context.synth->QueryText(Stream::kQuery, (*next_query)++);
    const std::string body = QueryBody(query);
    // Scatter straight to every backend, as the router would.
    std::vector<double> latency(shards, 0.0);
    std::vector<std::vector<Hit>> per_shard(shards);
    std::vector<char> shard_ok(shards, 0);  // Not vector<bool>: written concurrently.
    std::vector<std::thread> threads;
    for (std::size_t s = 0; s < shards; ++s) {
      threads.emplace_back([&, s] {
        const Clock::time_point t0 = Clock::now();
        const Reply reply = backends[s]->Call("POST", "/query", body);
        latency[s] = MsBetween(t0, Clock::now());
        shard_ok[s] = reply.status == 200 && ParseHits(reply.body, &per_shard[s]);
      });
    }
    for (std::thread& thread : threads) thread.join();
    const double slowest = *std::max_element(latency.begin(), latency.end());
    (*samples)["shard.backend_query_ms"].push_back(slowest);

    // The same query through the router, with the backends' caches
    // emptied so they compute it again.
    for (const auto& service : stack.services) service->cache().Clear();
    const std::uint64_t request = spans->NewRequest();
    const Clock::time_point t0 = Clock::now();
    const Reply routed = router.Call("POST", "/query", body);
    const Clock::time_point t1 = Clock::now();
    const std::uint64_t root = spans->Add("shard.route", 0, request, t0, t1);
    spans->AddMeasured("serve.backend_slowest", root, request, slowest * 1e3);
    (*samples)["shard.router_overhead_ms"].push_back(MsBetween(t0, t1) -
                                                     slowest);

    std::vector<std::vector<lsi::core::EngineHit>> sources(shards);
    for (std::size_t s = 0; s < shards; ++s) {
      ok = ok && shard_ok[s] != 0;
      for (const Hit& hit : per_shard[s]) {
        sources[s].push_back({hit.name, hit.document, hit.score});
      }
    }
    const Clock::time_point m0 = Clock::now();
    const auto merged = lsi::core::MergeTopKHits(std::move(sources), kTopK);
    const Clock::time_point m1 = Clock::now();
    (*samples)["core.merge_us"].push_back(Us(m0, m1));
    std::vector<Hit> routed_hits;
    ok = ok && routed.status == 200 && ParseHits(routed.body, &routed_hits) &&
         SameHits(routed_hits, merged);
  }
  return ok;
}

}  // namespace

std::uint64_t SpanLog::Add(const std::string& name, std::uint64_t parent,
                           std::uint64_t request, Clock::time_point start,
                           Clock::time_point end) {
  const std::uint64_t id = spans_.size() + 1;
  spans_.push_back({id, parent, request, name, Us(origin_, start),
                    Us(start, end)});
  return id;
}

std::uint64_t SpanLog::AddMeasured(const std::string& name,
                                   std::uint64_t parent, std::uint64_t request,
                                   double duration_us) {
  const std::uint64_t id = spans_.size() + 1;
  spans_.push_back({id, parent, request, name, -1.0, duration_us});
  return id;
}

std::vector<std::pair<std::string, double>> SpanLog::LayerSelfTimesMs() const {
  std::map<std::uint64_t, double> child_us;
  for (const Span& span : spans_) {
    if (span.parent != 0) child_us[span.parent] += span.duration_us;
  }
  // (layer, request) -> self time.
  std::map<std::string, std::map<std::uint64_t, double>> per_layer;
  for (const Span& span : spans_) {
    const std::string layer = span.name.substr(0, span.name.find('.'));
    const auto it = child_us.find(span.id);
    const double self =
        span.duration_us - (it == child_us.end() ? 0.0 : it->second);
    per_layer[layer][span.request] += self;
  }
  std::vector<std::pair<std::string, double>> out;
  for (const auto& [layer, requests] : per_layer) {
    std::vector<double> values;
    for (const auto& [request, us] : requests) values.push_back(us / 1e3);
    out.emplace_back(layer, Median(values));
  }
  return out;
}

bool MeasureLayers(const LayerContext& context, Metrics* metrics,
                   SpanLog* spans) {
  const auto engine = context.stack->QueryEngine();
  std::map<std::string, std::vector<double>> samples;
  std::uint64_t next_query = context.first_query;
  bool ok = true;

  {
    lsi::serve::QueryBatcher batcher(*engine);
    for (std::size_t r = 0; r < kReplays; ++r) {
      const std::string query =
          context.synth->QueryText(Stream::kQuery, next_query++);
      ok = ReplayServePath(context, *engine, batcher, query, spans, &samples) &&
           ok;
    }
    batcher.Stop();
  }

  // The live snapshot's global weights move with every refresh and are
  // not public, so the fold-in/score replay runs on the static engines
  // only; search-cold measures the same code.
  if (context.workload != Workload::kLiveMixed) {
    const std::vector<double> global_weights = lsi::text::ComputeGlobalWeights(
        *context.corpus, engine->weighting());
    for (std::size_t r = 0; r < kReplays; ++r) {
      const std::string query =
          context.synth->QueryText(Stream::kQuery, next_query++);
      ok = ReplayCorePath(*engine, global_weights, query, spans, &samples) &&
           ok;
    }
  }

  const std::size_t batch = static_cast<std::size_t>(
      std::max(1.0, std::round(context.observed_batch_size)));
  metrics->Set("core.batch_query_ms_per_query",
               BatchMsPerQuery(*engine, *context.synth, &next_query, batch,
                               lsi::par::Threads()),
               "ms");
  metrics->Set("core.batch_query_ms_per_query.t1",
               BatchMsPerQuery(*engine, *context.synth, &next_query, batch, 1),
               "ms");
  metrics->Set("core.batch_query_ms_per_query.t4",
               BatchMsPerQuery(*engine, *context.synth, &next_query, batch, 4),
               "ms");

  if (context.workload == Workload::kLiveMixed) {
    ok = MeasureLive(context, &samples) && ok;
  }
  if (context.workload == Workload::kRoutedCold) {
    ok = MeasureRouted(context, &next_query, spans, &samples) && ok;
  }

  for (const auto& [name, values] : samples) {
    const std::string unit = name.find("_us") != std::string::npos ? "us"
                                                                    : "ms";
    metrics->Set(name, Median(values), unit);
  }
  return ok;
}

double CounterDelta(const lsi::obs::MetricsSnapshot& before,
                    const lsi::obs::MetricsSnapshot& after,
                    const std::string& name) {
  const auto find = [&](const lsi::obs::MetricsSnapshot& s) -> double {
    for (const auto& [key, value] : s.counters) {
      if (key == name) return static_cast<double>(value);
    }
    for (const auto& [key, value] : s.gauges) {
      if (key == name) return value;
    }
    return 0.0;
  };
  return find(after) - find(before);
}

double HistogramDeltaMean(const lsi::obs::MetricsSnapshot& before,
                          const lsi::obs::MetricsSnapshot& after,
                          const std::string& name) {
  const auto find = [&](const lsi::obs::MetricsSnapshot& s) {
    for (const auto& h : s.histograms) {
      if (h.name == name) return std::make_pair(h.count, h.sum);
    }
    return std::make_pair(std::uint64_t{0}, 0.0);
  };
  const auto [count_before, sum_before] = find(before);
  const auto [count_after, sum_after] = find(after);
  if (count_after <= count_before) return 0.0;
  return (sum_after - sum_before) /
         static_cast<double>(count_after - count_before);
}

}  // namespace lsibench
