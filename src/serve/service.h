#ifndef LSI_SERVE_SERVICE_H_
#define LSI_SERVE_SERVICE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.h"
#include "live/live_engine.h"
#include "live/wal.h"
#include "serve/batcher.h"
#include "serve/http.h"
#include "serve/json.h"
#include "serve/query_cache.h"

namespace lsi::serve {

/// Options for the request-handling layer (transport options live in
/// ServerOptions).
struct ServiceOptions {
  QueryCacheOptions cache;
  BatcherOptions batch;
  /// top_k when a request body omits it.
  std::size_t default_top_k = 10;
  /// Requests asking for more than this are rejected with 400.
  std::size_t max_top_k = 1000;
  /// Upper bound on "queries" array length in one /query body.
  std::size_t max_queries_per_request = 64;
  /// Live mode: largest accepted /add // /update document text.
  std::size_t max_document_bytes = 1 << 20;
  /// Live mode: write requests in flight beyond this answer 503.
  std::size_t max_pending_writes = 64;
};

/// The HTTP-facing application layer: routes requests to a loaded
/// LsiEngine through the micro-batcher and result cache. Transport-free
/// and deterministic, so tests can drive it with plain HttpRequest
/// values; HttpServer plugs Handle() in as its handler.
///
/// Routes:
///   POST /query    {"query": "...", "top_k": 10}            -> {"hits": [...]}
///                  {"queries": ["...", ...], "top_k": 10}   -> {"results": [[...], ...]}
///   POST /related  {"term": "...", "top_k": 10}             -> {"related": [...]}
///   GET  /healthz  liveness probe, "ok"
///   GET  /statusz  JSON snapshot: engine shape, queue, cache, totals
///   GET  /metrics  Prometheus exposition of the global registry
///
/// Live mode (constructed over a live::LiveEngine) adds write routes;
/// on a read-only service they answer 403:
///   POST /add      {"name": "...", "text": "..."}  -> {"seq", "document", "epoch"}
///   POST /delete   {"name": "..."}                 -> {"seq", "removed", "epoch"}
///   POST /update   {"name": "...", "text": "..."}  -> {"seq", "document", "removed", "epoch"}
/// Queries in live mode run against epoch snapshots (never blocking on
/// writers), and cache keys embed the epoch so a publish invalidates
/// naturally.
class LsiService {
 public:
  LsiService(const core::LsiEngine& engine, ServiceOptions options = {});

  /// Live mode: queries hit live.Snapshot(), writes reach the WAL. The
  /// caller keeps `live` alive for the service's lifetime and remains
  /// responsible for live.Close() at shutdown (Shutdown() flushes but
  /// does not close, so a drained service can still be queried).
  LsiService(live::LiveEngine& live, ServiceOptions options = {});

  /// Handles one parsed request. `deadline` bounds how long the handler
  /// may wait on the batcher; exceeding it yields a 504.
  HttpResponse Handle(const HttpRequest& request,
                      std::chrono::steady_clock::time_point deadline);

  /// Stops the batcher, flushing queued queries, and — in live mode —
  /// publishes any pending live-write epoch so every acknowledged write
  /// is visible and durable before the process exits. Handle() calls
  /// arriving afterwards answer 503.
  void Shutdown();

  QueryCache& cache() { return cache_; }
  QueryBatcher& batcher() { return batcher_; }

 private:
  LsiService(const core::LsiEngine* engine, live::LiveEngine* live,
             ServiceOptions options);

  HttpResponse HandleQuery(const HttpRequest& request,
                           std::chrono::steady_clock::time_point deadline);
  HttpResponse HandleRelated(const HttpRequest& request);
  HttpResponse HandleWrite(live::WalOp op, const HttpRequest& request);
  HttpResponse HandleStatusz();

  /// The engine this request should see: the live epoch snapshot, or a
  /// non-owning alias of the fixed engine.
  QueryBatcher::EngineSnapshot CurrentEngine() const;

  /// Cache key for `query` against `engine`. Live mode appends the
  /// epoch: keys from superseded epochs age out of the LRU unread.
  std::string CacheKey(const core::LsiEngine& engine,
                       const std::string& query, std::size_t top_k) const;

  /// Runs one query through cache + batcher. Returns a Result so the
  /// multi-query path can aggregate; deadline overruns surface as a
  /// synthetic status with code kFailedPrecondition tagged by message.
  Result<std::vector<core::EngineHit>> RunQuery(
      const std::string& query, std::size_t top_k,
      std::chrono::steady_clock::time_point deadline);

  const core::LsiEngine* engine_;  ///< Read-only mode; null in live mode.
  live::LiveEngine* live_;         ///< Live mode; null in read-only mode.
  ServiceOptions options_;
  QueryCache cache_;
  QueryBatcher batcher_;
  std::atomic<std::size_t> inflight_writes_{0};
  std::chrono::steady_clock::time_point start_time_;
};

/// {"error": "<message>"} with the right content type.
HttpResponse JsonError(int status, std::string_view message);

/// 200 with a JSON `body`.
HttpResponse JsonOk(std::string body);

/// 405 naming the `allow`ed method.
HttpResponse MethodNotAllowed(const char* allow);

/// 503 with `Retry-After: 1`.
HttpResponse RetryLater(std::string_view message);

/// Renders hits as [{"document", "name", "score"}, ...]. The shard
/// router renders its merged hits with this same function, which is what
/// keeps a routed answer byte-identical to an unsharded one.
JsonValue HitsToJson(const std::vector<core::EngineHit>& hits);

/// Extracts an optional positive-integer top_k from a parsed body.
/// Returns false (with `*error` set) on a malformed value.
bool ExtractTopK(const JsonValue& body, std::size_t default_top_k,
                 std::size_t max_top_k, std::size_t* top_k,
                 std::string* error);

}  // namespace lsi::serve

#endif  // LSI_SERVE_SERVICE_H_
