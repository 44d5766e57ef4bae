#ifndef LSI_SHARD_ROUTER_H_
#define LSI_SHARD_ROUTER_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/lock_ranks.h"
#include "common/mutex.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "serve/http.h"
#include "serve/query_cache.h"
#include "shard/breaker.h"

namespace lsi::shard {

/// What the router answers when some shards fail inside the deadline.
///
///   kFail    — the request fails closed: 503 + Retry-After, nothing
///              partial ever leaves the router.
///   kDegrade — the request fails open: 200 over the surviving shards,
///              flagged with "shards_ok"/"shards_total" in the body and
///              an `X-Lsi-Partial: true` header so callers (and the
///              query cache, which refuses partials) can tell it from a
///              full answer.
enum class PartialPolicy { kFail, kDegrade };

struct RouterOptions {
  /// shards[s] lists replica addresses "host:port" (numeric IPv4) for
  /// shard s; the first replica is primary, later ones are hedge/retry
  /// targets. At least one shard with one replica is required.
  std::vector<std::vector<std::string>> shards;
  PartialPolicy partial = PartialPolicy::kDegrade;
  /// Health prober cadence and per-probe budget.
  std::chrono::milliseconds health_interval{1000};
  std::chrono::milliseconds probe_timeout{500};
  /// Hedge delay = clamp(p95 of the shard's recent latencies,
  /// hedge_min, ∞); hedge_initial is used until enough samples exist.
  std::chrono::milliseconds hedge_min{20};
  std::chrono::milliseconds hedge_initial{100};
  BreakerOptions breaker;
  /// Full-result cache (partials are refused by QueryCache itself).
  serve::QueryCacheOptions cache;
  /// Seeds backoff/hedge jitter deterministically.
  std::uint64_t seed = 0x51a24d;
};

/// Scatter-gather router over shard backends speaking the lsi::serve
/// HTTP protocol.
///
/// Handle() plugs into HttpServer exactly like LsiService::Handle and
/// serves the same read routes (/query, /healthz, /statusz, /metrics).
/// A /query fans out to every shard with the remaining deadline budget
/// propagated in X-Lsi-Deadline-Ms (backends shed what they cannot
/// finish with 504), drives all fetches from the handler thread in one
/// poll loop, hedges slow shards once to the next replica after a
/// p95-derived delay, and merges per-shard top-k lists with
/// core::MergeTopKHits — bit-identical to the unsharded answer when
/// every shard reports in (see ShardSet). Per-replica three-state
/// breakers (fed by query outcomes and a background /healthz prober
/// with capped-jittered-backoff re-probes) keep dead backends out of
/// the scatter path.
///
/// Emits lsi.shard.* metrics: requests/hedges/partials/failures/probes
/// counters, per-shard lsi.shard.<s>.latency_ms histograms, and
/// per-replica lsi.shard.breaker.<s>.<r> state gauges (0 healthy,
/// 1 degraded, 2 ejected).
class Router {
 public:
  explicit Router(RouterOptions options);
  ~Router();
  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Validates the shard list and starts the health prober.
  Status Start();

  /// Stops the prober; idempotent, also run by the destructor.
  void Stop();

  /// HttpServer-compatible request handler.
  serve::HttpResponse Handle(const serve::HttpRequest& request,
                             std::chrono::steady_clock::time_point deadline);

  std::size_t num_shards() const { return num_shards_; }

  /// Test seams: breaker state snapshot and a synchronous probe sweep
  /// (what the background prober runs each tick).
  BreakerState ReplicaState(std::size_t shard, std::size_t replica) const;
  void ProbeNow();

 private:
  struct Replica {
    std::string address;  // As configured, for /statusz.
    std::string host;
    int port = 0;
    Breaker breaker;
    obs::Gauge* state_gauge = nullptr;
  };
  struct ShardGroup {
    std::vector<Replica> replicas;
    /// Ring of recent scatter latencies feeding the hedge delay.
    std::vector<double> latency_ring;
    std::size_t latency_count = 0;
    obs::Histogram* latency_hist = nullptr;
  };
  /// One shard's result from a scatter.
  struct ShardOutcome {
    bool ok = false;
    /// A backend's 4xx status, relayed to the client with `body`; 0 if
    /// no backend rejected the request.
    int client_error = 0;
    std::string body;
  };

  serve::HttpResponse HandleQuery(
      const serve::HttpRequest& request,
      std::chrono::steady_clock::time_point deadline);
  serve::HttpResponse HandleStatusz();

  /// Scatter-gathers `forward_body` (a /query JSON body) to every
  /// shard; outcomes[s] reports shard s. Runs entirely on the calling
  /// thread.
  std::vector<ShardOutcome> Scatter(
      const std::string& forward_body,
      std::chrono::steady_clock::time_point deadline);

  /// Dispatch order for a shard's replicas (healthy, then degraded;
  /// ejected skipped) plus the hedge delay, read under the state lock.
  std::vector<std::size_t> DispatchPlan(std::size_t shard,
                                        double* hedge_delay_ms);
  void RecordOutcome(std::size_t shard, std::size_t replica, bool ok,
                     long retry_after_ms, double latency_ms);
  void ProbeLoop();

  RouterOptions options_;
  serve::QueryCache cache_;
  std::chrono::steady_clock::time_point start_time_;

  mutable Mutex mutex_{
      LSI_LOCK_RANK("shard.router.state", lock_rank::kShardRouterState)};
  CondVar probe_cv_;
  bool stopping_ LSI_GUARDED_BY(mutex_) = false;
  std::vector<ShardGroup> shards_ LSI_GUARDED_BY(mutex_);

  std::size_t num_shards_ = 0;  // == shards_.size(), immutable after ctor.
  bool started_ = false;
  std::thread prober_;

  obs::Counter* requests_ = nullptr;
  obs::Counter* hedges_ = nullptr;
  obs::Counter* partials_ = nullptr;
  obs::Counter* failures_ = nullptr;
  obs::Counter* probes_ = nullptr;
};

}  // namespace lsi::shard

#endif  // LSI_SHARD_ROUTER_H_
