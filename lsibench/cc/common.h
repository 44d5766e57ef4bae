// Shared types of the benchmark program: timing helpers, the metric list
// a run prints, parsed search hits and the serving stacks under test.

#ifndef LSIBENCH_COMMON_H_
#define LSIBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "live/live_engine.h"
#include "serve/server.h"
#include "serve/service.h"
#include "shard/router.h"
#include "shard/shard_set.h"

namespace lsibench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Nearest-rank quantile of `values` (sorted in place); 0 when empty.
inline double Quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  std::size_t rank = static_cast<std::size_t>(
      q * static_cast<double>(values.size()) + 0.999999999);
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

inline double Median(std::vector<double> values) {
  return Quantile(values, 0.5);
}

/// Ordered name -> (value, unit) list, printed in insertion order.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    for (auto& entry : entries_) {
      if (entry.name == name) {
        entry.value = value;
        entry.unit = unit;
        return;
      }
    }
    entries_.push_back({name, value, unit});
  }
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

/// One search hit as the wire carries it.
struct Hit {
  std::size_t document = 0;
  std::string name;
  double score = 0.0;
};

/// Parses {"hits":[{"document":..,"name":..,"score":..},...]}.
bool ParseHits(const std::string& body, std::vector<Hit>* hits);

/// True when `hits` holds at most `top_k` entries ordered by score
/// descending, then document id ascending — the engine's ranking order.
bool WellOrdered(const std::vector<Hit>& hits, std::size_t top_k);

/// Exact equality of ids, names and scores (the wire prints %.17g, so a
/// double survives the round trip bit for bit).
bool SameHits(const std::vector<Hit>& wire,
              const std::vector<lsi::core::EngineHit>& expected);

/// The serving stack a workload runs against, torn down in dependency
/// order by Stop(). Exactly one of engine / live / shards is set.
struct Stack {
  std::unique_ptr<lsi::core::LsiEngine> engine;
  std::unique_ptr<lsi::live::LiveEngine> live;
  std::unique_ptr<lsi::shard::ShardSet> shards;
  // One service + server per engine: the single engine, the live engine,
  // or each shard backend.
  std::vector<std::unique_ptr<lsi::serve::LsiService>> services;
  std::vector<std::unique_ptr<lsi::serve::HttpServer>> servers;
  std::unique_ptr<lsi::shard::Router> router;
  std::unique_ptr<lsi::serve::HttpServer> router_server;
  int port = 0;  // Where the load generator sends requests.

  Stack() = default;
  ~Stack() { Stop(); }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// Stops serving and releases the servers, services and live engine;
  /// idempotent.
  void Stop();

  /// The engine the query path reads right now.
  std::shared_ptr<const lsi::core::LsiEngine> QueryEngine() const;
};

}  // namespace lsibench

#endif  // LSIBENCH_COMMON_H_
