// The load generator: closed-loop readers (and the live-mixed writer)
// and the open-loop Poisson sender, all over loopback keep-alive HTTP.

#ifndef LSIBENCH_LOADGEN_H_
#define LSIBENCH_LOADGEN_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "client.h"
#include "common.h"
#include "synth.h"

namespace lsibench {

inline constexpr std::size_t kTopK = 10;

/// The /query request body for `query` with top_k = kTopK.
std::string QueryBody(const std::string& query);

enum class OpKind : std::uint8_t { kQuery, kAdd, kUpdate, kDelete };

/// One operation whose (scheduled) start fell inside the timed window.
struct Op {
  OpKind kind = OpKind::kQuery;
  double start_ms = 0.0;    // Since the window opened.
  double latency_ms = 0.0;  // From the scheduled send time.
  double lag_ms = 0.0;      // Open loop: actual send minus scheduled.
  bool ok = false;          // 2xx and a well-formed, well-ordered reply.
};

/// A query response kept for the post-run oracle.
struct Sample {
  std::string query;
  std::vector<Hit> hits;
};

struct WindowResult {
  std::vector<Op> ops;
  std::vector<Sample> samples;
  double seconds = 0.0;
};

/// Which requests the oracle checks: a seeded 1-in-`every` choice.
class Sampler {
 public:
  Sampler(std::uint64_t seed, std::uint64_t every)
      : seed_(seed), every_(every) {}
  bool Pick(std::uint64_t index) const {
    return StreamRng(seed_, Stream::kSample, index).NextUint64Below(every_) ==
           0;
  }

 private:
  std::uint64_t seed_;
  std::uint64_t every_;
};

/// The live-mixed writer: cycles add, add, add, update, delete over
/// model-sampled documents and keeps the client-side ledger the
/// post-run consistency check compares against.
class Writer {
 public:
  Writer(const Synth& synth, std::uint64_t seed, std::size_t base_documents);

  /// Sends the next write; returns it as an Op (start/latency filled).
  Op Next(Client& client, Clock::time_point window_start);

  std::uint64_t adds() const { return adds_; }
  std::uint64_t deletes() const { return deletes_; }
  std::uint64_t epoch_regressions() const { return epoch_regressions_; }
  /// Direct in-process writes made by the traced run, kept in the ledger.
  void NoteDirect(OpKind kind, const std::string& name);
  /// A live document name to update or delete (removed from the ledger
  /// when `remove`).
  std::string PickTarget(std::uint64_t index, bool remove);
  std::string NextAddName() { return "w" + std::to_string(next_add_++); }

 private:
  const Synth& synth_;
  std::uint64_t seed_;
  std::vector<std::string> alive_;
  std::uint64_t next_op_ = 0;
  std::uint64_t next_add_ = 0;
  std::uint64_t adds_ = 0;
  std::uint64_t deletes_ = 0;
  std::uint64_t last_epoch_ = 0;
  std::uint64_t epoch_regressions_ = 0;
};

struct ClosedPlan {
  int port = 0;
  std::uint64_t seed = 0;
  std::size_t readers = 4;
  Writer* writer = nullptr;  // Set for live-mixed: one extra connection.
  std::function<std::string(std::uint64_t)> query_text;
  std::atomic<std::uint64_t>* next_query = nullptr;
  const Sampler* sampler = nullptr;
  Clock::time_point window_start;
  Clock::time_point end;
};

/// Closed loop: each connection sends its next request a short seeded
/// think time after the previous one completes, until `end`. Only operations started at or
/// after `window_start` are returned.
WindowResult RunClosed(const ClosedPlan& plan);

struct OpenPlan {
  int port = 0;
  std::size_t connections = 4;
  const std::vector<std::string>* pool = nullptr;
  const std::vector<double>* arrival_s = nullptr;   // Offsets, ascending.
  const std::vector<std::uint32_t>* pick = nullptr;  // Pool index per arrival.
  std::size_t first_arrival = 0;
  const Sampler* sampler = nullptr;
  Clock::time_point origin;  // Time of arrival `first_arrival`.
  Clock::time_point window_start;
  Clock::time_point end;
  std::size_t* next_arrival = nullptr;  // Out: first arrival not sent.
};

/// Open loop: arrival i is due at origin + arrival_s[i] - arrival_s[first]
/// whether or not earlier requests have completed; a request waits for
/// a free connection, and that wait counts in its latency.
WindowResult RunOpen(const OpenPlan& plan);

}  // namespace lsibench

#endif  // LSIBENCH_LOADGEN_H_
