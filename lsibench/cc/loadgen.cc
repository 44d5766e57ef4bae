#include "loadgen.h"

#include <cmath>
#include <mutex>
#include <thread>

#include "serve/json.h"

namespace lsibench {
namespace {

constexpr std::chrono::milliseconds kReaderStagger{13};
// Mean of the exponential think time a closed-loop reader waits before
// each request. Without it the four readers phase-lock into repeating
// micro-batch patterns (4, 2+2, 1+3, ...) whose throughputs differ by up
// to 2x, and a run measures whichever pattern it fell into.
constexpr double kMeanThinkMs = 3.0;
constexpr double kMaxThinkMs = 20.0;

/// Seeded think time before query `index`.
std::chrono::microseconds ThinkTime(std::uint64_t seed, std::uint64_t index) {
  lsi::Rng rng = StreamRng(seed, Stream::kThink, index);
  const double ms =
      std::min(kMaxThinkMs, -kMeanThinkMs * std::log(1.0 - rng.NextDouble()));
  return std::chrono::microseconds(static_cast<std::int64_t>(ms * 1e3));
}

/// Sends one query and validates the reply's shape and order.
bool RunQuery(Client& client, const std::string& query,
              std::vector<Hit>* hits) {
  const Reply reply = client.Call("POST", "/query", QueryBody(query));
  if (reply.status < 200 || reply.status >= 300) return false;
  return ParseHits(reply.body, hits) && WellOrdered(*hits, kTopK);
}

/// Merges per-thread results under one lock.
class Collector {
 public:
  void Add(WindowResult&& part) {
    std::lock_guard<std::mutex> lock(mutex_);
    for (Op& op : part.ops) result_.ops.push_back(op);
    for (Sample& sample : part.samples) {
      result_.samples.push_back(std::move(sample));
    }
  }
  WindowResult Take(double seconds) {
    result_.seconds = seconds;
    return std::move(result_);
  }

 private:
  std::mutex mutex_;
  WindowResult result_;
};

}  // namespace

std::string QueryBody(const std::string& query) {
  return "{\"query\":" + lsi::serve::JsonQuote(query) +
         ",\"top_k\":" + std::to_string(kTopK) + "}";
}

Writer::Writer(const Synth& synth, std::uint64_t seed,
               std::size_t base_documents)
    : synth_(synth), seed_(seed) {
  alive_.reserve(base_documents);
  for (std::size_t d = 0; d < base_documents; ++d) {
    alive_.push_back("d" + std::to_string(d));
  }
}

std::string Writer::PickTarget(std::uint64_t index, bool remove) {
  lsi::Rng rng = StreamRng(seed_, Stream::kWriteTarget, index);
  const std::size_t at =
      static_cast<std::size_t>(rng.NextUint64Below(alive_.size()));
  std::string name = alive_[at];
  if (remove) {
    alive_[at] = alive_.back();
    alive_.pop_back();
  }
  return name;
}

void Writer::NoteDirect(OpKind kind, const std::string& name) {
  if (kind == OpKind::kAdd) {
    alive_.push_back(name);
    ++adds_;
  } else if (kind == OpKind::kDelete) {
    ++deletes_;
  }
}

Op Writer::Next(Client& client, Clock::time_point window_start) {
  // add, add, add, update, delete: the 3:1:1 mix.
  static constexpr OpKind kCycle[] = {OpKind::kAdd, OpKind::kAdd, OpKind::kAdd,
                                      OpKind::kUpdate, OpKind::kDelete};
  const std::uint64_t index = next_op_++;
  Op op;
  op.kind = kCycle[index % 5];
  std::string path;
  std::string name;
  lsi::serve::JsonValue::Object body;
  switch (op.kind) {
    case OpKind::kAdd:
      path = "/add";
      name = NextAddName();
      break;
    case OpKind::kUpdate:
      path = "/update";
      name = PickTarget(index, /*remove=*/false);
      break;
    case OpKind::kDelete:
      path = "/delete";
      name = PickTarget(index, /*remove=*/true);
      break;
    case OpKind::kQuery:
      break;
  }
  body.emplace_back("name", lsi::serve::JsonValue(name));
  if (op.kind != OpKind::kDelete) {
    body.emplace_back("text", lsi::serve::JsonValue(synth_.DocumentText(
                                  Stream::kWriteDocument, index)));
  }
  const std::string payload = lsi::serve::JsonValue(std::move(body)).Serialize();

  const Clock::time_point start = Clock::now();
  const Reply reply = client.Call("POST", path, payload);
  const Clock::time_point done = Clock::now();
  op.start_ms = MsBetween(window_start, start);
  op.latency_ms = MsBetween(start, done);
  if (reply.status >= 200 && reply.status < 300) {
    auto receipt = lsi::serve::JsonValue::Parse(reply.body);
    const lsi::serve::JsonValue* epoch =
        receipt.ok() ? receipt->Find("epoch") : nullptr;
    if (epoch != nullptr && epoch->is_number()) {
      const auto value = static_cast<std::uint64_t>(epoch->number());
      if (value < last_epoch_) ++epoch_regressions_;
      last_epoch_ = std::max(last_epoch_, value);
      op.ok = true;
      if (op.kind == OpKind::kAdd) {
        alive_.push_back(name);
        ++adds_;
      } else if (op.kind == OpKind::kDelete) {
        ++deletes_;
      }
    }
  }
  return op;
}

WindowResult RunClosed(const ClosedPlan& plan) {
  Collector collector;
  std::vector<std::thread> threads;
  const Clock::time_point begin = Clock::now();
  for (std::size_t r = 0; r < plan.readers; ++r) {
    threads.emplace_back([&, r] {
      // Staggered first sends: clients that start in lockstep keep
      // landing in one micro-batch, a phase-locked state that runs
      // about twice as fast as the steady state and can persist for
      // seconds (README.md, "Closed-loop phase locking").
      std::this_thread::sleep_until(begin + r * kReaderStagger);
      Client client(plan.port);
      WindowResult part;
      std::vector<Hit> hits;
      while (Clock::now() < plan.end) {
        const std::uint64_t index = plan.next_query->fetch_add(1);
        const std::string query = plan.query_text(index);
        std::this_thread::sleep_for(ThinkTime(plan.seed, index));
        const Clock::time_point start = Clock::now();
        const bool ok = RunQuery(client, query, &hits);
        const Clock::time_point done = Clock::now();
        if (start < plan.window_start) continue;  // Warm-up.
        Op op;
        op.start_ms = MsBetween(plan.window_start, start);
        op.latency_ms = MsBetween(start, done);
        op.ok = ok;
        part.ops.push_back(op);
        if (ok && plan.sampler->Pick(index)) {
          part.samples.push_back({query, hits});
        }
      }
      collector.Add(std::move(part));
    });
  }
  if (plan.writer != nullptr) {
    threads.emplace_back([&] {
      Client client(plan.port);
      WindowResult part;
      while (Clock::now() < plan.end) {
        Op op = plan.writer->Next(client, plan.window_start);
        if (op.start_ms >= 0.0) part.ops.push_back(op);
      }
      collector.Add(std::move(part));
    });
  }
  for (std::thread& thread : threads) thread.join();
  return collector.Take(MsBetween(plan.window_start, plan.end) / 1e3);
}

WindowResult RunOpen(const OpenPlan& plan) {
  Collector collector;
  std::atomic<std::size_t> next{plan.first_arrival};
  std::atomic<std::size_t> first_unsent{plan.arrival_s->size()};
  const double base_s = (*plan.arrival_s)[plan.first_arrival];
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < plan.connections; ++c) {
    threads.emplace_back([&] {
      Client client(plan.port);
      WindowResult part;
      std::vector<Hit> hits;
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= plan.arrival_s->size()) break;
        const Clock::time_point due =
            plan.origin + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(
                                  (*plan.arrival_s)[i] - base_s));
        if (due >= plan.end) {
          std::size_t seen = first_unsent.load();
          while (i < seen && !first_unsent.compare_exchange_weak(seen, i)) {
          }
          break;
        }
        std::this_thread::sleep_until(due);
        const std::string& query = (*plan.pool)[(*plan.pick)[i]];
        const Clock::time_point sent = Clock::now();
        const bool ok = RunQuery(client, query, &hits);
        const Clock::time_point done = Clock::now();
        if (due < plan.window_start) continue;  // Warm-up.
        Op op;
        op.start_ms = MsBetween(plan.window_start, due);
        op.latency_ms = MsBetween(due, done);
        op.lag_ms = MsBetween(due, sent);
        op.ok = ok;
        part.ops.push_back(op);
        if (ok && plan.sampler->Pick(i)) part.samples.push_back({query, hits});
      }
      collector.Add(std::move(part));
    });
  }
  for (std::thread& thread : threads) thread.join();
  // Every connection stops at its first arrival at or past `end`; the
  // smallest such index is where the next window continues.
  *plan.next_arrival = first_unsent.load();
  return collector.Take(MsBetween(plan.window_start, plan.end) / 1e3);
}

}  // namespace lsibench
