#include "shard/router.h"

#include <poll.h>

#include <algorithm>
#include <memory>
#include <utility>

#include "common/fault.h"
#include "common/logging.h"
#include "common/timer.h"
#include "core/engine.h"
#include "obs/export.h"
#include "serve/json.h"
#include "serve/retry.h"
#include "serve/service.h"
#include "shard/fetch.h"

namespace lsi::shard {
namespace {

using serve::HitsToJson;
using serve::JsonOk;
using serve::MethodNotAllowed;
using serve::RetryLater;
using std::chrono::steady_clock;

/// Parses one backend hits array back into EngineHits (the inverse of
/// serve::HitsToJson). False on shape mismatch.
bool ParseHits(const serve::JsonValue& array,
               std::vector<core::EngineHit>* out) {
  if (!array.is_array()) return false;
  out->clear();
  out->reserve(array.array().size());
  for (const serve::JsonValue& item : array.array()) {
    if (!item.is_object()) return false;
    const serve::JsonValue* document = item.Find("document");
    const serve::JsonValue* name = item.Find("name");
    const serve::JsonValue* score = item.Find("score");
    if (document == nullptr || !document->is_number() || name == nullptr ||
        !name->is_string() || score == nullptr || !score->is_number()) {
      return false;
    }
    core::EngineHit hit;
    hit.document = static_cast<std::size_t>(document->number());
    hit.document_name = name->string_value();
    hit.score = score->number();
    out->push_back(std::move(hit));
  }
  return true;
}

std::string SerializeForward(const std::string& host_header,
                             const std::string& body, long budget_ms) {
  std::string out = "POST /query HTTP/1.1\r\nHost: " + host_header +
                    "\r\nContent-Type: application/json\r\nContent-Length: " +
                    std::to_string(body.size()) +
                    "\r\nX-Lsi-Deadline-Ms: " + std::to_string(budget_ms) +
                    "\r\nConnection: close\r\n\r\n" + body;
  return out;
}

int BreakerStateValue(BreakerState state) {
  switch (state) {
    case BreakerState::kHealthy:
      return 0;
    case BreakerState::kDegraded:
      return 1;
    case BreakerState::kEjected:
      return 2;
  }
  return -1;
}

/// One in-flight attempt against a specific replica of a shard.
struct Attempt {
  Fetch fetch;
  std::size_t replica = 0;
  Timer timer;
};

/// Per-shard scatter bookkeeping for one request.
struct ShardTask {
  std::vector<std::size_t> plan;  // Replica dispatch order.
  double hedge_delay_ms = 0.0;
  steady_clock::time_point hedge_at;
  std::vector<std::unique_ptr<Attempt>> attempts;
  bool hedged = false;
  bool done = false;
  bool ok = false;
  int client_error = 0;
  std::string body;
};

}  // namespace

Router::Router(RouterOptions options)
    : options_(std::move(options)),
      cache_(options_.cache),
      start_time_(steady_clock::now()) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  requests_ = &registry.GetCounter("lsi.shard.requests");
  hedges_ = &registry.GetCounter("lsi.shard.hedges");
  partials_ = &registry.GetCounter("lsi.shard.partials");
  failures_ = &registry.GetCounter("lsi.shard.failures");
  probes_ = &registry.GetCounter("lsi.shard.probes");

  Rng rng(options_.seed);
  MutexLock lock(mutex_);
  shards_.reserve(options_.shards.size());
  for (std::size_t s = 0; s < options_.shards.size(); ++s) {
    ShardGroup group;
    group.latency_ring.assign(64, 0.0);
    group.latency_hist = &registry.GetHistogram(
        "lsi.shard." + std::to_string(s) + ".latency_ms");
    for (std::size_t r = 0; r < options_.shards[s].size(); ++r) {
      Replica replica;
      replica.address = options_.shards[s][r];
      const std::size_t colon = replica.address.rfind(':');
      if (colon != std::string::npos) {
        replica.host = replica.address.substr(0, colon);
        replica.port = std::atoi(replica.address.c_str() + colon + 1);
      }
      replica.breaker = Breaker(options_.breaker, rng.Split());
      replica.state_gauge = &registry.GetGauge(
          "lsi.shard.breaker." + std::to_string(s) + "." + std::to_string(r));
      group.replicas.push_back(std::move(replica));
    }
    shards_.push_back(std::move(group));
  }
  num_shards_ = shards_.size();
}

Router::~Router() { Stop(); }

Status Router::Start() {
  if (num_shards_ == 0) {
    return Status::InvalidArgument("shard: router needs at least one shard");
  }
  {
    MutexLock lock(mutex_);
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      if (shards_[s].replicas.empty()) {
        return Status::InvalidArgument("shard: shard " + std::to_string(s) +
                                       " has no replicas");
      }
      for (const Replica& replica : shards_[s].replicas) {
        if (replica.host.empty() || replica.port <= 0 ||
            replica.port > 65535) {
          return Status::InvalidArgument(
              "shard: bad replica address (want host:port): " +
              replica.address);
        }
      }
    }
  }
  started_ = true;
  prober_ = std::thread([this] { ProbeLoop(); });
  return Status::OK();
}

void Router::Stop() {
  if (!started_) return;
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  probe_cv_.NotifyAll();
  if (prober_.joinable()) prober_.join();
  started_ = false;
}

serve::HttpResponse Router::Handle(const serve::HttpRequest& request,
                                   steady_clock::time_point deadline) {
  std::string path = request.target;
  if (const std::size_t q = path.find('?'); q != std::string::npos) {
    path.resize(q);
  }

  if (path == "/healthz") {
    if (request.method != "GET" && request.method != "HEAD") {
      return MethodNotAllowed("GET");
    }
    if (LSI_FAULT_POINT("shard.healthz.route")) {
      return RetryLater("healthz faulted");
    }
    serve::HttpResponse response;
    response.body = "ok\n";
    return response;
  }
  if (path == "/metrics") {
    if (request.method != "GET") return MethodNotAllowed("GET");
    if (LSI_FAULT_POINT("shard.metrics.route")) {
      return RetryLater("metrics faulted");
    }
    serve::HttpResponse response;
    response.content_type =
        obs::ContentTypeFor(obs::ExportFormat::kPrometheus);
    response.body = obs::ExportPrometheus();
    return response;
  }
  if (path == "/statusz") {
    if (request.method != "GET") return MethodNotAllowed("GET");
    if (LSI_FAULT_POINT("shard.statusz.route")) {
      return RetryLater("statusz faulted");
    }
    return HandleStatusz();
  }
  if (path == "/query") {
    if (request.method != "POST") return MethodNotAllowed("POST");
    // Route-level kill switch, the router-side twin of the backend's
    // shard.query.backend point: a faulted router sheds load before
    // any scatter work happens.
    if (LSI_FAULT_POINT("shard.query.route")) {
      return RetryLater("query route faulted");
    }
    return HandleQuery(request, deadline);
  }
  return serve::JsonError(404, "no such route: " + path);
}

serve::HttpResponse Router::HandleQuery(const serve::HttpRequest& request,
                                        steady_clock::time_point deadline) {
  if (!started_) return RetryLater("router not started");
  requests_->Increment();

  auto body = serve::JsonValue::Parse(request.body);
  if (!body.ok()) return serve::JsonError(400, body.status().message());
  if (!body->is_object()) {
    return serve::JsonError(400, "request body must be a JSON object");
  }
  std::size_t top_k = serve::kDefaultTopK;
  std::string top_k_error;
  if (!serve::ExtractTopK(*body, &top_k, &top_k_error)) {
    return serve::JsonError(400, top_k_error);
  }
  const serve::JsonValue* single = body->Find("query");
  const serve::JsonValue* multi = body->Find("queries");
  if ((single == nullptr) == (multi == nullptr)) {
    return serve::JsonError(400,
                            "body must have exactly one of query | queries");
  }
  if (single != nullptr && !single->is_string()) {
    return serve::JsonError(400, "query must be a string");
  }
  std::size_t num_queries = 1;
  if (multi != nullptr) {
    if (!multi->is_array() || multi->array().empty()) {
      return serve::JsonError(400,
                              "queries must be a non-empty array of strings");
    }
    for (const serve::JsonValue& q : multi->array()) {
      if (!q.is_string()) {
        return serve::JsonError(400, "queries must be an array of strings");
      }
    }
    num_queries = multi->array().size();
  }

  // Full single-query results are cacheable; the key needs no engine
  // canonicalization (the backends canonicalize for their own caches),
  // just the shard topology so a resharded router never aliases.
  std::string cache_key;
  if (single != nullptr) {
    cache_key = "shard|" + single->string_value() + "|k" +
                std::to_string(top_k) + "|n" + std::to_string(num_shards_);
    if (auto cached = cache_.Get(cache_key)) {
      serve::JsonValue::Object reply;
      reply.emplace_back("hits", HitsToJson(*cached));
      return JsonOk(serve::JsonValue(std::move(reply)).Serialize());
    }
  }

  // Canonical forward body: exactly the fields a backend needs.
  serve::JsonValue::Object forward;
  if (single != nullptr) {
    forward.emplace_back("query", *single);
  } else {
    forward.emplace_back("queries", *multi);
  }
  forward.emplace_back("top_k",
                       serve::JsonValue(static_cast<double>(top_k)));
  const std::string forward_body =
      serve::JsonValue(std::move(forward)).Serialize();

  const std::vector<ShardOutcome> outcomes = Scatter(forward_body, deadline);
  // A backend's 4xx judges the request itself, which every shard would
  // reject alike: relay it instead of merging around it.
  for (const ShardOutcome& outcome : outcomes) {
    if (outcome.client_error != 0) {
      serve::HttpResponse response = JsonOk(outcome.body);
      response.status = outcome.client_error;
      return response;
    }
  }

  // Gather: parse each surviving shard's lists, then merge per query.
  // per_query[q][shard] is shard's ranked list for query q.
  std::vector<std::vector<std::vector<core::EngineHit>>> per_query(
      num_queries);
  std::size_t shards_ok = 0;
  for (const ShardOutcome& outcome : outcomes) {
    if (!outcome.ok) continue;
    auto parsed = serve::JsonValue::Parse(outcome.body);
    if (!parsed.ok() || !parsed->is_object()) continue;
    bool shard_good = true;
    std::vector<std::vector<core::EngineHit>> lists(num_queries);
    if (single != nullptr) {
      const serve::JsonValue* hits = parsed->Find("hits");
      if (hits == nullptr || !ParseHits(*hits, &lists[0])) shard_good = false;
    } else {
      const serve::JsonValue* results = parsed->Find("results");
      if (results == nullptr || !results->is_array() ||
          results->array().size() != num_queries) {
        shard_good = false;
      } else {
        for (std::size_t q = 0; q < num_queries; ++q) {
          if (!ParseHits(results->array()[q], &lists[q])) {
            shard_good = false;
            break;
          }
        }
      }
    }
    if (!shard_good) continue;
    ++shards_ok;
    for (std::size_t q = 0; q < num_queries; ++q) {
      per_query[q].push_back(std::move(lists[q]));
    }
  }

  const std::size_t shards_total = outcomes.size();
  const bool partial = shards_ok < shards_total;
  if (shards_ok == 0) {
    failures_->Increment();
    if (steady_clock::now() >= deadline) {
      return serve::JsonError(504, "deadline exceeded");
    }
    return RetryLater("no shard answered, retry later");
  }
  if (partial && options_.partial == PartialPolicy::kFail) {
    failures_->Increment();
    return RetryLater("partial result refused (policy: fail)");
  }

  std::vector<std::vector<core::EngineHit>> merged;
  merged.reserve(num_queries);
  for (std::size_t q = 0; q < num_queries; ++q) {
    merged.push_back(core::MergeTopKHits(std::move(per_query[q]), top_k));
  }

  if (partial) partials_->Increment();
  if (single != nullptr) {
    // The cache admission check is the safety net here: a partial Put
    // is refused, so a brownout's subset answer can never be replayed
    // as a full one after the shard heals.
    cache_.Put(cache_key, merged[0], /*is_partial=*/partial);
  }

  serve::JsonValue::Object reply;
  if (single != nullptr) {
    reply.emplace_back("hits", HitsToJson(merged[0]));
  } else {
    serve::JsonValue::Array rendered;
    rendered.reserve(num_queries);
    for (const auto& hits : merged) rendered.push_back(HitsToJson(hits));
    reply.emplace_back("results", serve::JsonValue(std::move(rendered)));
  }
  if (partial) {
    reply.emplace_back("shards_ok",
                       serve::JsonValue(static_cast<double>(shards_ok)));
    reply.emplace_back("shards_total",
                       serve::JsonValue(static_cast<double>(shards_total)));
  }
  serve::HttpResponse response =
      JsonOk(serve::JsonValue(std::move(reply)).Serialize());
  if (partial) {
    response.extra_headers.emplace_back("X-Lsi-Partial", "true");
  }
  return response;
}

std::vector<std::size_t> Router::DispatchPlan(std::size_t shard,
                                              double* hedge_delay_ms) {
  MutexLock lock(mutex_);
  ShardGroup& group = shards_[shard];
  std::vector<std::size_t> plan;
  plan.reserve(group.replicas.size());
  for (std::size_t r = 0; r < group.replicas.size(); ++r) {
    if (group.replicas[r].breaker.state() == BreakerState::kHealthy) {
      plan.push_back(r);
    }
  }
  for (std::size_t r = 0; r < group.replicas.size(); ++r) {
    if (group.replicas[r].breaker.state() == BreakerState::kDegraded) {
      plan.push_back(r);
    }
  }
  // Hedge delay: p95 of the recent-latency ring once it has signal,
  // the configured initial value before that, never below the floor.
  const std::size_t samples =
      std::min(group.latency_count, group.latency_ring.size());
  if (samples >= 8) {
    std::vector<double> sorted(group.latency_ring.begin(),
                               group.latency_ring.begin() +
                                   static_cast<std::ptrdiff_t>(samples));
    std::sort(sorted.begin(), sorted.end());
    const double p95 = sorted[(samples * 95) / 100 >= samples
                                  ? samples - 1
                                  : (samples * 95) / 100];
    *hedge_delay_ms = std::max(
        p95, static_cast<double>(options_.hedge_min.count()));
  } else {
    *hedge_delay_ms = static_cast<double>(options_.hedge_initial.count());
  }
  return plan;
}

void Router::RecordOutcome(std::size_t shard, std::size_t replica, bool ok,
                           long retry_after_ms, double latency_ms) {
  MutexLock lock(mutex_);
  ShardGroup& group = shards_[shard];
  Replica& target = group.replicas[replica];
  if (ok) {
    target.breaker.OnSuccess();
    group.latency_ring[group.latency_count % group.latency_ring.size()] =
        latency_ms;
    ++group.latency_count;
    group.latency_hist->Observe(latency_ms);
  } else {
    target.breaker.OnFailure(retry_after_ms, steady_clock::now());
  }
  target.state_gauge->Set(
      static_cast<double>(BreakerStateValue(target.breaker.state())));
}

std::vector<Router::ShardOutcome> Router::Scatter(
    const std::string& forward_body, steady_clock::time_point deadline) {
  const std::size_t n = num_shards_;
  std::vector<ShardTask> tasks(n);
  std::vector<std::string> host_headers(n);

  const auto start = steady_clock::now();
  auto remaining_ms = [&](steady_clock::time_point now) -> long {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - now);
    return left.count() > 0 ? static_cast<long>(left.count()) : 0;
  };

  // Starts the next attempt in `task`'s plan. A synchronous dispatch
  // failure (fault point, bad address) occupies its attempt slot and
  // falls straight through to the next replica, so "retry on failure"
  // holds even when the failure never reaches the socket. The shared
  // limit — at most two attempt slots per shard per request — covers
  // hedges and retries alike.
  auto start_attempt = [&](std::size_t s) {
    ShardTask& task = tasks[s];
    while (task.attempts.size() < 2 &&
           task.attempts.size() < task.plan.size()) {
      const std::size_t replica = task.plan[task.attempts.size()];
      std::string host;
      int port = 0;
      {
        MutexLock lock(mutex_);
        host = shards_[s].replicas[replica].host;
        port = shards_[s].replicas[replica].port;
      }
      auto attempt = std::make_unique<Attempt>();
      attempt->replica = replica;
      // Per-dispatch fault point: an armed dispatch behaves like an
      // unreachable backend, which is how the torture drill cuts one
      // shard off without killing its process.
      if (LSI_FAULT_POINT("shard.query.dispatch")) {
        RecordOutcome(s, replica, false, -1, 0.0);
        task.attempts.push_back(std::move(attempt));  // Occupies the slot.
        continue;
      }
      const long budget = remaining_ms(steady_clock::now());
      const Status status = attempt->fetch.Start(
          host, port,
          SerializeForward(host + ":" + std::to_string(port), forward_body,
                           budget));
      if (!status.ok()) {
        RecordOutcome(s, replica, false, -1, 0.0);
        task.attempts.push_back(std::move(attempt));
        continue;
      }
      task.attempts.push_back(std::move(attempt));
      return;
    }
    // Plan exhausted with nothing in flight: the completion scan below
    // notices the lack of active attempts and fails the shard.
  };

  for (std::size_t s = 0; s < n; ++s) {
    tasks[s].plan = DispatchPlan(s, &tasks[s].hedge_delay_ms);
    if (tasks[s].plan.empty()) {
      tasks[s].done = true;  // Every replica ejected: fail fast.
      continue;
    }
    tasks[s].hedge_at =
        start + std::chrono::milliseconds(
                    static_cast<long>(tasks[s].hedge_delay_ms));
    start_attempt(s);
    // A synchronously-failed first attempt falls through to the retry
    // logic below via the poll loop's completion scan.
  }

  // Single-threaded scatter: every active fetch is a non-blocking state
  // machine, so one poll loop drives primaries and hedges for all
  // shards at once — no per-request threads, and hedging is "keep both
  // attempts open, first 200 wins".
  std::vector<pollfd> fds;
  std::vector<std::pair<std::size_t, std::size_t>> fd_owner;  // shard,attempt
  while (true) {
    const auto now = steady_clock::now();
    bool all_done = true;
    for (const ShardTask& task : tasks) all_done &= task.done;
    if (all_done) break;
    if (now >= deadline) break;

    // Hedges due: one extra attempt per shard once the delay elapses.
    for (std::size_t s = 0; s < n; ++s) {
      ShardTask& task = tasks[s];
      if (task.done || task.hedged || task.attempts.size() != 1) continue;
      if (now < task.hedge_at) continue;
      if (task.plan.size() < 2) continue;  // No replica to hedge to: skip.
      task.hedged = true;
      hedges_->Increment();
      start_attempt(s);
    }

    fds.clear();
    fd_owner.clear();
    for (std::size_t s = 0; s < n; ++s) {
      ShardTask& task = tasks[s];
      if (task.done) continue;
      for (std::size_t a = 0; a < task.attempts.size(); ++a) {
        Fetch& fetch = task.attempts[a]->fetch;
        if (!fetch.active()) continue;
        fds.push_back(pollfd{fetch.fd(), fetch.poll_events(), 0});
        fd_owner.emplace_back(s, a);
      }
    }

    if (!fds.empty()) {
      // Wake early for the nearest pending hedge so a stalled shard's
      // hedge fires on time even while other sockets are quiet.
      auto wake = deadline;
      for (const ShardTask& task : tasks) {
        if (!task.done && !task.hedged && task.attempts.size() == 1 &&
            task.plan.size() >= 2) {
          wake = std::min(wake, task.hedge_at);
        }
      }
      long timeout_ms = remaining_ms(now);
      const auto until_wake =
          std::chrono::duration_cast<std::chrono::milliseconds>(wake - now);
      timeout_ms = std::min(timeout_ms, std::max<long>(
                                            1, static_cast<long>(
                                                   until_wake.count())));
      timeout_ms = std::max<long>(1, std::min<long>(timeout_ms, 50));
      ::poll(fds.data(), fds.size(), static_cast<int>(timeout_ms));
      for (std::size_t i = 0; i < fds.size(); ++i) {
        if (fds[i].revents == 0) continue;
        const auto [s, a] = fd_owner[i];
        tasks[s].attempts[a]->fetch.Step();
      }
    }

    // Completion scan: first 200 wins a shard; failures trigger the
    // immediate next-replica retry (which shares the hedge budget: at
    // most two attempts per shard per request).
    for (std::size_t s = 0; s < n; ++s) {
      ShardTask& task = tasks[s];
      if (task.done) continue;
      bool any_active = false;
      for (std::size_t a = 0; a < task.attempts.size() && !task.done; ++a) {
        Attempt& attempt = *task.attempts[a];
        switch (attempt.fetch.state()) {
          case Fetch::State::kDone: {
            const Fetch::Response& response = attempt.fetch.response();
            if (response.status == 200) {
              task.done = true;
              task.ok = true;
              task.body = response.body;
              RecordOutcome(s, attempt.replica, true, -1,
                            attempt.timer.ElapsedMillis());
              for (auto& other : task.attempts) {
                if (other.get() != &attempt) other->fetch.Abort();
              }
            } else if (response.status >= 400 && response.status < 500) {
              // The backend rejected the request, not the other way
              // round: a final answer, so no breaker failure, no retry
              // and no hedge. Otherwise a client's bad requests would
              // eject healthy backends.
              task.done = true;
              task.client_error = response.status;
              task.body = response.body;
              for (auto& other : task.attempts) other->fetch.Abort();
            } else {
              RecordOutcome(s, attempt.replica, false,
                            response.retry_after_ms, 0.0);
              attempt.fetch.Abort();  // kIdle: won't be re-scanned.
              if (task.attempts.size() < 2 &&
                  task.attempts.size() < task.plan.size()) {
                start_attempt(s);
              }
            }
            break;
          }
          case Fetch::State::kFailed:
            RecordOutcome(s, attempt.replica, false, -1, 0.0);
            attempt.fetch.Abort();
            if (task.attempts.size() < 2 &&
                task.attempts.size() < task.plan.size()) {
              start_attempt(s);
            }
            break;
          default:
            if (attempt.fetch.active()) any_active = true;
            break;
        }
      }
      if (!task.done && !any_active) {
        // Re-scan for activity: a retry started above may be active.
        bool active_now = false;
        for (const auto& attempt : task.attempts) {
          if (attempt->fetch.active()) active_now = true;
        }
        if (!active_now) task.done = true;  // All attempts exhausted.
      }
    }
  }

  // Deadline exit: whatever is still in flight counts as a failure for
  // the breaker — a stalled backend must degrade and eventually eject
  // even though it never answered at all.
  std::vector<ShardOutcome> outcomes(n);
  for (std::size_t s = 0; s < n; ++s) {
    ShardTask& task = tasks[s];
    if (!task.done) {
      for (const auto& attempt : task.attempts) {
        if (attempt->fetch.active()) {
          RecordOutcome(s, attempt->replica, false, -1, 0.0);
          attempt->fetch.Abort();
        }
      }
      task.done = true;
    }
    outcomes[s].ok = task.ok;
    outcomes[s].client_error = task.client_error;
    outcomes[s].body = std::move(task.body);
  }
  return outcomes;
}

void Router::ProbeLoop() {
  while (true) {
    {
      MutexLock lock(mutex_);
      if (stopping_) return;
      probe_cv_.WaitFor(lock, options_.health_interval);
      if (stopping_) return;
    }
    ProbeNow();
  }
}

void Router::ProbeNow() {
  struct Target {
    std::size_t shard = 0;
    std::size_t replica = 0;
    std::string host;
    int port = 0;
  };
  std::vector<Target> targets;
  {
    MutexLock lock(mutex_);
    const auto now = steady_clock::now();
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      for (std::size_t r = 0; r < shards_[s].replicas.size(); ++r) {
        // Backed-off ejected replicas are skipped until due; healthy
        // and degraded ones are probed every sweep so a silently-dying
        // backend ejects even without query traffic.
        if (!shards_[s].replicas[r].breaker.ProbeDue(now)) continue;
        targets.push_back(Target{s, r, shards_[s].replicas[r].host,
                                 shards_[s].replicas[r].port});
      }
    }
  }
  for (const Target& target : targets) {
    probes_->Increment();
    // Probe fault point: an armed probe reads as a failed health check,
    // driving breaker transitions without touching the backend.
    if (LSI_FAULT_POINT("shard.health.probe")) {
      RecordOutcome(target.shard, target.replica, false, -1, 0.0);
      continue;
    }
    Fetch fetch;
    const std::string request =
        "GET /healthz HTTP/1.1\r\nHost: " + target.host + ":" +
        std::to_string(target.port) + "\r\nConnection: close\r\n\r\n";
    const auto probe_deadline = steady_clock::now() + options_.probe_timeout;
    bool ok = false;
    long retry_after_ms = -1;
    if (fetch.Start(target.host, target.port, request).ok()) {
      while (fetch.active()) {
        const auto now = steady_clock::now();
        if (now >= probe_deadline) break;
        const auto left =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                probe_deadline - now);
        pollfd pfd{fetch.fd(), fetch.poll_events(), 0};
        ::poll(&pfd, 1,
               static_cast<int>(std::max<long>(
                   1, std::min<long>(50, static_cast<long>(left.count())))));
        fetch.Step();
      }
      if (fetch.state() == Fetch::State::kDone) {
        ok = fetch.response().status == 200;
        retry_after_ms = fetch.response().retry_after_ms;
      }
    }
    // Probe successes update the breaker but not the latency ring: the
    // hedge delay models query latency, not /healthz latency.
    {
      MutexLock lock(mutex_);
      Replica& replica = shards_[target.shard].replicas[target.replica];
      if (ok) {
        replica.breaker.OnSuccess();
      } else {
        replica.breaker.OnFailure(retry_after_ms, steady_clock::now());
      }
      replica.state_gauge->Set(static_cast<double>(
          BreakerStateValue(replica.breaker.state())));
    }
  }
}

BreakerState Router::ReplicaState(std::size_t shard,
                                  std::size_t replica) const {
  MutexLock lock(mutex_);
  return shards_[shard].replicas[replica].breaker.state();
}

serve::HttpResponse Router::HandleStatusz() {
  const double uptime_s =
      std::chrono::duration<double>(steady_clock::now() - start_time_)
          .count();
  serve::JsonValue::Object status;
  status.emplace_back("uptime_s", serve::JsonValue(uptime_s));
  status.emplace_back(
      "policy",
      serve::JsonValue(std::string(options_.partial == PartialPolicy::kFail
                                       ? "fail"
                                       : "degrade")));
  serve::JsonValue::Array shard_blocks;
  {
    MutexLock lock(mutex_);
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      const ShardGroup& group = shards_[s];
      serve::JsonValue::Object block;
      block.emplace_back("shard",
                         serve::JsonValue(static_cast<double>(s)));
      serve::JsonValue::Array replicas;
      for (const Replica& replica : group.replicas) {
        serve::JsonValue::Object fields;
        fields.emplace_back("address", serve::JsonValue(replica.address));
        fields.emplace_back(
            "state",
            serve::JsonValue(
                std::string(BreakerStateName(replica.breaker.state()))));
        fields.emplace_back(
            "consecutive_failures",
            serve::JsonValue(static_cast<double>(
                replica.breaker.consecutive_failures())));
        replicas.emplace_back(std::move(fields));
      }
      block.emplace_back("replicas",
                         serve::JsonValue(std::move(replicas)));
      block.emplace_back(
          "latency_samples",
          serve::JsonValue(static_cast<double>(group.latency_count)));
      shard_blocks.emplace_back(std::move(block));
    }
  }
  status.emplace_back("shards", serve::JsonValue(std::move(shard_blocks)));
  serve::JsonValue::Object counters;
  counters.emplace_back(
      "requests",
      serve::JsonValue(static_cast<double>(requests_->value())));
  counters.emplace_back(
      "hedges", serve::JsonValue(static_cast<double>(hedges_->value())));
  counters.emplace_back(
      "partials",
      serve::JsonValue(static_cast<double>(partials_->value())));
  counters.emplace_back(
      "failures",
      serve::JsonValue(static_cast<double>(failures_->value())));
  counters.emplace_back(
      "probes", serve::JsonValue(static_cast<double>(probes_->value())));
  status.emplace_back("scatter", serve::JsonValue(std::move(counters)));
  return JsonOk(serve::JsonValue(std::move(status)).Serialize());
}

}  // namespace lsi::shard
