// lsibench — the end-to-end LSI serving benchmark.
//
//   lsibench --workload <search-cold|search-zipf|live-mixed|routed-cold>
//            --seed N --seconds S --trace 0|1 [--out-dir DIR]
//
// Synthesizes a corpus and request stream from the paper's corpus model,
// starts the real serving stack in-process on loopback ports, drives it
// from at most four client connections, checks the answers, and prints
// one JSON result line last on stdout. --trace 1 adds a second window
// and per-layer replays, and prints the per-layer metrics instead of the
// end-to-end ones.
// See README.md for the workloads and why each was chosen.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <thread>

#include "client.h"
#include "common.h"
#include "layers.h"
#include "linalg/simd/simd.h"
#include "loadgen.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "par/par.h"
#include "serve/json.h"
#include "synth.h"

#ifndef LSIBENCH_BUILD_TYPE
#define LSIBENCH_BUILD_TYPE "unknown"
#endif

namespace lsibench {
namespace {

// Corpus sizes (documents).
constexpr std::size_t kDocs = 100000;
constexpr std::size_t kLiveDocs = 20000;
constexpr std::size_t kShards = 4;
constexpr std::size_t kConnections = 4;
// Warm-up before the timed window, so the window sees the steady state
// (see README.md, "Closed-loop phase locking").
constexpr double kWarmupSeconds = 0.5;
// search-zipf: the pool, the popularity skew, the open-loop rate, and how
// many of the most popular queries are sent once before timing.
constexpr std::size_t kPoolSize = 1000;
constexpr double kZipfExponent = 1.1;
constexpr double kZipfRatePerSecond = 125.0;
constexpr std::size_t kZipfPrewarm = 60;
// Oracle: a seeded 1-in-8 sample of responses, at most this many checked
// per window.
constexpr std::uint64_t kSampleEvery = 8;
constexpr std::size_t kMaxOracleChecks = 32;
// live-mixed sets up this many times and reports the median (the mean of
// the two). The 10^5-document workloads set up once: a second build would
// add 13-23 s to every run.
constexpr int kLiveSetups = 2;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

/// Exits at once: server and client threads may still be running, so
/// static destructors must not run.
[[noreturn]] void Fail(const std::string& message) {
  std::fprintf(stderr, "lsibench: %s\n", message.c_str());
  std::_Exit(1);
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0;
}

bool WorkloadFromName(const std::string& name, Workload* out) {
  static const std::pair<const char*, Workload> kNames[] = {
      {"search-cold", Workload::kSearchCold},
      {"search-zipf", Workload::kSearchZipf},
      {"live-mixed", Workload::kLiveMixed},
      {"routed-cold", Workload::kRoutedCold},
  };
  for (const auto& [spelling, workload] : kNames) {
    if (name == spelling) {
      *out = workload;
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------- host

struct Host {
  unsigned nproc = 0;
  std::string cpu_model;
  std::string simd;
  std::string lsi_threads_env;
  std::size_t par_threads = 0;
  double calib_ns_per_op = 0.0;
};

/// ns per step of a fixed dependent multiply-add chain: a host speed
/// reference that involves no repository code, so snapshots taken on
/// different hosts can be put side by side.
double CalibrationNsPerOp() {
  constexpr std::size_t kSteps = 1 << 22;
  std::vector<double> runs;
  for (int r = 0; r < 5; ++r) {
    volatile double seed = 1.0;
    double x = seed;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < kSteps; ++i) x = x * 0.999999 + 1e-7;
    const Clock::time_point t1 = Clock::now();
    seed = x;
    runs.push_back(MsBetween(t0, t1) * 1e6 / static_cast<double>(kSteps));
  }
  return Median(runs);
}

Host ProbeHost() {
  Host host;
  host.nproc = static_cast<unsigned>(::sysconf(_SC_NPROCESSORS_ONLN));
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      host.cpu_model = line.substr(line.find(':') + 2);
      break;
    }
  }
  host.simd = lsi::linalg::simd::PathName(lsi::linalg::simd::ActivePath());
  const char* env = std::getenv("LSI_THREADS");
  host.lsi_threads_env = env != nullptr ? env : "";
  host.par_threads = lsi::par::Threads();
  host.calib_ns_per_op = CalibrationNsPerOp();
  return host;
}

std::string HostJson(const Host& host) {
  std::ostringstream out;
  out << "{\"nproc\":" << host.nproc
      << ",\"cpu_model\":" << lsi::serve::JsonQuote(host.cpu_model)
      << ",\"simd\":" << lsi::serve::JsonQuote(host.simd)
      << ",\"LSI_THREADS\":" << lsi::serve::JsonQuote(host.lsi_threads_env)
      << ",\"par_threads\":" << host.par_threads
      << ",\"build_type\":" << lsi::serve::JsonQuote(LSIBENCH_BUILD_TYPE)
      << ",\"calib_ns_per_op\":" << host.calib_ns_per_op << "}";
  return out.str();
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

/// Host-wide CPU time and the part of it the hypervisor gave to other
/// guests ("steal"), from /proc/stat, in clock ticks.
struct CpuTicks {
  double total = 0.0;
  double steal = 0.0;
};

CpuTicks ReadCpuTicks() {
  std::ifstream stat("/proc/stat");
  std::string label;
  CpuTicks ticks;
  stat >> label;
  for (int field = 0; field < 10; ++field) {
    double value = 0.0;
    if (!(stat >> value)) break;
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

double StealPercent(const CpuTicks& before, const CpuTicks& after) {
  const double total = after.total - before.total;
  return total > 0.0 ? 100.0 * (after.steal - before.steal) / total : 0.0;
}

// --------------------------------------------------------------- setup

lsi::serve::ServerOptions LoopbackServer() {
  lsi::serve::ServerOptions options;
  options.host = "127.0.0.1";
  options.port = 0;  // Ephemeral.
  return options;
}

void StartServer(Stack* stack, lsi::serve::HttpServer::Handler handler,
                 std::unique_ptr<lsi::serve::HttpServer>* slot) {
  *slot = std::make_unique<lsi::serve::HttpServer>(std::move(handler),
                                                    LoopbackServer());
  const lsi::Status started = (*slot)->Start();
  if (!started.ok()) Fail("server start: " + started.ToString());
  stack->port = (*slot)->port();
}

void ServeEngine(Stack* stack, std::unique_ptr<lsi::serve::LsiService> service) {
  lsi::serve::LsiService* raw = service.get();
  stack->services.push_back(std::move(service));
  stack->servers.emplace_back();
  StartServer(stack,
              [raw](const lsi::serve::HttpRequest& request,
                    Clock::time_point deadline) {
                return raw->Handle(request, deadline);
              },
              &stack->servers.back());
}

/// Blocks until the front server answers /healthz: the moment the first
/// request is accepted, which ends set-up.
void WaitAccepting(int port) {
  Client client(port);
  for (int attempt = 0; attempt < 1000; ++attempt) {
    if (client.Call("GET", "/healthz", "").status == 200) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  Fail("server never became healthy");
}

std::unique_ptr<Stack> SetupSearch(const lsi::text::Corpus& corpus) {
  auto stack = std::make_unique<Stack>();
  auto engine = lsi::core::LsiEngine::Build(corpus);
  if (!engine.ok()) Fail("build: " + engine.status().ToString());
  stack->engine = std::make_unique<lsi::core::LsiEngine>(std::move(engine).value());
  ServeEngine(stack.get(), std::make_unique<lsi::serve::LsiService>(*stack->engine));
  WaitAccepting(stack->port);
  return stack;
}

std::unique_ptr<Stack> SetupLive(lsi::text::Corpus corpus,
                                 const std::string& wal_dir) {
  auto stack = std::make_unique<Stack>();
  std::filesystem::create_directories(wal_dir);
  auto live = lsi::live::LiveEngine::Open(std::move(corpus),
                                          wal_dir + "/wal.log");
  if (!live.ok()) Fail("live open: " + live.status().ToString());
  stack->live = std::move(live).value();
  ServeEngine(stack.get(), std::make_unique<lsi::serve::LsiService>(*stack->live));
  WaitAccepting(stack->port);
  return stack;
}

std::unique_ptr<Stack> SetupRouted(const lsi::text::Corpus& corpus) {
  auto stack = std::make_unique<Stack>();
  lsi::shard::ShardSetOptions options;
  options.num_shards = kShards;
  auto shards = lsi::shard::ShardSet::Build(corpus, options);
  if (!shards.ok()) Fail("shard build: " + shards.status().ToString());
  stack->shards = std::make_unique<lsi::shard::ShardSet>(std::move(shards).value());
  lsi::shard::RouterOptions router;
  for (std::size_t s = 0; s < kShards; ++s) {
    ServeEngine(stack.get(),
                std::make_unique<lsi::serve::LsiService>(stack->shards->shard(s)));
    router.shards.push_back({"127.0.0.1:" + std::to_string(stack->port)});
  }
  stack->router = std::make_unique<lsi::shard::Router>(std::move(router));
  const lsi::Status started = stack->router->Start();
  if (!started.ok()) Fail("router start: " + started.ToString());
  lsi::shard::Router* raw = stack->router.get();
  StartServer(stack.get(),
              [raw](const lsi::serve::HttpRequest& request,
                    Clock::time_point deadline) {
                return raw->Handle(request, deadline);
              },
              &stack->router_server);
  WaitAccepting(stack->port);
  return stack;
}

// ------------------------------------------------------ request streams

/// Owns one workload's request streams, so a second (traced) window
/// continues where the first stopped.
class StreamRunner {
 public:
  StreamRunner(Workload workload, const Args& args, const Synth& synth,
         Stack* stack, Writer* writer)
      : workload_(workload),
        args_(args),
        synth_(synth),
        stack_(stack),
        writer_(writer),
        sampler_(args.seed, kSampleEvery) {
    if (workload_ == Workload::kSearchZipf) BuildZipfStream();
  }

  /// Runs a warm-up of `warmup_s` (plus the zipf pre-warm on the first
  /// call) and then a timed window of args.seconds.
  WindowResult Run(double warmup_s) {
    const Clock::time_point now = Clock::now();
    const auto seconds = [](double s) {
      return std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(s));
    };
    if (workload_ == Workload::kSearchZipf) {
      if (!prewarmed_) Prewarm();
      OpenPlan plan;
      plan.port = stack_->port;
      plan.connections = kConnections;
      plan.pool = &pool_;
      plan.arrival_s = &arrival_s_;
      plan.pick = &pick_;
      plan.first_arrival = next_arrival_;
      plan.sampler = &sampler_;
      plan.origin = Clock::now();
      plan.window_start = plan.origin + seconds(warmup_s);
      plan.end = plan.window_start + seconds(args_.seconds);
      plan.next_arrival = &next_arrival_;
      return RunOpen(plan);
    }
    ClosedPlan plan;
    plan.port = stack_->port;
    plan.seed = args_.seed;
    plan.readers = writer_ != nullptr ? kConnections - 1 : kConnections;
    plan.writer = writer_;
    plan.query_text = [this](std::uint64_t i) {
      return synth_.QueryText(Stream::kQuery, i);
    };
    plan.next_query = &next_query_;
    plan.sampler = &sampler_;
    plan.window_start = now + seconds(warmup_s);
    plan.end = plan.window_start + seconds(args_.seconds);
    return RunClosed(plan);
  }

  /// First fresh-query index no window has used.
  std::uint64_t next_query() const { return next_query_.load(); }

 private:
  void BuildZipfStream() {
    for (std::size_t i = 0; i < kPoolSize; ++i) {
      pool_.push_back(synth_.QueryText(Stream::kPool, i));
    }
    // Rank r of the popularity order is pool entry order_[r].
    lsi::Rng order_rng = StreamRng(args_.seed, Stream::kPool, kPoolSize);
    order_.resize(kPoolSize);
    for (std::size_t i = 0; i < kPoolSize; ++i) order_[i] = static_cast<std::uint32_t>(i);
    for (std::size_t i = kPoolSize - 1; i > 0; --i) {
      std::swap(order_[i], order_[order_rng.NextUint64Below(i + 1)]);
    }
    // Enough arrivals for warm-up + two windows at the stated rate.
    const Zipf zipf(kPoolSize, kZipfExponent);
    const std::size_t arrivals = static_cast<std::size_t>(
        kZipfRatePerSecond * (2.0 * args_.seconds + 2.0 * kWarmupSeconds + 2.0));
    double t = 0.0;
    for (std::size_t i = 0; i < arrivals; ++i) {
      lsi::Rng rng = StreamRng(args_.seed, Stream::kArrivals, i);
      t += -std::log(1.0 - rng.NextDouble()) / kZipfRatePerSecond;
      arrival_s_.push_back(t);
      pick_.push_back(order_[zipf.Sample(rng)]);
    }
  }

  /// Sends the kZipfPrewarm most popular queries once, so the window
  /// starts from a warm cache.
  void Prewarm() {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kConnections; ++c) {
      threads.emplace_back([&] {
        Client client(stack_->port);
        for (std::size_t r = next++; r < kZipfPrewarm; r = next++) {
          (void)client.Call("POST", "/query", QueryBody(pool_[order_[r]]));
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    prewarmed_ = true;
  }

  Workload workload_;
  const Args& args_;
  const Synth& synth_;
  Stack* stack_;
  Writer* writer_;
  Sampler sampler_;
  std::atomic<std::uint64_t> next_query_{0};
  // search-zipf stream.
  std::vector<std::string> pool_;
  std::vector<std::uint32_t> order_;
  std::vector<double> arrival_s_;
  std::vector<std::uint32_t> pick_;
  std::size_t next_arrival_ = 0;
  bool prewarmed_ = false;
};

// -------------------------------------------------------------- oracle

/// Compares sampled responses with in-process answers. Returns the
/// number of mismatches.
std::size_t CheckOracle(Workload workload, const Stack& stack,
                        const std::vector<Sample>& samples,
                        const lsi::core::LsiEngine* unsharded,
                        std::size_t* checked) {
  std::vector<std::string> queries;
  for (std::size_t i = 0; i < samples.size() && i < kMaxOracleChecks; ++i) {
    queries.push_back(samples[i].query);
  }
  *checked = queries.size();
  if (queries.empty()) return 0;
  std::vector<std::vector<lsi::core::EngineHit>> expected;
  if (workload == Workload::kRoutedCold && unsharded == nullptr) {
    // The unsharded ranking reassembled from every shard's own answer:
    // each shard scores its documents with the global latent vectors, so
    // the union ordered by (score desc, id asc) is the global top-k.
    expected.assign(queries.size(), {});
    for (std::size_t s = 0; s < stack.shards->num_shards(); ++s) {
      auto part = stack.shards->shard(s).QueryBatch(queries, kTopK);
      if (!part.ok()) return queries.size();
      for (std::size_t q = 0; q < queries.size(); ++q) {
        for (auto& hit : (*part)[q]) expected[q].push_back(std::move(hit));
      }
    }
    for (auto& hits : expected) {
      std::sort(hits.begin(), hits.end(), [](const auto& a, const auto& b) {
        return a.score != b.score ? a.score > b.score : a.document < b.document;
      });
      if (hits.size() > kTopK) hits.resize(kTopK);
    }
  } else {
    const lsi::core::LsiEngine& engine =
        unsharded != nullptr ? *unsharded : *stack.engine;
    auto answers = engine.QueryBatch(queries, kTopK);
    if (!answers.ok()) return queries.size();
    expected = std::move(answers).value();
  }
  std::size_t mismatches = 0;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    if (!SameHits(samples[q].hits, expected[q])) ++mismatches;
  }
  return mismatches;
}

// ------------------------------------------------------------- metrics

struct WindowSummary {
  double qps = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  std::size_t queries = 0;
  std::size_t beyond_p99 = 0;
  double write_p50 = 0.0;
  double write_p95 = 0.0;
  std::size_t writes = 0;
  double lag_p99 = 0.0;
  std::size_t failed = 0;
  std::size_t attempted = 0;
};

WindowSummary Summarize(const WindowResult& window) {
  WindowSummary s;
  std::vector<double> query_ms;
  std::vector<double> write_ms;
  std::vector<double> lag_ms;
  std::size_t query_ok = 0;
  for (const Op& op : window.ops) {
    ++s.attempted;
    if (!op.ok) {
      ++s.failed;
      continue;
    }
    if (op.kind == OpKind::kQuery) {
      ++query_ok;
      query_ms.push_back(op.latency_ms);
      lag_ms.push_back(op.lag_ms);
    } else {
      write_ms.push_back(op.latency_ms);
    }
  }
  s.queries = query_ms.size();
  s.qps = static_cast<double>(query_ok) / window.seconds;
  s.p50 = Quantile(query_ms, 0.50);
  s.p99 = Quantile(query_ms, 0.99);
  for (double v : query_ms) s.beyond_p99 += v > s.p99 ? 1 : 0;
  s.writes = write_ms.size();
  s.write_p50 = Quantile(write_ms, 0.50);
  s.write_p95 = Quantile(write_ms, 0.95);
  s.lag_p99 = Quantile(lag_ms, 0.99);
  return s;
}

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string ResultLine(bool correct, std::size_t attempted, std::size_t failed,
                       const Metrics& metrics) {
  std::string out = "{\"correct\": " + std::string(correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  bool first = true;
  for (const Metrics::Entry& entry : metrics.entries()) {
    if (!first) out += ", ";
    first = false;
    out += lsi::serve::JsonQuote(entry.name) + ": {\"value\": " +
           FormatNumber(entry.value) +
           ", \"unit\": " + lsi::serve::JsonQuote(entry.unit) + "}";
  }
  return out + "}}";
}

void WriteTrace(const std::string& path, const Args& args, const Host& host,
                const SpanLog& spans, const Metrics& metrics) {
  std::ofstream out(path);
  out << "{\"workload\":" << lsi::serve::JsonQuote(args.workload)
      << ",\"seed\":" << args.seed << ",\"host\":" << HostJson(host)
      << ",\"metrics\":{";
  bool first = true;
  for (const Metrics::Entry& entry : metrics.entries()) {
    out << (first ? "" : ",") << lsi::serve::JsonQuote(entry.name) << ":"
        << FormatNumber(entry.value);
    first = false;
  }
  out << "},\"spans\":[";
  first = true;
  for (const SpanLog::Span& span : spans.spans()) {
    out << (first ? "" : ",") << "{\"id\":" << span.id
        << ",\"parent\":" << span.parent << ",\"request\":" << span.request
        << ",\"name\":" << lsi::serve::JsonQuote(span.name)
        << ",\"start_us\":" << FormatNumber(span.start_us)
        << ",\"duration_us\":" << FormatNumber(span.duration_us) << "}";
    first = false;
  }
  out << "]}\n";
}

// Every per-layer metric the traced run reports, with its unit. A layer
// a workload does not exercise reports 0 (see README.md).
const std::vector<std::pair<const char*, const char*>>& PerLayerMetrics() {
  static const std::vector<std::pair<const char*, const char*>> kList = {
      {"serve.http.parse_us", "us"},
      {"serve.json.parse_us", "us"},
      {"serve.json.serialize_us", "us"},
      {"serve.cache.hit_ratio", "ratio"},
      {"serve.cache.get_us", "us"},
      {"serve.cache.evictions", "count"},
      {"serve.batch.size_mean", "count"},
      {"serve.batch.flushes", "count"},
      {"serve.batch.roundtrip_ms", "ms"},
      {"serve.admission_rejected", "count"},
      {"core.analyze_us", "us"},
      {"core.fold_in_ms", "ms"},
      {"core.search_ms", "ms"},
      {"core.rank_ms", "ms"},
      {"core.engine_query_ms", "ms"},
      {"core.batch_query_ms_per_query", "ms"},
      {"core.batch_query_ms_per_query.t1", "ms"},
      {"core.batch_query_ms_per_query.t4", "ms"},
      {"core.search_ms.t1", "ms"},
      {"core.search_ms.t4", "ms"},
      {"par.regions", "count"},
      {"par.tasks", "count"},
      {"par.wait_ms", "ms"},
      {"live.write_ms.add", "ms"},
      {"live.write_ms.update", "ms"},
      {"live.write_ms.delete", "ms"},
      {"live.write_p50_ms", "ms"},
      {"live.write_p95_ms", "ms"},
      {"live.publish_clone_ms", "ms"},
      {"live.wal_append_sync_ms", "ms"},
      {"live.publishes", "count"},
      {"live.refreshes", "count"},
      {"live.drift_mean_radians", "rad"},
      {"live.cache_hit_ratio", "ratio"},
      {"shard.backend_query_ms", "ms"},
      {"shard.router_overhead_ms", "ms"},
      {"core.merge_us", "us"},
      {"shard.hedges", "count"},
      {"shard.partials", "count"},
      {"shard.failures", "count"},
      {"shard.doc_vector_bytes", "bytes"},
      {"linalg.svd_build_s", "s"},
      {"linalg.svd_matvecs", "count"},
      {"layer.serve.self_ms", "ms"},
      {"layer.core.self_ms", "ms"},
      {"layer.shard.self_ms", "ms"},
      {"loadgen.send_lag_p99_ms", "ms"},
      {"trace.overhead_qps", "1/s"},
      {"trace.overhead_query_p50_ms", "ms"},
      {"host.calib_ns_per_op", "ns"},
      {"host.nproc", "count"},
      {"host.steal_pct", "%"},
  };
  return kList;
}

/// Seconds the program's own "factor" spans (the SVD inside a build)
/// have recorded so far.
double FactorSpanSeconds() {
  double total = 0.0;
  for (const auto& [path, stats] : lsi::obs::SpanRegistry::Global().Snapshot()) {
    const std::string suffix = "factor";
    if (path.size() >= suffix.size() &&
        path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0) {
      total += stats.total_seconds;
    }
  }
  return total;
}

int Main(int argc, char** argv) {
  Args args;
  Workload workload = Workload::kSearchCold;
  if (!ParseArgs(argc, argv, &args) || !WorkloadFromName(args.workload, &workload)) {
    std::fprintf(stderr,
                 "usage: lsibench --workload <search-cold|search-zipf|"
                 "live-mixed|routed-cold> --seed N --seconds S --trace 0|1 "
                 "[--out-dir DIR]\n");
    return 2;
  }
  const Clock::time_point run_start = Clock::now();
  const Host host = ProbeHost();
  std::printf("# host %s\n", HostJson(host).c_str());

  const Synth synth(args.seed);
  if (!synth.CheckAnalyzerIdentity()) Fail("analyzer changes generated text");
  const bool live = workload == Workload::kLiveMixed;
  const std::size_t docs = live ? kLiveDocs : kDocs;
  const lsi::text::Corpus corpus = synth.BaseCorpus(docs);
  const std::string work_dir =
      args.out_dir + "/tmp-" + args.workload + "-" + std::to_string(args.seed) +
      "-" + std::to_string(::getpid());
  std::filesystem::create_directories(work_dir);

  // ---- set-up: engine build until the first request is accepted.
  std::vector<double> setup_times;
  std::unique_ptr<Stack> stack;
  lsi::obs::MetricsSnapshot before_setup;
  double factor_before = 0.0;
  const int setups = live ? kLiveSetups : 1;
  for (int attempt = 0; attempt < setups; ++attempt) {
    if (stack) stack.reset();  // Earlier attempts only time the set-up.
    lsi::text::Corpus copy = live ? corpus : lsi::text::Corpus();
    before_setup = lsi::obs::MetricsRegistry::Global().Snapshot();
    factor_before = FactorSpanSeconds();
    const Clock::time_point t0 = Clock::now();
    switch (workload) {
      case Workload::kSearchCold:
      case Workload::kSearchZipf:
        stack = SetupSearch(corpus);
        break;
      case Workload::kLiveMixed:
        stack = SetupLive(std::move(copy),
                          work_dir + "/wal" + std::to_string(attempt));
        break;
      case Workload::kRoutedCold:
        stack = SetupRouted(corpus);
        break;
    }
    setup_times.push_back(MsBetween(t0, Clock::now()) / 1e3);
  }
  const lsi::obs::MetricsSnapshot after_setup =
      lsi::obs::MetricsRegistry::Global().Snapshot();
  const double svd_build_s = FactorSpanSeconds() - factor_before;
  const double svd_matvecs =
      CounterDelta(before_setup, after_setup, "lsi.svd.lanczos.matvecs");

  const Clock::time_point setup_done = Clock::now();
  std::unique_ptr<Writer> writer;
  if (live) writer = std::make_unique<Writer>(synth, args.seed, docs);
  StreamRunner runner(workload, args, synth, stack.get(), writer.get());

  // ---- untraced window: the end-to-end metrics.
  const CpuTicks ticks_before = ReadCpuTicks();
  const WindowResult window = runner.Run(kWarmupSeconds);
  const double steal_percent = StealPercent(ticks_before, ReadCpuTicks());
  const WindowSummary summary = Summarize(window);
  std::size_t checked = 0;
  std::size_t mismatches =
      live ? 0 : CheckOracle(workload, *stack, window.samples, nullptr, &checked);
  std::size_t attempted = summary.attempted;
  std::size_t failed = summary.failed + mismatches;
  bool correct = true;

  Metrics metrics;
  SpanLog spans;
  if (args.trace) {
    const lsi::obs::MetricsSnapshot before = lsi::obs::MetricsRegistry::Global().Snapshot();
    const lsi::live::LiveStats live_before =
        live ? stack->live->stats() : lsi::live::LiveStats();
    const WindowResult traced = runner.Run(0.0);
    const lsi::obs::MetricsSnapshot after = lsi::obs::MetricsRegistry::Global().Snapshot();
    const lsi::live::LiveStats live_after =
        live ? stack->live->stats() : lsi::live::LiveStats();
    const WindowSummary traced_summary = Summarize(traced);
    for (const Op& op : traced.ops) {
      const std::uint64_t request = spans.NewRequest();
      (void)spans.AddMeasured(op.kind == OpKind::kQuery ? "client.query"
                                                        : "client.write",
                              0, request, op.latency_ms * 1e3);
    }
    std::size_t traced_checked = 0;
    std::unique_ptr<lsi::core::LsiEngine> unsharded;
    if (workload == Workload::kRoutedCold) {
      // The traced run also checks against a real unsharded engine.
      auto built = lsi::core::LsiEngine::Build(corpus);
      if (!built.ok()) Fail("unsharded build: " + built.status().ToString());
      unsharded = std::make_unique<lsi::core::LsiEngine>(std::move(built).value());
    }
    const std::size_t traced_mismatches =
        live ? 0
             : CheckOracle(workload, *stack, traced.samples, unsharded.get(),
                           &traced_checked);
    checked += traced_checked;
    attempted += traced_summary.attempted;
    failed += traced_summary.failed + traced_mismatches;

    const double hits = CounterDelta(before, after, "lsi.serve.cache.hits");
    const double misses = CounterDelta(before, after, "lsi.serve.cache.misses");
    const double hit_ratio = hits + misses > 0 ? hits / (hits + misses) : 0.0;
    const double batch_mean =
        HistogramDeltaMean(before, after, "lsi.serve.batch.size");
    for (const auto& [name, unit] : PerLayerMetrics()) metrics.Set(name, 0.0, unit);
    metrics.Set("serve.cache.hit_ratio", hit_ratio, "ratio");
    metrics.Set("serve.cache.evictions",
                CounterDelta(before, after, "lsi.serve.cache.evictions"), "count");
    metrics.Set("serve.batch.size_mean", batch_mean, "count");
    metrics.Set("serve.batch.flushes",
                CounterDelta(before, after, "lsi.serve.batch.flushes"), "count");
    metrics.Set("serve.admission_rejected",
                CounterDelta(before, after, "lsi.serve.admission_rejected"),
                "count");
    metrics.Set("par.regions", CounterDelta(before, after, "lsi.par.regions"),
                "count");
    metrics.Set("par.tasks", CounterDelta(before, after, "lsi.par.tasks"), "count");
    metrics.Set("par.wait_ms", CounterDelta(before, after, "lsi.par.wait_ms"), "ms");
    metrics.Set("shard.hedges", CounterDelta(before, after, "lsi.shard.hedges"),
                "count");
    metrics.Set("shard.partials", CounterDelta(before, after, "lsi.shard.partials"),
                "count");
    metrics.Set("shard.failures", CounterDelta(before, after, "lsi.shard.failures"),
                "count");
    if (live) {
      metrics.Set("live.publishes",
                  static_cast<double>(live_after.publishes - live_before.publishes),
                  "count");
      metrics.Set("live.refreshes",
                  static_cast<double>(live_after.refreshes - live_before.refreshes),
                  "count");
      metrics.Set("live.drift_mean_radians", live_after.drift_mean_radians, "rad");
      metrics.Set("live.cache_hit_ratio", hit_ratio, "ratio");
      metrics.Set("live.write_p50_ms", summary.write_p50, "ms");
      metrics.Set("live.write_p95_ms", summary.write_p95, "ms");
    }
    if (workload == Workload::kRoutedCold) {
      metrics.Set("shard.doc_vector_bytes",
                  static_cast<double>(stack->shards->shard(0).NumDocuments() *
                                      stack->shards->shard(0).rank() * 8),
                  "bytes");
    }
    metrics.Set("linalg.svd_build_s", svd_build_s, "s");
    metrics.Set("linalg.svd_matvecs", svd_matvecs, "count");
    metrics.Set("loadgen.send_lag_p99_ms", summary.lag_p99, "ms");
    metrics.Set("trace.overhead_qps", traced_summary.qps - summary.qps, "1/s");
    metrics.Set("trace.overhead_query_p50_ms", traced_summary.p50 - summary.p50,
                "ms");
    metrics.Set("host.calib_ns_per_op", host.calib_ns_per_op, "ns");
    metrics.Set("host.nproc", host.nproc, "count");
    metrics.Set("host.steal_pct", steal_percent, "%");

    LayerContext context;
    context.workload = workload;
    context.stack = stack.get();
    context.synth = &synth;
    context.corpus = &corpus;
    context.first_query = runner.next_query();
    context.writer = writer.get();
    context.work_dir = work_dir;
    context.observed_batch_size = batch_mean;
    if (!MeasureLayers(context, &metrics, &spans)) {
      std::fprintf(stderr, "lsibench: a layer replay disagreed with the "
                           "serving path\n");
      correct = false;
    }
    for (const auto& [layer, ms] : spans.LayerSelfTimesMs()) {
      const std::string name = "layer." + layer + ".self_ms";
      for (const auto& [known, unit] : PerLayerMetrics()) {
        if (name == known) metrics.Set(name, ms, "ms");
      }
    }
    std::printf("# traced window: qps %.2f p50 %.3f ms (untraced %.2f / %.3f)\n",
                traced_summary.qps, traced_summary.p50, summary.qps, summary.p50);
  }

  // ---- post-run consistency.
  if (live) {
    if (writer->epoch_regressions() != 0) {
      std::fprintf(stderr, "lsibench: receipt epochs went backwards\n");
      correct = false;
    }
    if (!stack->live->Flush().ok()) correct = false;
    const std::size_t expected =
        docs + writer->adds() - writer->deletes();
    const std::size_t actual = stack->live->stats().documents;
    std::printf("# live documents: %zu (base %zu + adds %llu - deletes %llu = %zu)\n",
                actual, docs, static_cast<unsigned long long>(writer->adds()),
                static_cast<unsigned long long>(writer->deletes()), expected);
    if (actual != expected) {
      std::fprintf(stderr, "lsibench: live document count %zu, expected %zu\n",
                   actual, expected);
      correct = false;
      ++failed;
    }
  }
  const double peak_rss = PeakRssMb();
  stack.reset();

  if (args.trace) {
    std::filesystem::create_directories(args.out_dir);
    const std::string path = args.out_dir + "/trace-" + args.workload + "-" +
                             std::to_string(args.seed) + ".json";
    WriteTrace(path, args, host, spans, metrics);
    std::printf("# spans: %zu written to %s\n", spans.spans().size(), path.c_str());
  } else {
    metrics.Set("qps", summary.qps, "1/s");
    metrics.Set("query_p50_ms", summary.p50, "ms");
    metrics.Set("query_p99_ms", summary.p99, "ms");
    metrics.Set("setup_s", Median(setup_times), "s");
    metrics.Set("peak_rss_mb", peak_rss, "MiB");
  }
  std::error_code ignored;
  std::filesystem::remove_all(work_dir, ignored);

  correct = correct && failed == 0;
  std::vector<std::size_t> per_second(
      static_cast<std::size_t>(std::ceil(window.seconds)), 0);
  for (const Op& op : window.ops) {
    const auto second = static_cast<std::size_t>(op.start_ms / 1e3);
    if (op.ok && op.kind == OpKind::kQuery && second < per_second.size()) {
      ++per_second[second];
    }
  }
  std::printf("# queries per second of the window:");
  for (std::size_t count : per_second) std::printf(" %zu", count);
  std::printf("\n# cpu steal during the window: %.1f%%\n", steal_percent);
  std::printf("# wall: %.1f s before set-up, %.1f s set-up, %.1f s after\n",
              MsBetween(run_start, setup_done) / 1e3 -
                  std::accumulate(setup_times.begin(), setup_times.end(), 0.0),
              std::accumulate(setup_times.begin(), setup_times.end(), 0.0),
              MsBetween(setup_done, Clock::now()) / 1e3);
  std::printf("# %s seed %llu: %zu queries (%zu beyond p99), %zu writes, "
              "%zu/%zu responses checked against the oracle, %zu mismatches\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              summary.queries, summary.beyond_p99, summary.writes, checked,
              checked, mismatches);
  std::printf("# error_rate %.6f (%zu failed / %zu attempted); write p50 %.3f ms "
              "p95 %.3f ms; open-loop send lag p99 %.3f ms\n",
              attempted > 0 ? static_cast<double>(failed) / attempted : 0.0,
              failed, attempted, summary.write_p50, summary.write_p95,
              summary.lag_p99);
  for (const Metrics::Entry& entry : metrics.entries()) {
    std::printf("# %-36s %14.4f %s\n", entry.name.c_str(), entry.value,
                entry.unit.c_str());
  }
  std::printf("%s\n", ResultLine(correct, std::max<std::size_t>(attempted, 1),
                                 failed, metrics)
                          .c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace lsibench

int main(int argc, char** argv) { return lsibench::Main(argc, argv); }
