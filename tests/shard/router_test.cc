#include "shard/router.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "core/engine.h"
#include "obs/metrics.h"
#include "serve/json.h"
#include "serve/retry.h"
#include "serve/server.h"
#include "serve/service.h"
#include "shard/shard_set.h"
#include "text/analyzer.h"
#include "text/corpus.h"

namespace lsi::shard {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

text::Corpus ThreeTopicCorpus() {
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

ShardSetOptions SmallOptions(std::size_t num_shards) {
  ShardSetOptions options;
  options.num_shards = num_shards;
  options.engine.rank = 3;
  options.engine.solver = core::SvdSolver::kJacobi;
  return options;
}

serve::ServerOptions Loopback() {
  serve::ServerOptions options;
  options.port = 0;
  options.host = "127.0.0.1";
  options.threads = 2;
  return options;
}

serve::HttpRequest QueryRequest(std::string body) {
  serve::HttpRequest request;
  request.method = "POST";
  request.target = "/query";
  request.version = "HTTP/1.1";
  request.body = std::move(body);
  request.keep_alive = true;
  return request;
}

steady_clock::time_point Soon(long ms = 2000) {
  return steady_clock::now() + milliseconds(ms);
}

const std::string* FindHeader(const serve::HttpResponse& response,
                              const std::string& name) {
  for (const auto& [key, value] : response.extra_headers) {
    if (key == name) return &value;
  }
  return nullptr;
}

/// One real shard backend: an HttpServer serving an LsiService over one
/// shard's engine.
class Backend {
 public:
  explicit Backend(const core::LsiEngine& engine)
      : service_(std::make_unique<serve::LsiService>(engine)),
        server_(std::make_unique<serve::HttpServer>(
            [this](const serve::HttpRequest& request,
                   steady_clock::time_point deadline) {
              return service_->Handle(request, deadline);
            },
            Loopback())) {}

  void Start() { ASSERT_TRUE(server_->Start().ok()); }
  void Stop() { server_->Stop(); }
  int port() const { return server_->port(); }
  std::string address() const {
    return "127.0.0.1:" + std::to_string(server_->port());
  }

 private:
  std::unique_ptr<serve::LsiService> service_;
  std::unique_ptr<serve::HttpServer> server_;
};

/// An address that refuses connections: bind an ephemeral listener to
/// learn a free port, then close it.
std::string DeadAddress() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
  socklen_t len = sizeof addr;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  const int port = ntohs(addr.sin_port);
  ::close(fd);
  return "127.0.0.1:" + std::to_string(port);
}

RouterOptions BaseRouterOptions() {
  RouterOptions options;
  // No background probe interference: tests drive probes via ProbeNow.
  options.health_interval = milliseconds(60000);
  options.hedge_initial = milliseconds(250);
  return options;
}

class RouterTest : public ::testing::Test {
 protected:
  RouterTest() : corpus_(ThreeTopicCorpus()) {
    auto set = ShardSet::Build(corpus_, SmallOptions(2));
    EXPECT_TRUE(set.ok());
    set_ = std::make_unique<ShardSet>(std::move(set).value());
    auto unsharded = core::LsiEngine::Build(corpus_, SmallOptions(1).engine);
    EXPECT_TRUE(unsharded.ok());
    baseline_service_ = std::make_unique<serve::LsiService>(
        *(unsharded_ = std::make_unique<core::LsiEngine>(
              std::move(unsharded).value())));
  }

  void TearDown() override { fault::FaultRegistry::Global().DisarmAll(); }

  std::string BaselineBody(const std::string& request_body) {
    serve::HttpResponse response =
        baseline_service_->Handle(QueryRequest(request_body), Soon());
    EXPECT_EQ(response.status, 200) << response.body;
    return response.body;
  }

  text::Corpus corpus_;
  std::unique_ptr<ShardSet> set_;
  std::unique_ptr<core::LsiEngine> unsharded_;
  std::unique_ptr<serve::LsiService> baseline_service_;
};

TEST_F(RouterTest, StartRejectsBadConfigurations) {
  {
    Router router(BaseRouterOptions());
    EXPECT_FALSE(router.Start().ok());  // No shards.
  }
  {
    RouterOptions options = BaseRouterOptions();
    options.shards = {{"not-an-address"}};
    Router router(std::move(options));
    EXPECT_FALSE(router.Start().ok());
  }
}

TEST_F(RouterTest, FullResultIsByteIdenticalToUnshardedService) {
  Backend b0(set_->shard(0));
  Backend b1(set_->shard(1));
  b0.Start();
  b1.Start();
  RouterOptions options = BaseRouterOptions();
  options.shards = {{b0.address()}, {b1.address()}};
  Router router(std::move(options));
  ASSERT_TRUE(router.Start().ok());

  const std::string request_body =
      R"({"query": "astronauts near the moon", "top_k": 3})";
  serve::HttpResponse response =
      router.Handle(QueryRequest(request_body), Soon());
  ASSERT_EQ(response.status, 200) << response.body;
  EXPECT_EQ(FindHeader(response, "X-Lsi-Partial"), nullptr);
  // The whole point of shared-latent-space sharding: the scattered,
  // merged, re-serialized answer is the unsharded answer, byte for byte.
  EXPECT_EQ(response.body, BaselineBody(request_body));

  // Multi-query bodies round-trip the same way.
  const std::string multi =
      R"({"queries": ["garlic pasta sauce", "repairing a car engine"], "top_k": 2})";
  serve::HttpResponse multi_response =
      router.Handle(QueryRequest(multi), Soon());
  ASSERT_EQ(multi_response.status, 200) << multi_response.body;
  EXPECT_EQ(multi_response.body, BaselineBody(multi));

  router.Stop();
  b0.Stop();
  b1.Stop();
}

TEST_F(RouterTest, ValidatesRequestBodies) {
  Backend b0(set_->shard(0));
  Backend b1(set_->shard(1));
  b0.Start();
  b1.Start();
  RouterOptions options = BaseRouterOptions();
  options.shards = {{b0.address()}, {b1.address()}};
  Router router(std::move(options));
  ASSERT_TRUE(router.Start().ok());

  EXPECT_EQ(router.Handle(QueryRequest("not json"), Soon()).status, 400);
  EXPECT_EQ(router.Handle(QueryRequest("{}"), Soon()).status, 400);
  EXPECT_EQ(
      router.Handle(QueryRequest(R"({"query": "a", "queries": ["b"]})"),
                    Soon())
          .status,
      400);
  EXPECT_EQ(
      router.Handle(QueryRequest(R"({"query": "a", "top_k": 0})"), Soon())
          .status,
      400);
  // The router takes the unsharded server's top_k range, serve::kMaxTopK,
  // and answers within it byte-identically.
  const std::string wide = R"({"query": "moon pasta engine", "top_k": 101})";
  serve::HttpResponse wide_response = router.Handle(QueryRequest(wide), Soon());
  EXPECT_EQ(wide_response.status, 200) << wide_response.body;
  EXPECT_NE(wide_response.body.find("space1"), std::string::npos);
  EXPECT_EQ(wide_response.body, BaselineBody(wide));
  EXPECT_EQ(
      router.Handle(QueryRequest(R"({"query": "a", "top_k": 1001})"), Soon())
          .status,
      400);
  serve::HttpRequest get = QueryRequest("{}");
  get.method = "GET";
  EXPECT_EQ(router.Handle(get, Soon()).status, 405);
  get.target = "/nowhere";
  EXPECT_EQ(router.Handle(get, Soon()).status, 404);

  router.Stop();
  b0.Stop();
  b1.Stop();
}

TEST_F(RouterTest, BackendClientErrorIsRelayedWithoutEjectingReplicas) {
  Backend b0(set_->shard(0));
  Backend b1(set_->shard(1));
  b0.Start();
  b1.Start();
  RouterOptions options = BaseRouterOptions();
  options.shards = {{b0.address()}, {b1.address()}};
  Router router(std::move(options));
  ASSERT_TRUE(router.Start().ok());

  // One query more than a backend accepts per request: the router
  // forwards it, every backend answers 400, and that 400 is the answer —
  // a client's bad request says nothing about backend health.
  const std::size_t too_many =
      serve::kMaxQueriesPerRequest + 1;
  std::string oversized = R"({"queries": [)";
  for (std::size_t i = 0; i < too_many; ++i) {
    oversized += (i == 0 ? "" : ", ") + std::string(R"("moon")");
  }
  oversized += "]}";
  for (int i = 0; i < 3; ++i) {
    serve::HttpResponse response =
        router.Handle(QueryRequest(oversized), Soon());
    EXPECT_EQ(response.status, 400) << response.body;
    EXPECT_NE(response.body.find("queries length"), std::string::npos)
        << response.body;
  }
  EXPECT_EQ(router.ReplicaState(0, 0), BreakerState::kHealthy);
  EXPECT_EQ(router.ReplicaState(1, 0), BreakerState::kHealthy);

  const std::string valid =
      R"({"query": "astronauts near the moon", "top_k": 3})";
  serve::HttpResponse response = router.Handle(QueryRequest(valid), Soon());
  ASSERT_EQ(response.status, 200) << response.body;
  EXPECT_EQ(response.body, BaselineBody(valid));

  router.Stop();
  b0.Stop();
  b1.Stop();
}

TEST_F(RouterTest, DegradePolicyAnswersOverSurvivingShards) {
  Backend b0(set_->shard(0));
  b0.Start();
  RouterOptions options = BaseRouterOptions();
  options.partial = PartialPolicy::kDegrade;
  options.shards = {{b0.address()}, {DeadAddress()}};
  Router router(std::move(options));
  ASSERT_TRUE(router.Start().ok());

  serve::HttpResponse response = router.Handle(
      QueryRequest(R"({"query": "moon engine pasta", "top_k": 6})"), Soon());
  ASSERT_EQ(response.status, 200) << response.body;
  const std::string* partial = FindHeader(response, "X-Lsi-Partial");
  ASSERT_NE(partial, nullptr);
  EXPECT_EQ(*partial, "true");

  auto body = serve::JsonValue::Parse(response.body);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(body->Find("shards_ok")->number(), 1.0);
  EXPECT_EQ(body->Find("shards_total")->number(), 2.0);
  // Every hit comes from the surviving shard, with exact global scores.
  auto expected = set_->shard(0).Query("moon engine pasta", 6);
  ASSERT_TRUE(expected.ok());
  const serve::JsonValue* hits = body->Find("hits");
  ASSERT_NE(hits, nullptr);
  ASSERT_EQ(hits->array().size(), expected->size());
  for (std::size_t i = 0; i < expected->size(); ++i) {
    EXPECT_EQ(hits->array()[i].Find("document")->number(),
              static_cast<double>((*expected)[i].document));
    EXPECT_EQ(hits->array()[i].Find("score")->number(), (*expected)[i].score);
  }

  router.Stop();
  b0.Stop();
}

TEST_F(RouterTest, FailPolicyRefusesPartialResults) {
  Backend b0(set_->shard(0));
  b0.Start();
  RouterOptions options = BaseRouterOptions();
  options.partial = PartialPolicy::kFail;
  options.shards = {{b0.address()}, {DeadAddress()}};
  Router router(std::move(options));
  ASSERT_TRUE(router.Start().ok());

  serve::HttpResponse response = router.Handle(
      QueryRequest(R"({"query": "moon engine pasta"})"), Soon());
  EXPECT_EQ(response.status, 503);
  const std::string* retry_after = FindHeader(response, "Retry-After");
  ASSERT_NE(retry_after, nullptr);
  EXPECT_EQ(*retry_after, "1");

  router.Stop();
  b0.Stop();
}

TEST_F(RouterTest, AllShardsDownIs503) {
  RouterOptions options = BaseRouterOptions();
  options.shards = {{DeadAddress()}, {DeadAddress()}};
  Router router(std::move(options));
  ASSERT_TRUE(router.Start().ok());
  serve::HttpResponse response =
      router.Handle(QueryRequest(R"({"query": "moon"})"), Soon());
  EXPECT_EQ(response.status, 503);
  router.Stop();
}

TEST_F(RouterTest, DeadlineBudgetPropagatesToBackends) {
  std::atomic<long> seen_budget{-2};
  serve::HttpServer stub(
      [&seen_budget](const serve::HttpRequest& request,
                     steady_clock::time_point) {
        const std::string* header = request.FindHeader("x-lsi-deadline-ms");
        seen_budget.store(header != nullptr
                              ? serve::ParseDeadlineMs(*header)
                              : -1);
        serve::HttpResponse response;
        response.content_type = "application/json; charset=utf-8";
        response.body = R"({"hits":[]})";
        return response;
      },
      Loopback());
  ASSERT_TRUE(stub.Start().ok());
  RouterOptions options = BaseRouterOptions();
  options.shards = {{"127.0.0.1:" + std::to_string(stub.port())}};
  Router router(std::move(options));
  ASSERT_TRUE(router.Start().ok());

  serve::HttpResponse response = router.Handle(
      QueryRequest(R"({"query": "moon"})"), Soon(/*ms=*/700));
  ASSERT_EQ(response.status, 200) << response.body;
  // The backend saw the router's remaining budget: positive, and no
  // larger than the original deadline.
  EXPECT_GE(seen_budget.load(), 0);
  EXPECT_LE(seen_budget.load(), 700);

  router.Stop();
  stub.Stop();
}

TEST_F(RouterTest, HedgesToSecondReplicaWhenPrimaryStalls) {
  std::atomic<bool> stall{true};
  const std::string hits_body = R"({"hits":[]})";
  serve::HttpServer slow(
      [&stall, &hits_body](const serve::HttpRequest&,
                           steady_clock::time_point) {
        if (stall.load()) {
          std::this_thread::sleep_for(milliseconds(600));
        }
        serve::HttpResponse response;
        response.content_type = "application/json; charset=utf-8";
        response.body = hits_body;
        return response;
      },
      Loopback());
  serve::HttpServer fast(
      [&hits_body](const serve::HttpRequest&, steady_clock::time_point) {
        serve::HttpResponse response;
        response.content_type = "application/json; charset=utf-8";
        response.body = hits_body;
        return response;
      },
      Loopback());
  ASSERT_TRUE(slow.Start().ok());
  ASSERT_TRUE(fast.Start().ok());

  RouterOptions options = BaseRouterOptions();
  options.hedge_initial = milliseconds(50);
  options.shards = {{"127.0.0.1:" + std::to_string(slow.port()),
                     "127.0.0.1:" + std::to_string(fast.port())}};
  Router router(std::move(options));
  ASSERT_TRUE(router.Start().ok());

  obs::Counter& hedges =
      obs::MetricsRegistry::Global().GetCounter("lsi.shard.hedges");
  const std::uint64_t hedges_before = hedges.value();
  const auto begin = steady_clock::now();
  serve::HttpResponse response = router.Handle(
      QueryRequest(R"({"query": "moon"})"), Soon(/*ms=*/2000));
  const auto elapsed = steady_clock::now() - begin;
  ASSERT_EQ(response.status, 200) << response.body;
  EXPECT_EQ(FindHeader(response, "X-Lsi-Partial"), nullptr);
  EXPECT_GT(hedges.value(), hedges_before);
  // The hedge answered long before the stalled primary would have.
  EXPECT_LT(elapsed, milliseconds(500));

  stall.store(false);
  router.Stop();
  slow.Stop();
  fast.Stop();
}

TEST_F(RouterTest, BreakerEjectsFailingReplicaAndProbeHealsIt) {
  std::atomic<bool> healthy{false};
  serve::HttpServer flaky(
      [&healthy](const serve::HttpRequest& request, steady_clock::time_point) {
        serve::HttpResponse response;
        if (!healthy.load()) {
          // Plain 503, no Retry-After: the breaker backoff stays at its
          // tiny default base so the test can re-probe quickly.
          response.status = 503;
          response.content_type = "application/json; charset=utf-8";
          response.body = R"({"error": "down"})";
          return response;
        }
        if (request.target == "/healthz") {
          response.body = "ok\n";
          return response;
        }
        response.content_type = "application/json; charset=utf-8";
        response.body = R"({"hits":[]})";
        return response;
      },
      Loopback());
  ASSERT_TRUE(flaky.Start().ok());

  RouterOptions options = BaseRouterOptions();
  options.breaker.eject_threshold = 2;
  options.shards = {{"127.0.0.1:" + std::to_string(flaky.port())}};
  Router router(std::move(options));
  ASSERT_TRUE(router.Start().ok());

  const serve::HttpRequest request = QueryRequest(R"({"query": "moon"})");
  EXPECT_EQ(router.Handle(request, Soon()).status, 503);
  EXPECT_EQ(router.ReplicaState(0, 0), BreakerState::kDegraded);
  EXPECT_EQ(router.Handle(request, Soon()).status, 503);
  EXPECT_EQ(router.ReplicaState(0, 0), BreakerState::kEjected);
  // Ejected replica: the scatter path refuses to dispatch at all.
  EXPECT_EQ(router.Handle(request, Soon()).status, 503);

  // Heal the backend, wait out the (tiny, hint-less) backoff, and let a
  // probe sweep close the breaker.
  healthy.store(true);
  for (int i = 0; i < 50 && router.ReplicaState(0, 0) != BreakerState::kHealthy;
       ++i) {
    std::this_thread::sleep_for(milliseconds(20));
    router.ProbeNow();
  }
  EXPECT_EQ(router.ReplicaState(0, 0), BreakerState::kHealthy);
  EXPECT_EQ(router.Handle(request, Soon()).status, 200);

  router.Stop();
  flaky.Stop();
}

TEST_F(RouterTest, PartialResultIsNeverCachedAndFullResultReplacesIt) {
  Backend b0(set_->shard(0));
  Backend b1(set_->shard(1));
  b0.Start();
  b1.Start();
  RouterOptions options = BaseRouterOptions();
  options.partial = PartialPolicy::kDegrade;
  options.shards = {{b0.address()}, {b1.address()}};
  Router router(std::move(options));
  ASSERT_TRUE(router.Start().ok());

  const std::string request_body =
      R"({"query": "astronauts near the moon", "top_k": 4})";
  const std::string full_body = BaselineBody(request_body);

  obs::Counter& rejected = obs::MetricsRegistry::Global().GetCounter(
      "lsi.serve.cache.partial_rejected");
  const std::uint64_t rejected_before = rejected.value();

  // First request: shard 0's dispatch fails (fault-injected outage), so
  // the answer is partial — and must not be admitted to the cache.
  ASSERT_TRUE(fault::FaultRegistry::Global()
                  .ArmFromString("shard.query.dispatch=once@1")
                  .ok());
  serve::HttpResponse degraded =
      router.Handle(QueryRequest(request_body), Soon());
  ASSERT_EQ(degraded.status, 200) << degraded.body;
  ASSERT_NE(FindHeader(degraded, "X-Lsi-Partial"), nullptr);
  EXPECT_NE(degraded.body, full_body);
  EXPECT_EQ(rejected.value(), rejected_before + 1);

  // After heal, the same query must produce the full answer — not the
  // stale partial replayed out of the cache.
  fault::FaultRegistry::Global().DisarmAll();
  for (int round = 0; round < 2; ++round) {
    serve::HttpResponse healed =
        router.Handle(QueryRequest(request_body), Soon());
    ASSERT_EQ(healed.status, 200) << round;
    EXPECT_EQ(FindHeader(healed, "X-Lsi-Partial"), nullptr) << round;
    EXPECT_EQ(healed.body, full_body) << round;
  }

  router.Stop();
  b0.Stop();
  b1.Stop();
}

TEST_F(RouterTest, StatuszReportsShardsAndMetricsExport) {
  Backend b0(set_->shard(0));
  b0.Start();
  RouterOptions options = BaseRouterOptions();
  options.shards = {{b0.address()}};
  Router router(std::move(options));
  ASSERT_TRUE(router.Start().ok());

  serve::HttpRequest statusz;
  statusz.method = "GET";
  statusz.target = "/statusz";
  serve::HttpResponse response = router.Handle(statusz, Soon());
  ASSERT_EQ(response.status, 200);
  auto body = serve::JsonValue::Parse(response.body);
  ASSERT_TRUE(body.ok()) << response.body;
  ASSERT_NE(body->Find("shards"), nullptr);
  EXPECT_EQ(body->Find("shards")->array().size(), 1u);
  EXPECT_NE(body->Find("scatter"), nullptr);
  EXPECT_EQ(body->Find("policy")->string_value(), "degrade");

  serve::HttpRequest healthz;
  healthz.method = "GET";
  healthz.target = "/healthz";
  EXPECT_EQ(router.Handle(healthz, Soon()).body, "ok\n");

  serve::HttpRequest metrics;
  metrics.method = "GET";
  metrics.target = "/metrics";
  serve::HttpResponse exported = router.Handle(metrics, Soon());
  EXPECT_EQ(exported.status, 200);
  EXPECT_NE(exported.body.find("lsi_shard_requests"), std::string::npos);

  router.Stop();
  b0.Stop();
}

}  // namespace
}  // namespace lsi::shard
