#include "common.h"

#include "serve/json.h"

namespace lsibench {

bool ParseHits(const std::string& body, std::vector<Hit>* hits) {
  hits->clear();
  auto parsed = lsi::serve::JsonValue::Parse(body);
  if (!parsed.ok() || !parsed->is_object()) return false;
  const lsi::serve::JsonValue* array = parsed->Find("hits");
  if (array == nullptr || !array->is_array()) return false;
  for (const lsi::serve::JsonValue& item : array->array()) {
    const lsi::serve::JsonValue* document = item.Find("document");
    const lsi::serve::JsonValue* name = item.Find("name");
    const lsi::serve::JsonValue* score = item.Find("score");
    if (document == nullptr || !document->is_number() || name == nullptr ||
        !name->is_string() || score == nullptr || !score->is_number()) {
      return false;
    }
    hits->push_back({static_cast<std::size_t>(document->number()),
                     name->string_value(), score->number()});
  }
  return true;
}

bool WellOrdered(const std::vector<Hit>& hits, std::size_t top_k) {
  if (hits.size() > top_k) return false;
  for (std::size_t i = 1; i < hits.size(); ++i) {
    const Hit& a = hits[i - 1];
    const Hit& b = hits[i];
    if (a.score < b.score) return false;
    if (a.score == b.score && a.document >= b.document) return false;
  }
  return true;
}

bool SameHits(const std::vector<Hit>& wire,
              const std::vector<lsi::core::EngineHit>& expected) {
  if (wire.size() != expected.size()) return false;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    if (wire[i].document != expected[i].document ||
        wire[i].name != expected[i].document_name ||
        wire[i].score != expected[i].score) {
      return false;
    }
  }
  return true;
}

void Stack::Stop() {
  if (router_server) router_server->Stop();
  if (router) router->Stop();
  for (auto& server : servers) server->Stop();
  for (auto& service : services) service->Shutdown();
  if (live) (void)live->Close();
  router_server.reset();
  router.reset();
  servers.clear();
  services.clear();
  live.reset();
}

std::shared_ptr<const lsi::core::LsiEngine> Stack::QueryEngine() const {
  if (live) return live->Snapshot();
  const lsi::core::LsiEngine* raw = engine ? engine.get() : &shards->shard(0);
  return std::shared_ptr<const lsi::core::LsiEngine>(
      std::shared_ptr<const lsi::core::LsiEngine>(), raw);
}

}  // namespace lsibench
