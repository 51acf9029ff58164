#include "policy/trigger.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "xpath/containment.h"

namespace xmlac::policy {

TriggerIndex::TriggerIndex(const Policy& policy,
                           const xml::SchemaGraph* schema,
                           const TriggerOptions& options)
    : policy_(policy),
      options_(options),
      depgraph_(policy, options.containment_cache) {
  expansions_.reserve(policy.rules().size());
  for (const Rule& r : policy.rules()) {
    expansions_.push_back(
        xpath::Expand(r.resource, schema, options.expansion));
  }
  if (options_.containment_cache != nullptr) {
    expansion_keys_.reserve(expansions_.size());
    for (const std::vector<xpath::Path>& paths : expansions_) {
      std::vector<std::string> keys;
      keys.reserve(paths.size());
      for (const xpath::Path& p : paths) keys.push_back(xpath::ToString(p));
      expansion_keys_.push_back(std::move(keys));
    }
  }
}

std::vector<size_t> TriggerIndex::Trigger(const xpath::Path& u,
                                          TriggerStats* stats) const {
  obs::ScopedSpan span("trigger");
  obs::ScopedTimer timer("trigger.elapsed_us");
  TriggerStats local;
  std::vector<bool> fired(policy_.rules().size(), false);
  xpath::ContainmentCache* cache = options_.containment_cache;
  // Stringified once per probe; expansion strings were precomputed at
  // index build.
  std::string u_key = cache != nullptr ? xpath::ToString(u) : std::string();
  for (size_t i = 0; i < expansions_.size(); ++i) {
    for (size_t k = 0; k < expansions_[i].size(); ++k) {
      const xpath::Path& x = expansions_[i][k];
      local.containment_tests += 2;
      bool hit = cache != nullptr
                     ? (cache->Contains(x, u, expansion_keys_[i][k], u_key) ||
                        cache->Contains(u, x, u_key, expansion_keys_[i][k]))
                     : (xpath::Contains(x, u) || xpath::Contains(u, x));
      if (hit || xpath::MayOverlap(x, u)) {
        fired[i] = true;
        ++local.directly_triggered;
        break;
      }
    }
  }
  // Dependency closure.
  std::vector<bool> result = fired;
  for (size_t i = 0; i < fired.size(); ++i) {
    if (!fired[i]) continue;
    for (size_t dep : depgraph_.Depends(i)) {
      if (!result[dep]) {
        result[dep] = true;
        ++local.dependency_added;
      }
    }
  }
  std::vector<size_t> out;
  for (size_t i = 0; i < result.size(); ++i) {
    if (result[i]) out.push_back(i);
  }
  if (stats != nullptr) *stats = local;
  obs::IncrementCounter("trigger.invocations");
  obs::IncrementCounter("trigger.containment_tests", local.containment_tests);
  obs::IncrementCounter("trigger.rules_fired", out.size());
  obs::IncrementCounter("trigger.rules_skipped", policy_.size() - out.size());
  obs::IncrementCounter("trigger.dependency_closure_added",
                        local.dependency_added);
  if (span.active()) {
    span.AddCount("containment_tests",
                  static_cast<int64_t>(local.containment_tests));
    span.AddCount("fired", static_cast<int64_t>(out.size()));
    span.AddCount("dependency_added",
                  static_cast<int64_t>(local.dependency_added));
  }
  return out;
}

}  // namespace xmlac::policy
