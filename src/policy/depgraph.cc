#include "policy/depgraph.h"

#include <functional>

#include "xpath/containment.h"

namespace xmlac::policy {

DependencyGraph::DependencyGraph(const Policy& policy,
                                 xpath::ContainmentCache* cache) {
  const std::vector<Rule>& rules = policy.rules();
  size_t n = rules.size();
  // Stringify each resource once: the pairwise sweep keys the cache on
  // canonical strings.
  std::vector<std::string> keys;
  if (cache != nullptr) {
    keys.reserve(n);
    for (const Rule& r : rules) keys.push_back(xpath::ToString(r.resource));
  }
  auto contains = [&](size_t a, size_t b) {
    return cache != nullptr
               ? cache->Contains(rules[a].resource, rules[b].resource,
                                 keys[a], keys[b])
               : xpath::Contains(rules[a].resource, rules[b].resource);
  };
  adjacency_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (rules[i].effect == rules[j].effect) continue;
      // Overlap, not only containment: when the scopes intersect without
      // either containing the other, the shared nodes' sign still depends
      // on both rules.
      if (xpath::MayOverlap(rules[i].resource, rules[j].resource) ||
          contains(i, j) || contains(j, i)) {
        adjacency_[i].push_back(j);
        adjacency_[j].push_back(i);
      }
    }
  }
  // Depend-Resolve: DFS closure per rule.
  depends_.resize(n);
  for (size_t r = 0; r < n; ++r) {
    std::vector<bool> visited(n, false);
    visited[r] = true;
    std::vector<size_t>& dlist = depends_[r];
    std::function<void(size_t)> resolve = [&](size_t u) {
      for (size_t v : adjacency_[u]) {
        if (!visited[v]) {
          visited[v] = true;
          dlist.push_back(v);
          resolve(v);
        }
      }
    };
    resolve(r);
  }
}

std::string DependencyGraph::DebugString(const Policy& policy) const {
  std::string out;
  for (size_t i = 0; i < adjacency_.size(); ++i) {
    out += policy.rules()[i].id;
    out += " ->";
    for (size_t j : adjacency_[i]) {
      out += ' ';
      out += policy.rules()[j].id;
    }
    out += '\n';
  }
  return out;
}

}  // namespace xmlac::policy
