#ifndef XMLAC_POLICY_TRIGGER_H_
#define XMLAC_POLICY_TRIGGER_H_

// The Trigger algorithm (paper Fig. 8 / Sec. 5.3): given an update query u
// (an XPath designating inserted/deleted nodes), find the rules whose scopes
// must be re-annotated.
//
//   1. Expand every rule into the predicate-free paths of all nodes its
//      pattern touches, with descendant axes inside the pattern rewritten
//      via the schema (xpath::Expand).
//   2. A rule fires when some expanded path x satisfies x ⊑ u or u ⊑ x
//      (equivalence is both), or when x and u may select a common node
//      (xpath::MayOverlap) — the paper's Trigger "tests containment/overlap
//      against u"; containment alone misses e.g. an insert under //e3 for
//      a rule /*//*, whose expansions neither contain nor are contained by
//      //e3/e6.
//   3. Close the fired set over the dependency graph (opposite-effect rules
//      whose resources may overlap).

#include <vector>

#include "policy/depgraph.h"
#include "policy/policy.h"
#include "xml/schema_graph.h"
#include "xpath/containment_cache.h"
#include "xpath/expansion.h"

namespace xmlac::policy {

struct TriggerOptions {
  xpath::ExpansionOptions expansion;
  // Optional memoization of containment tests across updates (the paper
  // cached containment results the same way).  Not owned; must outlive the
  // index.
  xpath::ContainmentCache* containment_cache = nullptr;
};

struct TriggerStats {
  size_t containment_tests = 0;
  size_t directly_triggered = 0;
  size_t dependency_added = 0;
};

// Pre-computed per-policy state so repeated updates don't re-expand rules or
// rebuild the dependency graph (the paper computes both offline).
class TriggerIndex {
 public:
  TriggerIndex(const Policy& policy, const xml::SchemaGraph* schema,
               const TriggerOptions& options = {});

  // Rule indices (sorted) to re-annotate for update `u`.
  std::vector<size_t> Trigger(const xpath::Path& u,
                              TriggerStats* stats = nullptr) const;

  const DependencyGraph& dependency_graph() const { return depgraph_; }
  const std::vector<std::vector<xpath::Path>>& expansions() const {
    return expansions_;
  }

 private:
  const Policy& policy_;
  TriggerOptions options_;
  std::vector<std::vector<xpath::Path>> expansions_;
  // Canonical strings of expansions_, precomputed so each Trigger probe
  // keys the containment cache without re-stringifying every expansion.
  std::vector<std::vector<std::string>> expansion_keys_;
  DependencyGraph depgraph_;
};

}  // namespace xmlac::policy

#endif  // XMLAC_POLICY_TRIGGER_H_
