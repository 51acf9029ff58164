#ifndef XMLAC_POLICY_DEPGRAPH_H_
#define XMLAC_POLICY_DEPGRAPH_H_

// Rule dependency graph (paper Fig. 7 / Sec. 5.3).
//
// Two rules are adjacent when they have *opposite* effects and their
// resources may select a common node: related by containment (either
// direction, including equivalence) or merely overlapping
// (xpath::MayOverlap).  Re-annotating the scope of one may need the other
// to decide the final sign of the shared nodes.  Depends(r) is the set of rules reachable from r — the
// transitive closure Depend-Resolve computes — so Trigger can add every rule
// whose outcome interacts with a triggered one.

#include <vector>

#include "policy/policy.h"
#include "xpath/containment_cache.h"

namespace xmlac::policy {

class DependencyGraph {
 public:
  // Builds adjacency + closures with O(n^2) containment tests, memoized
  // through `cache` when given — fleets re-building the graph for similar
  // policies (one TriggerIndex per subject) then pay the homomorphism
  // tests once.
  explicit DependencyGraph(const Policy& policy,
                           xpath::ContainmentCache* cache = nullptr);

  size_t num_rules() const { return adjacency_.size(); }

  // Direct neighbours of rule `i` (opposite effect, possibly overlapping).
  const std::vector<size_t>& Neighbours(size_t i) const {
    return adjacency_[i];
  }

  // All rules reachable from `i` (excluding `i` itself unless on a cycle
  // through another rule).
  const std::vector<size_t>& Depends(size_t i) const { return depends_[i]; }

  std::string DebugString(const Policy& policy) const;

 private:
  std::vector<std::vector<size_t>> adjacency_;
  std::vector<std::vector<size_t>> depends_;
};

}  // namespace xmlac::policy

#endif  // XMLAC_POLICY_DEPGRAPH_H_
