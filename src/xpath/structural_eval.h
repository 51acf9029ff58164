#ifndef XMLAC_XPATH_STRUCTURAL_EVAL_H_
#define XMLAC_XPATH_STRUCTURAL_EVAL_H_

// Structural-join evaluator for the XP(/, //, *, [], =const) fragment.
//
// Instead of re-walking the subtree under every context node (the naive
// evaluator's strategy), a path compiles into a chain of stack-based merges
// over the index's tag streams, PathStack-style:
//
//   * descendant steps merge the start-sorted context list against the
//     step's tag stream, keeping a stack of still-open context intervals —
//     a candidate matches iff the stack is non-empty when its start is
//     reached: O(|context| + |stream slice|), each stream node examined
//     once no matter how many contexts contain it;
//   * child steps pick per step between iterating the contexts' child
//     lists (small contexts) and the same merge with a parent-membership
//     test (large contexts) — the choice is recorded as a join-strategy
//     tag on the query's trace span;
//   * predicate paths re-enter the same machinery with the stream sliced
//     to the context node's interval (binary search), and `[tag = const]`
//     leaves probe the index's per-tag value buckets instead of comparing
//     every candidate's text.
//
// Results match the naive evaluator exactly (same order contract, same
// comparison semantics); the differential harness runs both engines
// against the brute-force oracle.

#include <vector>

#include "common/shard.h"
#include "xml/document.h"
#include "xpath/ast.h"
#include "xpath/evaluator.h"
#include "xpath/structural_index.h"

namespace xmlac::xpath {

// `index` must be a version matching `doc` (IndexVersion::Matches); prefer
// the dispatching Evaluate(path, doc, options) overload, which checks and
// falls back to the naive engine.  The version is immutable: callers off
// the writer thread hold it by shared ownership (structural_index.h), and
// traversal itself is lock-free.
std::vector<xml::NodeId> EvaluateStructural(const Path& path,
                                            const xml::Document& doc,
                                            const IndexVersion& index);

std::vector<xml::NodeId> EvaluateFromStructural(const Path& path,
                                                const xml::Document& doc,
                                                xml::NodeId context,
                                                const IndexVersion& index);

// Shard-parallel variants: a step chain whose estimated join work is large
// fans out per contiguous context interval range onto ParallelFor with an
// order-preserving merge
// (exchange operator; docs/performance.md).  Results are byte-identical to
// the serial overloads for any shard count.
std::vector<xml::NodeId> EvaluateStructural(const Path& path,
                                            const xml::Document& doc,
                                            const IndexVersion& index,
                                            const ShardConfig& shard);

std::vector<xml::NodeId> EvaluateFromStructural(const Path& path,
                                                const xml::Document& doc,
                                                xml::NodeId context,
                                                const IndexVersion& index,
                                                const ShardConfig& shard);

}  // namespace xmlac::xpath

#endif  // XMLAC_XPATH_STRUCTURAL_EVAL_H_
