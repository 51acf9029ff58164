#ifndef XMLAC_XPATH_EVALUATOR_H_
#define XMLAC_XPATH_EVALUATOR_H_

#include <vector>

#include "common/shard.h"
#include "xml/document.h"
#include "xpath/ast.h"

namespace xmlac::xpath {

class IndexVersion;

// Selects between the two evaluation engines.  The default-constructed
// options keep the naive step-at-a-time evaluator (the reference the
// differential oracle checks against); a non-null `index` routes
// evaluation through the structural-join engine in structural_eval.h.
// `index` is an immutable IndexVersion the writer read from its publisher
// or the caller owns via shared_ptr (see structural_index.h); the caller
// guarantees it was built for `doc`'s lineage.  If the version doesn't
// match the queried document, evaluation falls back to the naive path —
// the index can never make results stale — and counts
// `xpath.structural.fallbacks`, since a stale index means a publish was
// missed upstream.
struct EvaluatorOptions {
  const IndexVersion* index = nullptr;
  // Exchange fan-out for the structural engine (common/shard.h): large
  // context sets split into interval ranges and evaluate shard-parallel
  // with an order-preserving merge.  Identical results either way; disable
  // to force serial execution (the differential harness does both).
  ShardConfig shard;
};

// Evaluates an absolute path on a document.  Returns the selected element
// nodes, deduplicated, in document (pre-)order.  Per the paper's model the
// root element is a child of a virtual document node, so `/hospital` selects
// the root and `//patient` selects patients at any depth.
std::vector<xml::NodeId> Evaluate(const Path& path, const xml::Document& doc);

// Evaluates a relative path from `context`.  An empty relative path selects
// the context node itself.
std::vector<xml::NodeId> EvaluateFrom(const Path& path,
                                      const xml::Document& doc,
                                      xml::NodeId context);

// Engine-dispatching overloads (implemented in structural_eval.cc).
std::vector<xml::NodeId> Evaluate(const Path& path, const xml::Document& doc,
                                  const EvaluatorOptions& options);
std::vector<xml::NodeId> EvaluateFrom(const Path& path,
                                      const xml::Document& doc,
                                      xml::NodeId context,
                                      const EvaluatorOptions& options);

// True if `node` satisfies all of `step`'s predicates.
bool PredicatesHold(const Step& step, const xml::Document& doc,
                    xml::NodeId node);

// The comparison semantics used by predicates: if both sides parse as
// numbers, compare numerically, otherwise lexicographically.
bool CompareValues(const std::string& lhs, CmpOp op, const std::string& rhs);

}  // namespace xmlac::xpath

#endif  // XMLAC_XPATH_EVALUATOR_H_
