#ifndef XMLAC_ENGINE_BACKEND_H_
#define XMLAC_ENGINE_BACKEND_H_

// Storage backend abstraction.
//
// The paper evaluates the same access-control pipeline over three stores:
// MonetDB/XQuery (native XML), MonetDB/SQL (column store) and PostgreSQL
// (row store).  Backend is the seam: NativeXmlBackend keeps the annotated
// tree, RelationalBackend shreds it à la ShreX over a row- or column-store
// catalog.  Annotator, Reannotator and Requester are written once against
// this interface.
//
// Node identity: the universal identifier (the tree NodeId widened to
// int64), shared by both representations.

#include <cstdint>
#include <string>
#include <vector>

#include "common/shard.h"
#include "common/status.h"
#include "policy/policy.h"
#include "policy/semantics.h"
#include "xml/document.h"
#include "xml/dtd.h"
#include "xpath/ast.h"

namespace xmlac::engine {

using UniversalId = int64_t;

class Backend {
 public:
  virtual ~Backend() = default;

  // Human-readable engine name for benchmark output ("xmldb",
  // "reldb/row", "reldb/column").
  virtual std::string name() const = 0;

  // Loads a document (replacing any previous content).  The backend keeps
  // its own representation; the caller's document is not retained.
  virtual Status Load(const xml::Dtd& dtd, const xml::Document& doc) = 0;
  virtual void Clear() = 0;

  // Alive element count.
  virtual size_t NodeCount() const = 0;

  // Exclusive upper bound on every universal id the store can currently
  // return (ids are arena indices and are never reused, so the bound only
  // grows).  Used to pre-size annotation bitmaps; 0 means unknown/empty.
  virtual size_t IdBound() const { return 0; }

  // Whether EvaluateQuery may be called concurrently from several threads
  // on this backend.  The native store's evaluator is read-only and
  // thread-safe; the relational executor mutates shared statistics, so
  // cache-miss rules evaluate serially there.
  virtual bool SupportsParallelEval() const { return false; }

  // Intra-operation shard-parallelism (common/shard.h): the native store
  // fans XPath evaluation and index rebuilds out per interval shard.
  // Results are identical either way; backends without parallel paths (the
  // relational store) ignore the call.
  virtual void SetShardConfig(const ShardConfig& shard) { (void)shard; }

  // Evaluates an absolute XPath query, returning matched node ids (sorted).
  virtual Result<std::vector<UniversalId>> EvaluateQuery(
      const xpath::Path& query) = 0;

  // Evaluates the Fig. 5 annotation set for the given rule subset: the
  // CombineOp-combination of the subset's positive and negative scopes.
  // The relational backend compiles this into one UNION/EXCEPT SQL
  // statement; the native backend combines node-id sets.
  virtual Result<std::vector<UniversalId>> EvaluateAnnotationSet(
      const policy::Policy& policy, const std::vector<size_t>& rule_subset,
      policy::CombineOp combine) = 0;

  // Sign bookkeeping.  Signs are '+' or '-'.
  virtual Status SetSigns(const std::vector<UniversalId>& ids, char sign) = 0;
  virtual Status ResetAllSigns(char default_sign) = 0;
  virtual Result<char> GetSign(UniversalId id) = 0;

  // Deletes the nodes selected by `u` together with their subtrees;
  // returns the number of nodes (tuples) removed.
  virtual Result<size_t> DeleteWhere(const xpath::Path& u) = 0;

  // Inserts a copy of `fragment` (its whole tree) under every node selected
  // by `target`, signs initialised to the store default.  Returns the
  // number of element nodes inserted.  Fresh universal ids are assigned
  // deterministically per backend; ids are not guaranteed to coincide
  // across different backends after inserts.
  virtual Result<size_t> InsertUnder(const xpath::Path& target,
                                     const xml::Document& fragment) = 0;
};

}  // namespace xmlac::engine

#endif  // XMLAC_ENGINE_BACKEND_H_
