#ifndef XMLAC_ENGINE_ANNOTATOR_H_
#define XMLAC_ENGINE_ANNOTATOR_H_

// Annotation and re-annotation over a Backend (paper Sec. 5.2 / 5.3).
//
// Two execution paths, selected by the optional AnnotationContext:
//
//  - Legacy (no cache): one compound Fig. 5 annotation query through
//    Backend::EvaluateAnnotationSet, signs written wholesale.  This is the
//    paper-faithful baseline and the differential-testing reference for
//    the cached path.  It still keeps a supplied SignState exact, so the
//    marked bitmap is the sign of record on both paths.
//
//  - Cached bitmap path: each rule's scope is fetched from (or installed
//    into) the shared RuleScopeCache as a NodeBitmap; the Table 2 / Fig. 5
//    UNION/EXCEPT combination runs serially as word-wise OR / AND-NOT; and
//    when a SignState is supplied, SetSigns becomes a bitmap diff against
//    the store's current sign bitmap, emitting only the ids whose sign
//    actually changes.  Distinct cache-miss rules evaluate concurrently
//    when the backend supports it.

#include <cstdint>
#include <vector>

#include "engine/backend.h"
#include "engine/node_bitmap.h"
#include "engine/rule_cache.h"
#include "policy/policy.h"
#include "policy/trigger.h"

namespace xmlac::engine {

struct AnnotateStats {
  // Nodes whose sign was written to the non-default value.  On the bitmap
  // diff path only the signs that changed are written, so this counts the
  // actual writes, not the full Fig. 5 set.
  size_t marked = 0;
  // Nodes whose sign was written back to the default.
  size_t reset = 0;
  // Rules that participated.
  size_t rules_used = 0;
};

// The store's current sign bitmap: exactly the alive ids whose sign is
// the non-default value (bits of deleted nodes may linger; see
// node_bitmap.h).  Owned by the AccessController and maintained by both
// annotation paths: cached (re)annotations diff against it instead of
// rewriting, and it is the sign set the WAL and snapshots record.
struct SignState {
  // False until a full annotation (or a restore) establishes the bitmap,
  // and again after a document reload.  When invalid, a cached full
  // annotation falls back to ResetAllSigns + full SetSigns and then
  // re-establishes the state; a cached partial re-annotation is an
  // Internal error.
  bool valid = false;
  char default_sign = '-';
  NodeBitmap marked;
};

struct AnnotationContext {
  // Null disables the cached path entirely (legacy behavior).
  RuleScopeCache* rule_cache = nullptr;
  // Document epoch to read/install rule scopes at (see rule_cache.h).
  uint64_t epoch = 0;
  // Optional sign-diff state; null means signs are written wholesale.
  SignState* sign_state = nullptr;
  // Threads taking part in cache-miss rule evaluation (0 = auto); only
  // used when backend->SupportsParallelEval().
  size_t parallel_rules = 0;
};

// Full annotation: evaluate the Fig. 5 annotation query over all rules and
// establish the signs (by wholesale reset+mark, or by diff when `ctx`
// carries a valid SignState).
Result<AnnotateStats> AnnotateFull(Backend* backend,
                                   const policy::Policy& policy,
                                   AnnotationContext* ctx = nullptr);

// Partial re-annotation after an update, given the triggered rule set and
// the ids that were in the triggered rules' scopes *before* the update
// (so stale non-default signs get reset even when a node left a scope).
Result<AnnotateStats> Reannotate(Backend* backend,
                                 const policy::Policy& policy,
                                 const std::vector<size_t>& triggered,
                                 const std::vector<UniversalId>& old_scope,
                                 AnnotationContext* ctx = nullptr);

// Union of the triggered rules' scopes as currently stored — the pre-update
// snapshot Reannotate() needs.  With a context, per-rule scopes are served
// from the cache at ctx->epoch (the controller passes the pre-update
// epoch).
Result<std::vector<UniversalId>> TriggeredScope(
    Backend* backend, const policy::Policy& policy,
    const std::vector<size_t>& triggered,
    const AnnotationContext* ctx = nullptr);

}  // namespace xmlac::engine

#endif  // XMLAC_ENGINE_ANNOTATOR_H_
