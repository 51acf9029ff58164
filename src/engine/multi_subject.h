#ifndef XMLAC_ENGINE_MULTI_SUBJECT_H_
#define XMLAC_ENGINE_MULTI_SUBJECT_H_

// Multi-subject access control.
//
// The paper fixes the rule tuple's `requester` component and studies a
// single subject; this layer restores the dimension: each subject gets its
// own policy over ONE shared store.  The materialized approach gives every
// node one sign per policy, so a subject's annotation is its own sign
// bitmap (plus a default sign), never its own copy of the document: each
// subject's AccessController runs over a small backend that forwards
// evaluation to the shared store and keeps the signs itself.  Only the
// fleet mutates the store — once per update, between every subject's
// Trigger/pre-scope step and every subject's re-annotation
// (AccessController::PrepareUpdate / FinishUpdate).
//
// Two fleet-level optimizations (docs/performance.md):
//  - one RuleScopeCache shared by every subject, so a rule path evaluated
//    for one subject is a bitmap hit for all others (hospital-style
//    policies reuse scope paths heavily across subjects);
//  - the per-subject update steps fan out across subjects on a worker pool
//    when the store's evaluation is thread-safe (the native store); the
//    relational executor is not, so there subjects run serially.

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "engine/access_controller.h"
#include "engine/native_backend.h"
#include "engine/rule_cache.h"

namespace xmlac::engine {

// The engine knobs (ExecOptions) reach every subject controller unchanged.
struct MultiSubjectOptions : ExecOptions {
  // Threads taking part in the per-subject fan-out (0 = auto, 1 = serial;
  // capped at the ParallelFor pool size + 1).
  size_t parallel_subjects = 0;
};

// Per-subject sign delta of one committed batch: the ids whose sign the
// batch flipped to the non-default value (`marked`) and back to the default
// (`cleared`).  This is PR 4's SignState diff, reified as the WAL wire
// format (docs/durability.md).
struct SubjectDelta {
  std::vector<UniversalId> marked;
  std::vector<UniversalId> cleared;
};

// Everything the WAL needs to make one ApplyBatch replayable without
// re-running policy evaluation.
struct CommitCapture {
  // The document's journaled mutations for the batch (informational —
  // replay re-derives them from the ops; empty when the bounded journal
  // overflowed mid-batch or the store is not native).
  std::vector<xml::Mutation> master_mutations;
  std::map<std::string, SubjectDelta> subjects;
};

// One subject's sign state as recorded durably: its default sign and the
// alive elements carrying the other sign, ascending.
struct SubjectSigns {
  char default_sign = '-';
  std::vector<UniversalId> marked;
};

class MultiSubjectController {
 public:
  using BackendFactory = std::function<std::unique_ptr<Backend>()>;

  // `factory` builds the shared store, once per Load.
  explicit MultiSubjectController(BackendFactory factory,
                                  const MultiSubjectOptions& options = {});

  // Parses and installs the document; must precede AddSubject.
  Status Load(std::string_view dtd_text, std::string_view xml_text);
  Status LoadParsed(const xml::Dtd& dtd, const xml::Document& doc);

  // Registers `subject` with its policy, annotated against the document as
  // updated so far.
  Status AddSubject(std::string_view subject, std::string_view policy_text);
  Status RemoveSubject(std::string_view subject);

  size_t subject_count() const { return subjects_.size(); }
  std::vector<std::string> SubjectNames() const;

  // All-or-nothing read on behalf of `subject`.
  Result<RequestOutcome> Query(std::string_view subject,
                               std::string_view xpath);

  // Fleet update: the batch is parsed once (a malformed op fails it before
  // anything mutates); every subject runs Trigger over it and snapshots its
  // pre-update scope; the store applies the ops once; every subject then
  // re-annotates once for the whole batch.  The per-subject steps run
  // concurrently per `parallel_subjects` on a thread-safe store.
  // Per-subject stats are returned by subject name.  The serving layer's
  // writer thread is the intended caller.
  Result<std::map<std::string, BatchStats>> ApplyBatch(
      const std::vector<BatchOp>& ops);

  // ApplyBatch plus a WAL capture: on success `capture` holds the
  // document's journaled mutations and each subject's sign delta for
  // exactly this batch.  Passing null degrades to plain ApplyBatch.
  Result<std::map<std::string, BatchStats>> ApplyBatch(
      const std::vector<BatchOp>& ops, CommitCapture* capture);

  // --- Recovery (src/storage/recovery.cc; see docs/durability.md) ---------
  // Drops every subject and the loaded store, returning the controller to
  // its freshly constructed state so recovery can re-load durable state
  // even after the caller already configured an initial document.
  void Reset();

  // AddSubject minus the full annotation: installs the subject's policy and
  // re-materializes its checkpointed signs verbatim.
  Status RestoreSubject(std::string_view subject, std::string_view policy_text,
                        char default_sign,
                        const std::vector<UniversalId>& marked);

  // Replays one committed batch from its WAL record: the ops once on the
  // store, then each subject's recorded sign decisions — no triggering, no
  // rule evaluation.  Subjects missing from `deltas` replay with empty
  // deltas.
  Result<std::map<std::string, BatchStats>> ReplayBatch(
      const std::vector<BatchOp>& ops,
      const std::map<std::string, SubjectDelta>& deltas);

  // Resumes the fleet cache's epoch counter where the checkpoint left it,
  // so replayed and post-recovery batches advance through the same epoch
  // values the original run used.
  void RestoreRuleCacheEpoch(uint64_t epoch) {
    rule_cache_.RestoreEpoch(epoch);
  }

  // The containment cache shared by every subject's optimizer and trigger
  // index (redundancy tests recur across subjects — same document, similar
  // rule vocabularies — so one memo table beats per-subject copies).
  const xpath::ContainmentCache& containment_cache() const {
    return containment_cache_;
  }

  // The fleet-shared rule node-set cache (hit/miss/eviction counters for
  // benches and the perf-smoke CI gate).
  const RuleScopeCache& rule_cache() const { return rule_cache_; }

  // The shared store when it is the native one (the serve layer's
  // snapshots and the durability code read its document and index); null
  // for other stores or before Load.
  const NativeXmlBackend* native_store() const { return native_; }

  // The current (post-update) document; empty unless the store is native.
  const xml::Document& document() const;

  // `subject`'s durable sign state.  NotFound for an unknown subject,
  // InvalidArgument unless the store is native (liveness is read from its
  // document).
  Result<SubjectSigns> Signs(std::string_view subject) const;

  // Direct access to a subject's controller, for reads and inspection.
  // Its backend refuses mutations: updates go through the fleet.
  AccessController* subject(std::string_view name);

 private:
  // A subject controller over the shared store, wired to the fleet's shared
  // caches; policy not yet set.
  Result<std::unique_ptr<AccessController>> NewSubjectController();

  // Runs `fn` for every subject (concurrently when the store supports
  // parallel evaluation); the first error wins.  `fn` gets the subject's
  // index in subjects_ order.
  Status ForEachSubject(
      const std::function<Status(size_t, AccessController*)>& fn);

  BackendFactory factory_;
  MultiSubjectOptions options_;
  std::unique_ptr<xml::Dtd> dtd_;
  // The one store, and the same object typed when it is native.  Declared
  // before subjects_: every subject backend points at it.
  std::unique_ptr<Backend> store_;
  const NativeXmlBackend* native_ = nullptr;
  // Declared before subjects_ so they outlive every controller that points
  // at them.  Both are thread-safe, so subject controllers may run on
  // worker threads.
  xpath::ContainmentCache containment_cache_;
  RuleScopeCache rule_cache_;
  std::map<std::string, std::unique_ptr<AccessController>, std::less<>>
      subjects_;
};

// Compares two fleets' durable state: the document once (serialization and
// structural version), then each subject's default sign and marked ids.
// Returns "" when they are equal, otherwise the first difference.  Both
// fleets must hold native stores.
std::string DiffFleetState(const MultiSubjectController& a,
                           const MultiSubjectController& b);

}  // namespace xmlac::engine

#endif  // XMLAC_ENGINE_MULTI_SUBJECT_H_
