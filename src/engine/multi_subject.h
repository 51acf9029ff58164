#ifndef XMLAC_ENGINE_MULTI_SUBJECT_H_
#define XMLAC_ENGINE_MULTI_SUBJECT_H_

// Multi-subject access control.
//
// The paper fixes the rule tuple's `requester` component and studies a
// single subject; this layer restores the dimension: each subject gets its
// own policy, enforced through its own annotated replica of the document
// (the materialized approach is per-policy by construction — one sign per
// node — so per-subject annotations need per-subject stores).  Updates are
// broadcast to every replica and to a master copy, which late-added
// subjects are initialised from.
//
// Two fleet-level optimizations (docs/performance.md):
//  - one RuleScopeCache shared by every subject, so a rule path evaluated
//    by one replica is a bitmap hit for all others (hospital-style
//    policies reuse scope paths heavily across subjects);
//  - broadcasts fan out across subjects on a worker pool — replicas are
//    independent stores, and the shared caches are thread-safe.

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
  // Worker threads for the per-subject broadcast fan-out (0 = auto,
  // 1 = serial).
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
  // The master document's journaled mutations for the batch (informational
  // — replay re-derives them from the ops; may be empty when the bounded
  // journal overflowed mid-batch).
  std::vector<xml::Mutation> master_mutations;
  std::map<std::string, SubjectDelta> subjects;
};

class MultiSubjectController {
 public:
  using BackendFactory = std::function<std::unique_ptr<Backend>()>;

  // `factory` builds one store per subject (mixing backends per subject is
  // allowed: the factory may return different kinds over its lifetime).
  explicit MultiSubjectController(BackendFactory factory,
                                  const MultiSubjectOptions& options = {});

  // Parses and installs the document; must precede AddSubject.
  Status Load(std::string_view dtd_text, std::string_view xml_text);
  Status LoadParsed(const xml::Dtd& dtd, const xml::Document& doc);

  // Registers `subject` with its policy; the subject's replica reflects all
  // updates applied so far.
  Status AddSubject(std::string_view subject, std::string_view policy_text);
  Status RemoveSubject(std::string_view subject);

  size_t subject_count() const { return subjects_.size(); }
  std::vector<std::string> SubjectNames() const;

  // All-or-nothing read on behalf of `subject`.
  Result<RequestOutcome> Query(std::string_view subject,
                               std::string_view xpath);

  // Broadcast update: the batch is parsed once (a malformed op fails it
  // before anything mutates), applied to the master, and every subject
  // replica re-annotates once for the whole batch (see
  // AccessController::ApplyBatch), concurrently per `parallel_subjects`.
  // Per-subject stats are returned by subject name.  The serving layer's
  // writer thread is the intended caller.
  Result<std::map<std::string, BatchStats>> ApplyBatch(
      const std::vector<BatchOp>& ops);

  // ApplyBatch plus a WAL capture: on success `capture` holds the master's
  // journaled mutations and each subject's sign delta for exactly this
  // batch.  Passing null degrades to plain ApplyBatch.
  Result<std::map<std::string, BatchStats>> ApplyBatch(
      const std::vector<BatchOp>& ops, CommitCapture* capture);

  // --- Recovery (src/storage/recovery.cc; see docs/durability.md) ---------
  // Drops every subject and the loaded document, returning the controller
  // to its freshly constructed state so recovery can re-load durable state
  // even after the caller already configured an initial document.
  void Reset();

  // AddSubject minus the full annotation: installs the subject's policy and
  // re-materializes its checkpointed signs verbatim.
  Status RestoreSubject(std::string_view subject, std::string_view policy_text,
                        char default_sign,
                        const std::vector<UniversalId>& marked);

  // Replays one committed batch from its WAL record: master mutations plus
  // each subject's recorded sign decisions — no triggering, no rule
  // evaluation.  Subjects missing from `deltas` replay with empty deltas.
  Result<std::map<std::string, BatchStats>> ReplayBatch(
      const std::vector<BatchOp>& ops,
      const std::map<std::string, SubjectDelta>& deltas);

  // Resumes the fleet cache's epoch counter where the checkpoint left it,
  // so replayed and post-recovery batches advance through the same epoch
  // values the original run used.
  void RestoreRuleCacheEpoch(uint64_t epoch) {
    rule_cache_.RestoreEpoch(epoch);
  }

  // Installs checkpointed interval labels into the master store and every
  // subject replica (their arenas are structurally identical, so one label
  // vector fits all).  Non-native replicas are skipped.
  void RestoreStructuralLabels(const std::vector<xpath::IntervalLabel>& labels);

  // The containment cache shared by every subject's optimizer and trigger
  // index (redundancy tests recur across subjects — same document, similar
  // rule vocabularies — so one memo table beats per-subject copies).
  const xpath::ContainmentCache& containment_cache() const {
    return containment_cache_;
  }

  // The fleet-shared rule node-set cache (hit/miss/eviction counters for
  // benches and the perf-smoke CI gate).
  const RuleScopeCache& rule_cache() const { return rule_cache_; }

  // The current (post-update) document.
  const xml::Document& document() const { return master_.document(); }

  // Direct access to a subject's controller, for reads and inspection.
  // Updates MUST go through the broadcast methods above: a direct
  // subject-level update would diverge the replica from the fleet while
  // the fleet still shares one rule cache.
  AccessController* subject(std::string_view name);

 private:
  // Parses `ops` and applies them to the master (the copy late subjects
  // are built from); the parsed ops are then fanned out to the replicas.
  Result<std::vector<ParsedOp>> ApplyToMaster(const std::vector<BatchOp>& ops);

  // A subject controller over a fresh store, loaded with the master
  // document and wired to the fleet's shared caches; policy not yet set.
  Result<std::unique_ptr<AccessController>> NewSubjectController();

  // Applies `fn` to every subject on the broadcast pool and collects
  // per-subject results into a name-keyed map (first error wins).
  Result<std::map<std::string, BatchStats>> FanOut(
      const std::function<Result<BatchStats>(const std::string&,
                                             AccessController*)>& fn);

  BackendFactory factory_;
  MultiSubjectOptions options_;
  std::unique_ptr<xml::Dtd> dtd_;
  NativeXmlBackend master_;  // un-annotated source of truth for replicas
  // Declared before subjects_ so they outlive every controller that points
  // at them.  Both are thread-safe, so subject controllers may run on
  // worker threads.
  xpath::ContainmentCache containment_cache_;
  RuleScopeCache rule_cache_;
  bool loaded_ = false;
  std::map<std::string, std::unique_ptr<AccessController>, std::less<>>
      subjects_;
};

}  // namespace xmlac::engine

#endif  // XMLAC_ENGINE_MULTI_SUBJECT_H_
