#ifndef XMLAC_ENGINE_ACCESS_CONTROLLER_H_
#define XMLAC_ENGINE_ACCESS_CONTROLLER_H_

// Facade over the full pipeline of Fig. 3: optimizer -> annotator ->
// (updates) -> reannotator -> requester, for one backend.
//
//   AccessController ac(std::make_unique<NativeXmlBackend>());
//   ac.Load(dtd_text, xml_text);
//   ac.SetPolicy(policy_text);        // optimizes + annotates
//   auto r = ac.Query("//patient");   // all-or-nothing
//   ac.Update("//patient/treatment"); // delete + partial re-annotation

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "engine/annotator.h"
#include "engine/backend.h"
#include "engine/requester.h"
#include "engine/rule_cache.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "policy/optimizer.h"
#include "policy/trigger.h"
#include "xml/schema_graph.h"
#include "xpath/containment_cache.h"

namespace xmlac::engine {

// Execution knobs every layer that runs the engine shares.  Declared once:
// MultiSubjectOptions and serve::ServerOptions extend it, and each layer
// hands its base down unchanged (the fleet to every subject controller).
struct ExecOptions {
  // Schema pruning + containment-based redundancy elimination (Fig. 4)
  // before annotation.
  bool optimize_policies = true;

  // Rule node-set cache (docs/performance.md): memoizes each rule's scope
  // as a bitmap and turns sign writes into diffs.
  bool enable_rule_cache = true;

  // Shard-parallel execution (common/shard.h, docs/performance.md): fans the
  // native store's structural-index joins and labeling out over contiguous
  // interval ranges with an order-preserving merge.  `shard_threads` is the
  // shard count, 0 = auto (hardware concurrency, capped); the ranges run on
  // the ParallelFor pool, so at most pool size + 1 threads take part.
  // Results are byte-identical to serial for any shard count.
  bool shard_parallel = true;
  size_t shard_threads = 0;
};

struct ControllerOptions : ExecOptions {
  // With the rule cache enabled and no shared cache the controller owns a
  // private one.  A shared cache must outlive the controller, and every
  // controller sharing it must see the SAME document and take part in
  // every update (the MultiSubjectController guarantees both for its fleet;
  // do not route updates around it).
  RuleScopeCache* shared_rule_cache = nullptr;

  // Shared containment cache: several controllers — e.g. the subjects of a
  // MultiSubjectController — memoize containment into one thread-safe
  // table.  The caller keeps ownership and must keep it alive
  // for the controller's lifetime.
  xpath::ContainmentCache* shared_containment_cache = nullptr;

  // Threads taking part in cache-miss rule evaluation (0 = auto, 1 =
  // serial; capped at the ParallelFor pool size + 1); only effective on
  // backends that SupportsParallelEval().
  size_t parallel_rules = 0;

  // Fault injection for the differential harness: skip the trigger-driven
  // evictions (every entry is promoted across updates instead), leaving
  // stale bitmaps behind — `xmlac_fuzz --inject-bug stale-cache` proves the
  // oracle catches exactly this.
  bool inject_stale_cache = false;
};

// One update of a coalesced batch (see ApplyBatch).
struct BatchOp {
  enum class Kind { kDelete, kInsert };
  Kind kind = Kind::kDelete;
  std::string xpath;         // delete selector, or insert target
  std::string fragment_xml;  // insert only

  static BatchOp Delete(std::string xpath) {
    BatchOp op;
    op.kind = Kind::kDelete;
    op.xpath = std::move(xpath);
    return op;
  }
  static BatchOp Insert(std::string target_xpath, std::string fragment_xml) {
    BatchOp op;
    op.kind = Kind::kInsert;
    op.xpath = std::move(target_xpath);
    op.fragment_xml = std::move(fragment_xml);
    return op;
  }
};

// A BatchOp with its XPath and insert fragment parsed.
struct ParsedOp {
  BatchOp::Kind kind = BatchOp::Kind::kDelete;
  xpath::Path path;        // delete selector, or insert target
  xml::Document fragment;  // insert only
};

// Parses every op, failing on the first malformed one — before anything
// mutates, so a batch is all-or-nothing at the parse level.
Result<std::vector<ParsedOp>> ParseBatch(const std::vector<BatchOp>& ops);

// What one update (a single delete/insert or a coalesced batch) did.
struct BatchStats {
  size_t ops = 0;
  size_t nodes_deleted = 0;
  size_t nodes_inserted = 0;
  // Size of the *union* trigger set — with N coalesced ops this is what
  // replaces N per-op trigger sets, which is where the amortization comes
  // from (one Reannotate run instead of N).
  size_t rules_triggered = 0;
  AnnotateStats reannotation;
};

// The mutate step of every update: applies `ops` to `backend` in order
// (one "delete"/"insert_fragment" span each) and adds the node counts to
// `stats`.  No triggering and no re-annotation.
Status ApplyOps(Backend* backend, const std::vector<ParsedOp>& ops,
                BatchStats* stats);

// An update between its two halves (AccessController::PrepareUpdate and
// FinishUpdate): the triggered rules and their pre-update scope.
struct PendingUpdate {
  BatchStats stats;
  std::vector<size_t> triggered;
  std::vector<UniversalId> old_scope;
  // Post-update context; with the rule cache on, stamped at the new epoch.
  AnnotationContext ctx;
};

class AccessController {
 public:
  explicit AccessController(std::unique_ptr<Backend> backend,
                            const ControllerOptions& options = {});
  ~AccessController();

  // Parses and loads the schema + document into the backend.
  Status Load(std::string_view dtd_text, std::string_view xml_text);
  Status LoadParsed(const xml::Dtd& dtd, const xml::Document& doc);

  // Parses the policy, removes redundant rules (unless disabled), builds
  // the trigger index and fully annotates the store.
  Status SetPolicy(std::string_view policy_text);
  Status SetPolicyParsed(policy::Policy policy);

  // All-or-nothing read request.
  Result<RequestOutcome> Query(std::string_view xpath);

  // Every update runs one procedure (Sec. 4, Fig. 6): Trigger over the
  // union of the ops' update paths, snapshot the triggered scopes, apply
  // the deletes/inserts in order, then re-annotate the triggered scopes
  // once.  The entry points differ only in their top-level span and
  // metrics.

  // Delete update: one-op batch under an "update" span.
  Result<BatchStats> Update(std::string_view xpath);

  // Insert update (the paper's other update kind): parses `fragment_xml`,
  // inserts a copy under every node selected by `target_xpath`, and
  // re-annotates partially.  The trigger set is computed from the paths of
  // every element the fragment introduces (target/rootlabel, target/
  // rootlabel/child, ...), so rules matching nodes anywhere inside the new
  // subtree — or whose predicates now hold — fire.
  Result<BatchStats> Insert(std::string_view target_xpath,
                            std::string_view fragment_xml);

  // Coalesced update batch: one Trigger/Reannotate round for all ops, with
  // the same end state as applying them one at a time — the serving
  // layer's writer thread amortizes re-annotation across queued requests
  // this way.  A malformed op fails the batch before any mutation.  An
  // empty batch is a no-op.
  Result<BatchStats> ApplyBatch(const std::vector<BatchOp>& ops);
  // The same over ops the caller already parsed.
  Result<BatchStats> ApplyBatch(const std::vector<ParsedOp>& ops);

  // The update procedure split around its mutation, for callers that
  // mutate a store several controllers share (MultiSubjectController):
  // PrepareUpdate runs Trigger over the ops' update paths and snapshots the
  // triggered pre-update scope; the caller then applies the ops to the
  // store (ApplyOps) and passes their node counts to FinishUpdate, which
  // re-annotates the triggered scopes.  Update / Insert / ApplyBatch are
  // exactly PrepareUpdate, ApplyOps on this controller's backend,
  // FinishUpdate.
  Result<PendingUpdate> PrepareUpdate(const std::vector<ParsedOp>& ops);
  Result<BatchStats> FinishUpdate(PendingUpdate pending,
                                  const BatchStats& mutation);

  // Re-annotates everything from scratch (the baseline Fig. 12 compares
  // against).
  Result<AnnotateStats> ReannotateFull();

  // --- Durability hooks (src/storage/; see docs/durability.md) ------------
  // SetPolicyParsed minus the full annotation: installs the (optimized)
  // policy and trigger index so post-recovery updates behave identically,
  // leaving the signs to RestoreSigns / ReplaySignDelta.  This is the
  // asymmetry recovery exploits: annotation *decisions* were logged, so the
  // expensive policy evaluation never re-runs.
  Status SetPolicyForRecovery(policy::Policy policy);

  // Materializes a checkpointed sign state: every alive node reads
  // `default_sign` except the ids in `marked`, which read the flipped sign.
  Status RestoreSigns(char default_sign,
                      const std::vector<UniversalId>& marked);

  // Replays the *recorded* sign decisions of one committed batch (its WAL
  // record) after the caller re-applied the batch's mutations — no Trigger,
  // no rule evaluation, no re-annotation.  `marked` flips ids to the
  // non-default sign, `cleared` flips them back to the default.
  Result<AnnotateStats> ReplaySignDelta(const std::vector<UniversalId>& marked,
                                        const std::vector<UniversalId>& cleared);

  // The current non-default-sign set (the WAL/checkpoint sign bitmap),
  // maintained by every annotation path; bits of deleted nodes may linger
  // (harmless, see node_bitmap.h).  Empty before the first annotation.
  const NodeBitmap& ExportMarkedBitmap() const { return sign_state_.marked; }
  std::vector<UniversalId> ExportMarkedSigns() const {
    return ExportMarkedBitmap().ToIds();
  }

  char CurrentDefaultSign() const { return sign_state_.default_sign; }

  Backend* backend() { return backend_.get(); }
  const policy::Policy& active_policy() const { return policy_; }
  const policy::OptimizerStats& optimizer_stats() const {
    return optimizer_stats_;
  }

  // --- Observability ------------------------------------------------------
  // Every public operation runs with the controller's metrics registry and
  // tracer installed as the thread's current obs context, so instrumentation
  // anywhere down the stack (XPath evaluator, containment cache, optimizer,
  // annotator, relational executor, backends) accumulates here.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }
  obs::Tracer& tracer() { return tracer_; }
  // Tracing is off by default (spans then cost one branch each).
  void EnableTracing(bool enabled) { tracer_.set_enabled(enabled); }
  obs::MetricsSnapshot SnapshotMetrics() const { return metrics_.Snapshot(); }
  void ResetMetrics() { metrics_.Reset(); }
  const xpath::ContainmentCache& containment_cache() const {
    return *containment_cache_;
  }
  // Null when the rule cache is disabled.
  RuleScopeCache* rule_cache() { return rule_cache_; }
  const RuleScopeCache* rule_cache() const { return rule_cache_; }

 private:
  // Builds the annotation context at `epoch`: the rule cache (null when
  // disabled, which selects the uncached path) and this controller's sign
  // state, which both paths maintain.
  AnnotationContext MakeAnnotationContext(uint64_t epoch);
  uint64_t CacheEpoch() const {
    return rule_cache_ != nullptr ? rule_cache_->epoch() : 0;
  }

  // Shared body of SetPolicyParsed / SetPolicyForRecovery.
  Status InstallPolicy(policy::Policy policy, bool annotate);

  // The update procedure behind Update / Insert / ApplyBatch, run under a
  // top-level span `span` with latency histogram `timer` and call counter
  // `counter`.
  Result<BatchStats> RunUpdate(const char* span, const char* timer,
                               const char* counter,
                               const std::vector<ParsedOp>& ops);

  // Pre-mutation cache work for an update with triggered set `triggered`:
  // advances the epoch (when this controller owns it), snapshots the
  // pre-update triggered scope at the previous epoch, then evicts the
  // triggered entries and promotes the rest.  On the uncached path this is
  // just the TriggeredScope snapshot.  `reannotate_ctx` is filled with the
  // post-update context (epoch stamped when the cache is enabled).
  Result<std::vector<UniversalId>> PrepareReannotation(
      const std::vector<size_t>& triggered, AnnotationContext* reannotate_ctx);

  void MaintainRuleCache(const std::vector<size_t>& triggered,
                         uint64_t post_epoch);

  std::unique_ptr<Backend> backend_;
  ControllerOptions options_;
  std::unique_ptr<xml::Dtd> dtd_;
  std::unique_ptr<xml::SchemaGraph> schema_;
  policy::Policy policy_;
  policy::OptimizerStats optimizer_stats_;
  obs::MetricsRegistry metrics_;
  obs::Tracer tracer_;
  // Shared by the optimizer and the trigger index (declared before trigger_
  // so it outlives the index, which keeps a pointer to it).  Points at
  // owned_containment_cache_ unless the constructor was given a shared one.
  xpath::ContainmentCache owned_containment_cache_;
  xpath::ContainmentCache* containment_cache_;
  // Points at owned_rule_cache_ or the shared fleet cache; null disabled.
  RuleScopeCache owned_rule_cache_;
  RuleScopeCache* rule_cache_;
  // Whether this controller advances the cache epoch on its own updates
  // (true for an owned cache; a fleet-shared cache's epoch is advanced once
  // per fleet update by the MultiSubjectController).
  bool owns_epoch_;
  SignState sign_state_;
  std::unique_ptr<policy::TriggerIndex> trigger_;
  bool policy_set_ = false;
};

}  // namespace xmlac::engine

#endif  // XMLAC_ENGINE_ACCESS_CONTROLLER_H_
