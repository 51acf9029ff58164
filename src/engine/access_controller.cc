#include "engine/access_controller.h"

#include <unordered_map>

#include "xml/parser.h"
#include "xpath/parser.h"

namespace xmlac::engine {

AccessController::AccessController(std::unique_ptr<Backend> backend,
                                   const ControllerOptions& options)
    : backend_(std::move(backend)),
      options_(options),
      containment_cache_(options.shared_containment_cache != nullptr
                             ? options.shared_containment_cache
                             : &owned_containment_cache_),
      rule_cache_(!options.enable_rule_cache ? nullptr
                  : options.shared_rule_cache != nullptr
                      ? options.shared_rule_cache
                      : &owned_rule_cache_),
      owns_epoch_(options.shared_rule_cache == nullptr) {
  ShardConfig shard;
  shard.enabled = options_.shard_parallel;
  shard.threads = options_.shard_threads;
  backend_->SetShardConfig(shard);
}

AccessController::~AccessController() = default;

AnnotationContext AccessController::MakeAnnotationContext(uint64_t epoch) {
  AnnotationContext ctx;
  ctx.rule_cache = rule_cache_;
  ctx.epoch = epoch;
  ctx.sign_state = &sign_state_;
  ctx.parallel_rules = options_.parallel_rules;
  return ctx;
}

Status AccessController::Load(std::string_view dtd_text,
                              std::string_view xml_text) {
  XMLAC_ASSIGN_OR_RETURN(xml::Dtd dtd, xml::ParseDtd(dtd_text));
  XMLAC_ASSIGN_OR_RETURN(xml::Document doc, xml::ParseDocument(xml_text));
  return LoadParsed(dtd, doc);
}

Status AccessController::LoadParsed(const xml::Dtd& dtd,
                                    const xml::Document& doc) {
  obs::ScopedObsContext obs_ctx(&metrics_, &tracer_);
  obs::ScopedSpan span(&tracer_, "load");
  obs::ScopedTimer timer("engine.load_us");
  dtd_ = std::make_unique<xml::Dtd>(dtd);
  schema_ = std::make_unique<xml::SchemaGraph>(*dtd_);
  XMLAC_RETURN_IF_ERROR(backend_->Load(*dtd_, doc));
  // The store changed wholesale: previous diff state is meaningless, and
  // a privately owned cache holds bitmaps of the old document.  (A shared
  // cache is left alone — its fleet owner clears it when it reloads.)
  sign_state_ = SignState();
  if (rule_cache_ == &owned_rule_cache_) owned_rule_cache_.Clear();
  // A policy set before loading re-annotates the fresh document.
  if (policy_set_) {
    AnnotationContext ctx = MakeAnnotationContext(CacheEpoch());
    auto r = AnnotateFull(backend_.get(), policy_, &ctx);
    if (!r.ok()) return r.status();
  }
  return Status::OK();
}

Status AccessController::SetPolicy(std::string_view policy_text) {
  XMLAC_ASSIGN_OR_RETURN(policy::Policy parsed,
                         policy::ParsePolicy(policy_text));
  return SetPolicyParsed(std::move(parsed));
}

Status AccessController::SetPolicyParsed(policy::Policy policy) {
  return InstallPolicy(std::move(policy), /*annotate=*/true);
}

Status AccessController::SetPolicyForRecovery(policy::Policy policy) {
  return InstallPolicy(std::move(policy), /*annotate=*/false);
}

Status AccessController::InstallPolicy(policy::Policy policy, bool annotate) {
  obs::ScopedObsContext obs_ctx(&metrics_, &tracer_);
  obs::ScopedSpan span(&tracer_, "set_policy");
  obs::ScopedTimer timer("engine.set_policy_us");
  optimizer_stats_ = policy::OptimizerStats();
  if (options_.optimize_policies) {
    // Schema-aware pruning first (rules that cannot match any valid
    // document), then containment-based redundancy elimination (Fig. 4).
    obs::ScopedSpan opt_span("optimize");
    if (schema_ != nullptr) {
      policy = policy::PruneUnsatisfiableRules(policy, *schema_,
                                               &optimizer_stats_);
    }
    // The shared containment cache memoizes the optimizer's tests so later
    // trigger probes on the same pairs are hits.
    policy_ = policy::EliminateRedundantRules(policy, &optimizer_stats_,
                                              containment_cache_);
    if (opt_span.active()) {
      opt_span.AddCount("removed",
                        static_cast<int64_t>(optimizer_stats_.removed));
    }
  } else {
    policy_ = std::move(policy);
  }
  {
    obs::ScopedSpan build_span("build_trigger_index");
    policy::TriggerOptions topt;
    topt.containment_cache = containment_cache_;
    trigger_ =
        std::make_unique<policy::TriggerIndex>(policy_, schema_.get(), topt);
  }
  policy_set_ = true;
  if (annotate && schema_ != nullptr) {
    AnnotationContext ctx = MakeAnnotationContext(CacheEpoch());
    auto r = AnnotateFull(backend_.get(), policy_, &ctx);
    if (!r.ok()) return r.status();
  }
  return Status::OK();
}

Result<RequestOutcome> AccessController::Query(std::string_view xpath) {
  obs::ScopedObsContext obs_ctx(&metrics_, &tracer_);
  obs::ScopedSpan span(&tracer_, "query");
  obs::IncrementCounter("engine.queries");
  XMLAC_ASSIGN_OR_RETURN(xpath::Path q, xpath::ParsePath(xpath));
  return Request(backend_.get(), q);
}

void AccessController::MaintainRuleCache(const std::vector<size_t>& triggered,
                                         uint64_t post_epoch) {
  std::vector<bool> is_triggered(policy_.size(), false);
  if (!options_.inject_stale_cache) {
    for (size_t i : triggered) is_triggered[i] = true;
  }
  // Several rules may share a resource path (both effects, etc.).  Evict
  // wins whenever any of them is triggered: eviction is always sound (it
  // only forces a recomputation), while promotion is sound exactly for
  // non-triggered rules, whose scopes the trigger theorem proves unchanged.
  std::unordered_map<std::string, bool> by_key;
  for (size_t i = 0; i < policy_.size(); ++i) {
    by_key[xpath::CanonicalKey(policy_.rules()[i].resource)] |=
        is_triggered[i];
  }
  const std::string store = backend_->name();
  for (const auto& [key, evict] : by_key) {
    if (evict) {
      rule_cache_->Evict(store, key, post_epoch);
    } else {
      rule_cache_->Promote(store, key, post_epoch);
    }
  }
}

Result<std::vector<UniversalId>> AccessController::PrepareReannotation(
    const std::vector<size_t>& triggered, AnnotationContext* reannotate_ctx) {
  if (rule_cache_ == nullptr) {
    *reannotate_ctx = MakeAnnotationContext(0);
    // Pre-update scope snapshot: stale marks in these nodes must be reset.
    return TriggeredScope(backend_.get(), policy_, triggered);
  }
  if (owns_epoch_) rule_cache_->AdvanceEpoch();
  uint64_t post_epoch = rule_cache_->epoch();
  uint64_t pre_epoch = post_epoch == 0 ? 0 : post_epoch - 1;
  // The pre-update snapshot is served from (and installed into) the cache
  // at the pre-update epoch — the store has not mutated yet, so a miss
  // recomputes exactly the pre-update scope.
  AnnotationContext old_ctx = MakeAnnotationContext(pre_epoch);
  XMLAC_ASSIGN_OR_RETURN(
      std::vector<UniversalId> old_scope,
      TriggeredScope(backend_.get(), policy_, triggered, &old_ctx));
  MaintainRuleCache(triggered, post_epoch);
  *reannotate_ctx = MakeAnnotationContext(post_epoch);
  return old_scope;
}

namespace {

// Appends to `out` the absolute path `base`/<labels of every element in the
// fragment's tree, one path per element> — the locations the insert
// touches, which is what Trigger must be probed with.
void FragmentPaths(const xpath::Path& base, const xml::Document& fragment,
                   std::vector<xpath::Path>* out) {
  if (fragment.empty()) return;
  // Relative label chain per element, rebuilt by walking up.
  fragment.Visit(fragment.root(), [&](xml::NodeId id) {
    const xml::Node& n = fragment.node(id);
    if (n.kind != xml::NodeKind::kElement) return;
    std::vector<const std::string*> chain;
    for (xml::NodeId cur = id; cur != xml::kInvalidNode;
         cur = fragment.node(cur).parent) {
      chain.push_back(&fragment.node(cur).label);
    }
    xpath::Path p = base;
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      xpath::Step s;
      s.axis = xpath::Axis::kChild;
      s.label = **it;
      p.steps.push_back(std::move(s));
    }
    out->push_back(std::move(p));
  });
}

}  // namespace

Result<std::vector<ParsedOp>> ParseBatch(const std::vector<BatchOp>& ops) {
  std::vector<ParsedOp> parsed(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    parsed[i].kind = ops[i].kind;
    XMLAC_ASSIGN_OR_RETURN(parsed[i].path, xpath::ParsePath(ops[i].xpath));
    if (ops[i].kind == BatchOp::Kind::kInsert) {
      XMLAC_ASSIGN_OR_RETURN(parsed[i].fragment,
                             xml::ParseDocument(ops[i].fragment_xml));
    }
  }
  return parsed;
}

Status ApplyOps(Backend* backend, const std::vector<ParsedOp>& ops,
                BatchStats* stats) {
  for (const ParsedOp& op : ops) {
    if (op.kind == BatchOp::Kind::kDelete) {
      obs::ScopedSpan span("delete");
      XMLAC_ASSIGN_OR_RETURN(size_t deleted, backend->DeleteWhere(op.path));
      stats->nodes_deleted += deleted;
      if (span.active()) {
        span.AddCount("nodes_deleted", static_cast<int64_t>(deleted));
      }
    } else {
      obs::ScopedSpan span("insert_fragment");
      XMLAC_ASSIGN_OR_RETURN(size_t inserted,
                             backend->InsertUnder(op.path, op.fragment));
      stats->nodes_inserted += inserted;
      if (span.active()) {
        span.AddCount("nodes_inserted", static_cast<int64_t>(inserted));
      }
    }
  }
  return Status::OK();
}

Result<BatchStats> AccessController::Update(std::string_view xpath) {
  XMLAC_ASSIGN_OR_RETURN(std::vector<ParsedOp> ops,
                         ParseBatch({BatchOp::Delete(std::string(xpath))}));
  return RunUpdate("update", "engine.update_us", "engine.updates", ops);
}

Result<BatchStats> AccessController::Insert(std::string_view target_xpath,
                                            std::string_view fragment_xml) {
  XMLAC_ASSIGN_OR_RETURN(
      std::vector<ParsedOp> ops,
      ParseBatch({BatchOp::Insert(std::string(target_xpath),
                                  std::string(fragment_xml))}));
  return RunUpdate("insert", "engine.insert_us", "engine.inserts", ops);
}

Result<BatchStats> AccessController::ApplyBatch(
    const std::vector<BatchOp>& ops) {
  XMLAC_ASSIGN_OR_RETURN(std::vector<ParsedOp> parsed, ParseBatch(ops));
  return ApplyBatch(parsed);
}

Result<BatchStats> AccessController::ApplyBatch(
    const std::vector<ParsedOp>& ops) {
  return RunUpdate("apply_batch", "engine.batch_us", "engine.batches", ops);
}

Result<BatchStats> AccessController::RunUpdate(
    const char* span_name, const char* timer_name, const char* counter,
    const std::vector<ParsedOp>& ops) {
  if (!policy_set_ || trigger_ == nullptr) {
    return Status::Internal("no policy set");
  }
  if (ops.empty()) return BatchStats();
  obs::ScopedObsContext obs_ctx(&metrics_, &tracer_);
  obs::ScopedSpan span(&tracer_, span_name);
  obs::ScopedTimer timer(timer_name);
  obs::IncrementCounter(counter);
  XMLAC_ASSIGN_OR_RETURN(PendingUpdate pending, PrepareUpdate(ops));
  BatchStats mutation;
  XMLAC_RETURN_IF_ERROR(ApplyOps(backend_.get(), ops, &mutation));
  return FinishUpdate(std::move(pending), mutation);
}

Result<PendingUpdate> AccessController::PrepareUpdate(
    const std::vector<ParsedOp>& ops) {
  if (!policy_set_ || trigger_ == nullptr) {
    return Status::Internal("no policy set");
  }
  obs::ScopedObsContext obs_ctx(&metrics_, &tracer_);
  obs::IncrementCounter("engine.batch_ops", ops.size());
  PendingUpdate pending;
  pending.stats.ops = ops.size();

  // Union of trigger sets over every update path the ops touch: a delete's
  // selector, and for an insert the path of every element the fragment
  // introduces.  Trigger matches on paths, not data, so the pre-mutation
  // probe is valid for every op regardless of application order.
  std::vector<xpath::Path> touched;
  for (const ParsedOp& op : ops) {
    if (op.kind == BatchOp::Kind::kDelete) {
      touched.push_back(op.path);
    } else {
      FragmentPaths(op.path, op.fragment, &touched);
    }
  }
  std::vector<bool> fired(policy_.size(), false);
  for (const xpath::Path& u : touched) {
    for (size_t i : trigger_->Trigger(u)) fired[i] = true;
  }
  for (size_t i = 0; i < fired.size(); ++i) {
    if (fired[i]) pending.triggered.push_back(i);
  }
  pending.stats.rules_triggered = pending.triggered.size();

  // One pre-update scope snapshot; the caller then applies every mutation
  // in order, and FinishUpdate runs one partial re-annotation.
  XMLAC_ASSIGN_OR_RETURN(pending.old_scope,
                         PrepareReannotation(pending.triggered, &pending.ctx));
  return pending;
}

Result<BatchStats> AccessController::FinishUpdate(PendingUpdate pending,
                                                  const BatchStats& mutation) {
  obs::ScopedObsContext obs_ctx(&metrics_, &tracer_);
  BatchStats stats = std::move(pending.stats);
  stats.nodes_deleted = mutation.nodes_deleted;
  stats.nodes_inserted = mutation.nodes_inserted;
  obs::IncrementCounter("engine.nodes_deleted", stats.nodes_deleted);
  obs::IncrementCounter("engine.nodes_inserted", stats.nodes_inserted);
  XMLAC_ASSIGN_OR_RETURN(
      stats.reannotation,
      Reannotate(backend_.get(), policy_, pending.triggered, pending.old_scope,
                 &pending.ctx));
  return stats;
}

Status AccessController::RestoreSigns(char default_sign,
                                      const std::vector<UniversalId>& marked) {
  obs::ScopedObsContext obs_ctx(&metrics_, &tracer_);
  XMLAC_RETURN_IF_ERROR(backend_->ResetAllSigns(default_sign));
  char flipped = default_sign == '-' ? '+' : '-';
  XMLAC_RETURN_IF_ERROR(backend_->SetSigns(marked, flipped));
  sign_state_.default_sign = default_sign;
  sign_state_.marked = NodeBitmap::FromIds(marked);
  sign_state_.valid = true;
  return Status::OK();
}

Result<AnnotateStats> AccessController::ReplaySignDelta(
    const std::vector<UniversalId>& marked,
    const std::vector<UniversalId>& cleared) {
  obs::ScopedObsContext obs_ctx(&metrics_, &tracer_);
  obs::ScopedSpan span(&tracer_, "replay_batch");
  obs::ScopedTimer timer("engine.replay_us");
  obs::IncrementCounter("engine.replays");
  // Deltas recorded before a later delete may name dead ids; like every
  // sign bitmap, they tolerate lingering bits.
  char def = CurrentDefaultSign();
  char flipped = def == '-' ? '+' : '-';
  XMLAC_RETURN_IF_ERROR(backend_->SetSigns(marked, flipped));
  XMLAC_RETURN_IF_ERROR(backend_->SetSigns(cleared, def));
  for (UniversalId id : marked) sign_state_.marked.Set(id);
  for (UniversalId id : cleared) sign_state_.marked.Unset(id);
  AnnotateStats stats;
  stats.marked = marked.size();
  stats.reset = cleared.size();
  return stats;
}

Result<AnnotateStats> AccessController::ReannotateFull() {
  if (!policy_set_) return Status::Internal("no policy set");
  obs::ScopedObsContext obs_ctx(&metrics_, &tracer_);
  obs::ScopedSpan span(&tracer_, "reannotate_full");
  // Callers of the from-scratch baseline may have mutated the backend
  // directly (no Trigger ran, so no eviction happened): advancing the owned
  // epoch discards every cached scope, keeping this a true full
  // re-derivation.  A fleet-shared cache is left to its owner.
  if (rule_cache_ != nullptr && owns_epoch_) rule_cache_->AdvanceEpoch();
  AnnotationContext ctx = MakeAnnotationContext(CacheEpoch());
  return AnnotateFull(backend_.get(), policy_, &ctx);
}

}  // namespace xmlac::engine
