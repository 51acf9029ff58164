#include "engine/annotator.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "xpath/ast.h"

namespace xmlac::engine {

namespace {

// Nodes whose sign was set to '+' vs '-' (the paper's signing work metric).
void ReportSigned(char sign, size_t n) {
  obs::IncrementCounter(
      sign == '+' ? "annotator.nodes_signed_plus" : "annotator.nodes_signed_minus",
      n);
}

char DefaultSign(const policy::Policy& policy) {
  return policy.default_semantics() == policy::DefaultSemantics::kAllow ? '+'
                                                                        : '-';
}

char MarkSign(const policy::AnnotationPlan& plan) {
  return plan.mark == policy::Effect::kAllow ? '+' : '-';
}

std::vector<size_t> AllRules(const policy::Policy& policy) {
  std::vector<size_t> out(policy.size());
  for (size_t i = 0; i < out.size(); ++i) out[i] = i;
  return out;
}

bool Cached(const AnnotationContext* ctx) {
  return ctx != nullptr && ctx->rule_cache != nullptr;
}

// Per-rule scope bitmaps for `subset` through the cache: hits are shared
// immutably, distinct missing paths are evaluated once each (concurrently
// when the backend supports it) and installed at ctx.epoch.
Result<std::vector<RuleScopeCache::BitmapPtr>> RuleScopes(
    Backend* backend, const policy::Policy& policy,
    const std::vector<size_t>& subset, const AnnotationContext& ctx) {
  obs::ScopedSpan span("annotate.rule_scopes");
  RuleScopeCache* cache = ctx.rule_cache;
  const std::string store = backend->name();
  const size_t n = subset.size();
  std::vector<RuleScopeCache::BitmapPtr> out(n);
  std::vector<std::string> keys(n);

  // A distinct missing path and the positions in `out` that want it (the
  // same path often backs several rules — both effects, several subjects'
  // optimizer leftovers).
  struct Miss {
    const xpath::Path* path;
    const std::string* key;
    std::vector<size_t> positions;
  };
  std::vector<Miss> misses;
  std::unordered_map<std::string_view, size_t> miss_index;
  for (size_t k = 0; k < n; ++k) {
    keys[k] = xpath::CanonicalKey(policy.rules()[subset[k]].resource);
    out[k] = cache->Lookup(store, keys[k], ctx.epoch);
    if (out[k] != nullptr) continue;
    auto [it, inserted] = miss_index.try_emplace(keys[k], misses.size());
    if (inserted) {
      misses.push_back(
          Miss{&policy.rules()[subset[k]].resource, &keys[k], {}});
    }
    misses[it->second].positions.push_back(k);
  }
  if (span.active()) {
    span.AddCount("rules", static_cast<int64_t>(n));
    span.AddCount("misses", static_cast<int64_t>(misses.size()));
  }

  if (!misses.empty()) {
    std::vector<Status> statuses(misses.size(), Status::OK());
    std::vector<RuleScopeCache::BitmapPtr> computed(misses.size());
    auto evaluate_one = [&](size_t m) {
      obs::ScopedTimer rule_timer("annotator.rule_scope_us");
      auto ids = backend->EvaluateQuery(*misses[m].path);
      if (!ids.ok()) {
        statuses[m] = ids.status();
        return;
      }
      auto bitmap = std::make_shared<NodeBitmap>(NodeBitmap::FromIds(*ids));
      cache->Insert(store, *misses[m].key, ctx.epoch, bitmap);
      computed[m] = std::move(bitmap);
    };
    size_t threads = 1;
    if (backend->SupportsParallelEval() && misses.size() > 1) {
      threads = ctx.parallel_rules == 0 ? DefaultParallelism()
                                        : ctx.parallel_rules;
    }
    ParallelFor(misses.size(), threads, evaluate_one);
    for (size_t m = 0; m < misses.size(); ++m) {
      XMLAC_RETURN_IF_ERROR(statuses[m]);
      for (size_t k : misses[m].positions) out[k] = computed[m];
    }
  }
  return out;
}

// The Fig. 5 / Table 2 combination over per-rule bitmaps: UNION of the
// base-effect scopes as word-wise OR, EXCEPT of the opposing scopes as
// word-wise AND-NOT.
NodeBitmap CombineScopes(const policy::Policy& policy,
                         const std::vector<size_t>& subset,
                         const std::vector<RuleScopeCache::BitmapPtr>& scopes,
                         policy::CombineOp combine, size_t id_bound) {
  bool base_is_grant = combine == policy::CombineOp::kGrants ||
                       combine == policy::CombineOp::kGrantsExceptDenies;
  bool has_except = combine == policy::CombineOp::kGrantsExceptDenies ||
                    combine == policy::CombineOp::kDeniesExceptGrants;
  NodeBitmap base(id_bound);
  NodeBitmap minus(id_bound);
  for (size_t k = 0; k < subset.size(); ++k) {
    bool grant = policy.rules()[subset[k]].effect == policy::Effect::kAllow;
    if (grant == base_is_grant) {
      base.Union(*scopes[k]);
    } else if (has_except) {
      minus.Union(*scopes[k]);
    }
  }
  if (has_except) base.Subtract(minus);
  return base;
}

// Writes the signs so the store's non-default set becomes exactly
// `desired`.  With a valid SignState this is the bitmap diff — only changed
// ids are emitted.  `affected` restricts which currently-marked ids may be
// cleared (null = all of them; Reannotate passes the triggered scopes'
// union so marks outside it survive) and requires a valid state, which
// ReannotateCached checks.  Without usable state a full annotation writes
// wholesale — ResetAllSigns + full SetSigns — and establishes the state.
Status ApplySigns(Backend* backend, char mark, char def,
                  const NodeBitmap& desired, const NodeBitmap* affected,
                  SignState* state, AnnotateStats* stats) {
  if (state != nullptr && state->valid && state->default_sign == def) {
    std::vector<UniversalId> to_default;
    if (affected != nullptr) {
      NodeBitmap current = state->marked;
      current.Intersect(*affected);
      current.DifferenceInto(desired, &to_default);
    } else {
      state->marked.DifferenceInto(desired, &to_default);
    }
    std::vector<UniversalId> to_mark;
    desired.DifferenceInto(state->marked, &to_mark);
    {
      obs::ScopedSpan diff_span("annotate.sign_diff");
      XMLAC_RETURN_IF_ERROR(backend->SetSigns(to_default, def));
      XMLAC_RETURN_IF_ERROR(backend->SetSigns(to_mark, mark));
      if (diff_span.active()) {
        diff_span.AddCount("to_default",
                           static_cast<int64_t>(to_default.size()));
        diff_span.AddCount("to_mark", static_cast<int64_t>(to_mark.size()));
      }
    }
    obs::IncrementCounter("annotator.signs_diffed",
                          to_default.size() + to_mark.size());
    if (affected != nullptr) {
      state->marked.Subtract(*affected);
      state->marked.Union(desired);
    } else {
      state->marked = desired;
    }
    stats->reset = to_default.size();
    stats->marked = to_mark.size();
    return Status::OK();
  }

  {
    obs::ScopedSpan reset_span("annotate.reset_signs");
    XMLAC_RETURN_IF_ERROR(backend->ResetAllSigns(def));
  }
  stats->reset = backend->NodeCount();
  std::vector<UniversalId> marked = desired.ToIds();
  {
    obs::ScopedSpan mark_span("annotate.set_signs");
    XMLAC_RETURN_IF_ERROR(backend->SetSigns(marked, mark));
  }
  stats->marked = marked.size();
  if (state != nullptr) {
    state->marked = desired;
    state->default_sign = def;
    state->valid = true;
  }
  return Status::OK();
}

Result<AnnotateStats> AnnotateFullCached(Backend* backend,
                                         const policy::Policy& policy,
                                         AnnotationContext* ctx) {
  obs::ScopedSpan span("annotate.full");
  obs::ScopedTimer timer("annotate.full.elapsed_us");
  policy::AnnotationPlan plan =
      policy::PlanFor(policy.default_semantics(), policy.conflict_resolution());
  std::vector<size_t> all = AllRules(policy);
  XMLAC_ASSIGN_OR_RETURN(std::vector<RuleScopeCache::BitmapPtr> scopes,
                         RuleScopes(backend, policy, all, *ctx));
  NodeBitmap desired = CombineScopes(policy, all, scopes, plan.combine,
                                     backend->IdBound());
  AnnotateStats stats;
  stats.rules_used = policy.size();
  XMLAC_RETURN_IF_ERROR(ApplySigns(backend, MarkSign(plan),
                                   DefaultSign(policy), desired,
                                   /*affected=*/nullptr, ctx->sign_state,
                                   &stats));
  obs::IncrementCounter("annotator.full_annotations");
  obs::IncrementCounter("annotator.nodes_marked", stats.marked);
  obs::IncrementCounter("annotator.nodes_reset", stats.reset);
  obs::IncrementCounter("annotator.rules_used", stats.rules_used);
  ReportSigned(MarkSign(plan), stats.marked);
  ReportSigned(DefaultSign(policy), stats.reset);
  if (span.active()) {
    span.AddCount("marked", static_cast<int64_t>(stats.marked));
    span.AddCount("rules", static_cast<int64_t>(stats.rules_used));
  }
  return stats;
}

Result<AnnotateStats> ReannotateCached(Backend* backend,
                                       const policy::Policy& policy,
                                       const std::vector<size_t>& triggered,
                                       const std::vector<UniversalId>& old_scope,
                                       AnnotationContext* ctx) {
  // A partial re-annotation diffs against the marks outside the triggered
  // scopes, so it needs the sign state of record; without one the marked
  // set that snapshots and the WAL read would silently go wrong.
  const SignState* state = ctx->sign_state;
  if (state == nullptr || !state->valid ||
      state->default_sign != DefaultSign(policy)) {
    return Status::Internal(
        "partial re-annotation without a valid sign state for default "
        "sign '" + std::string(1, DefaultSign(policy)) + "'");
  }
  obs::ScopedSpan span("reannotate");
  obs::ScopedTimer timer("reannotate.elapsed_us");
  AnnotateStats stats;
  stats.rules_used = triggered.size();
  obs::IncrementCounter("annotator.reannotations");
  if (triggered.empty()) return stats;
  policy::AnnotationPlan plan =
      policy::PlanFor(policy.default_semantics(), policy.conflict_resolution());
  XMLAC_ASSIGN_OR_RETURN(std::vector<RuleScopeCache::BitmapPtr> scopes,
                         RuleScopes(backend, policy, triggered, *ctx));
  NodeBitmap desired = CombineScopes(policy, triggered, scopes, plan.combine,
                                     backend->IdBound());
  // Everything in a triggered scope before or after the update; only these
  // signs may change.
  NodeBitmap affected(backend->IdBound());
  for (const auto& s : scopes) affected.Union(*s);
  for (UniversalId id : old_scope) affected.Set(id);
  XMLAC_RETURN_IF_ERROR(ApplySigns(backend, MarkSign(plan),
                                   DefaultSign(policy), desired, &affected,
                                   ctx->sign_state, &stats));
  obs::IncrementCounter("annotator.nodes_marked", stats.marked);
  obs::IncrementCounter("annotator.nodes_reset", stats.reset);
  obs::IncrementCounter("annotator.rules_used", stats.rules_used);
  ReportSigned(MarkSign(plan), stats.marked);
  ReportSigned(DefaultSign(policy), stats.reset);
  if (span.active()) {
    span.AddCount("marked", static_cast<int64_t>(stats.marked));
    span.AddCount("reset", static_cast<int64_t>(stats.reset));
    span.AddCount("rules", static_cast<int64_t>(stats.rules_used));
  }
  return stats;
}

}  // namespace

Result<AnnotateStats> AnnotateFull(Backend* backend,
                                   const policy::Policy& policy,
                                   AnnotationContext* ctx) {
  if (Cached(ctx)) return AnnotateFullCached(backend, policy, ctx);
  obs::ScopedSpan span("annotate.full");
  obs::ScopedTimer timer("annotate.full.elapsed_us");
  policy::AnnotationPlan plan =
      policy::PlanFor(policy.default_semantics(), policy.conflict_resolution());
  {
    obs::ScopedSpan reset_span("annotate.reset_signs");
    XMLAC_RETURN_IF_ERROR(backend->ResetAllSigns(DefaultSign(policy)));
  }
  std::vector<UniversalId> marked;
  {
    obs::ScopedSpan eval_span("annotate.evaluate_set");
    XMLAC_ASSIGN_OR_RETURN(
        marked,
        backend->EvaluateAnnotationSet(policy, AllRules(policy), plan.combine));
    if (eval_span.active()) {
      eval_span.AddCount("marked", static_cast<int64_t>(marked.size()));
    }
  }
  {
    obs::ScopedSpan mark_span("annotate.set_signs");
    XMLAC_RETURN_IF_ERROR(backend->SetSigns(marked, MarkSign(plan)));
  }
  AnnotateStats stats;
  stats.marked = marked.size();
  stats.reset = backend->NodeCount();
  stats.rules_used = policy.size();
  // A full wholesale annotation re-establishes diff state even when the
  // cache is off, so a later cached call can diff against it.
  if (ctx != nullptr && ctx->sign_state != nullptr) {
    ctx->sign_state->marked = NodeBitmap::FromIds(marked);
    ctx->sign_state->default_sign = DefaultSign(policy);
    ctx->sign_state->valid = true;
  }
  obs::IncrementCounter("annotator.full_annotations");
  obs::IncrementCounter("annotator.nodes_marked", stats.marked);
  obs::IncrementCounter("annotator.nodes_reset", stats.reset);
  obs::IncrementCounter("annotator.rules_used", stats.rules_used);
  ReportSigned(MarkSign(plan), stats.marked);
  ReportSigned(DefaultSign(policy),
               stats.reset >= stats.marked ? stats.reset - stats.marked : 0);
  if (span.active()) {
    span.AddCount("marked", static_cast<int64_t>(stats.marked));
    span.AddCount("rules", static_cast<int64_t>(stats.rules_used));
  }
  return stats;
}

Result<std::vector<UniversalId>> TriggeredScope(
    Backend* backend, const policy::Policy& policy,
    const std::vector<size_t>& triggered, const AnnotationContext* ctx) {
  obs::ScopedSpan span("triggered_scope");
  std::vector<UniversalId> out;
  if (Cached(ctx)) {
    XMLAC_ASSIGN_OR_RETURN(std::vector<RuleScopeCache::BitmapPtr> scopes,
                           RuleScopes(backend, policy, triggered, *ctx));
    NodeBitmap scope(backend->IdBound());
    for (const auto& s : scopes) scope.Union(*s);
    out = scope.ToIds();
  } else {
    std::unordered_set<UniversalId> scope;
    for (size_t i : triggered) {
      // Per-rule timing: one histogram sample per scope evaluation.
      obs::ScopedTimer rule_timer("annotator.rule_scope_us");
      XMLAC_ASSIGN_OR_RETURN(
          std::vector<UniversalId> ids,
          backend->EvaluateQuery(policy.rules()[i].resource));
      scope.insert(ids.begin(), ids.end());
    }
    out.assign(scope.begin(), scope.end());
    std::sort(out.begin(), out.end());
  }
  obs::IncrementCounter("annotator.scope_nodes", out.size());
  if (span.active()) {
    span.AddCount("rules", static_cast<int64_t>(triggered.size()));
    span.AddCount("scope_nodes", static_cast<int64_t>(out.size()));
  }
  return out;
}

Result<AnnotateStats> Reannotate(Backend* backend,
                                 const policy::Policy& policy,
                                 const std::vector<size_t>& triggered,
                                 const std::vector<UniversalId>& old_scope,
                                 AnnotationContext* ctx) {
  if (Cached(ctx)) {
    return ReannotateCached(backend, policy, triggered, old_scope, ctx);
  }
  obs::ScopedSpan span("reannotate");
  obs::ScopedTimer timer("reannotate.elapsed_us");
  AnnotateStats stats;
  stats.rules_used = triggered.size();
  obs::IncrementCounter("annotator.reannotations");
  if (triggered.empty()) return stats;
  policy::AnnotationPlan plan =
      policy::PlanFor(policy.default_semantics(), policy.conflict_resolution());

  // Nodes possibly affected: everything in a triggered scope before or
  // after the update.
  XMLAC_ASSIGN_OR_RETURN(std::vector<UniversalId> new_scope,
                         TriggeredScope(backend, policy, triggered));
  std::unordered_set<UniversalId> affected(old_scope.begin(),
                                           old_scope.end());
  affected.insert(new_scope.begin(), new_scope.end());
  std::vector<UniversalId> to_reset(affected.begin(), affected.end());
  std::sort(to_reset.begin(), to_reset.end());
  {
    obs::ScopedSpan reset_span("annotate.reset_signs");
    XMLAC_RETURN_IF_ERROR(backend->SetSigns(to_reset, DefaultSign(policy)));
  }
  stats.reset = to_reset.size();

  // Re-mark per the Fig. 5 plan restricted to the triggered rules.
  std::vector<UniversalId> marked;
  {
    obs::ScopedSpan eval_span("annotate.evaluate_set");
    XMLAC_ASSIGN_OR_RETURN(
        marked,
        backend->EvaluateAnnotationSet(policy, triggered, plan.combine));
  }
  {
    obs::ScopedSpan mark_span("annotate.set_signs");
    XMLAC_RETURN_IF_ERROR(backend->SetSigns(marked, MarkSign(plan)));
  }
  stats.marked = marked.size();
  // Keep the sign state exact: the affected ids were reset to the default,
  // then the re-annotation set was marked.
  if (ctx != nullptr && ctx->sign_state != nullptr) {
    SignState* state = ctx->sign_state;
    if (state->valid && state->default_sign == DefaultSign(policy)) {
      for (UniversalId id : to_reset) state->marked.Unset(id);
      for (UniversalId id : marked) state->marked.Set(id);
    } else {
      state->valid = false;
    }
  }
  obs::IncrementCounter("annotator.nodes_marked", stats.marked);
  obs::IncrementCounter("annotator.nodes_reset", stats.reset);
  obs::IncrementCounter("annotator.rules_used", stats.rules_used);
  ReportSigned(MarkSign(plan), stats.marked);
  ReportSigned(DefaultSign(policy),
               stats.reset >= stats.marked ? stats.reset - stats.marked : 0);
  if (span.active()) {
    span.AddCount("marked", static_cast<int64_t>(stats.marked));
    span.AddCount("reset", static_cast<int64_t>(stats.reset));
    span.AddCount("rules", static_cast<int64_t>(stats.rules_used));
  }
  return stats;
}

}  // namespace xmlac::engine
