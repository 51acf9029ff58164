#include "xpath/structural_eval.h"

#include <algorithm>
#include <cstdint>

#include "common/shard.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace xmlac::xpath {
namespace {

using xml::Document;
using xml::NodeId;
using xml::NodeKind;

// A step chain fans out only when its estimated join work (EstimatedWork:
// context nodes plus the stream entries the remaining merges can walk)
// reaches this many units.  Splitting serial time S over k participants
// pays off once S > F * k / (k - 1), F being the pool's fork-join round
// trip.  Measured on a 4-vCPU host: F = 65 us with the pool idle for 10 ms
// first, as between serve reads (bench_parallel_scaling's "forkjoin" row),
// and S = ~30 ns per unit (median over serve_commit's queries at XMark
// f = 0.2), so 65 us * 4/3 / 30 ns = ~2900 units.
constexpr size_t kEvalShardMinWork = 2900;

// Per-evaluation scratch: counters for the obs layer plus the per-strategy
// breakdown reported as trace-span tags.
struct EvalState {
  const Document& doc;
  const IndexVersion& index;
  // Non-null enables the exchange fan-out (see FanOutSteps); shard-worker
  // states leave it null so workers never nest another fan-out.
  const ShardConfig* shard = nullptr;
  // One fan-out per step chain: consumed by the first step whose context
  // clears the work threshold.  Cleared during predicate evaluation —
  // predicate sub-paths start from one node and re-enter ApplySteps many
  // times, the worst shape for a fan-out.
  bool fanout_available = false;
  uint64_t advances = 0;  // stream/child entries examined (the naive
                          // engine's nodes_visited analog)
  uint64_t joins = 0;     // structural merges performed
  int64_t descendant_merges = 0;
  int64_t child_merges = 0;
  int64_t child_scans = 0;
  int64_t value_probes = 0;
};

// Runs body(worker, range) -> node list for every range through the shard
// runner, each range with its own worker state (no shard config, so a
// worker never nests another fan-out), and folds the workers' counters
// into `s`.  Returns the per-range lists concatenated in range order.
template <typename Body>
std::vector<NodeId> RunEvalShards(EvalState& s,
                                  const std::vector<ShardRange>& ranges,
                                  const ShardConfig& config, Body&& body) {
  std::vector<EvalState> workers(ranges.size(), EvalState{s.doc, s.index});
  std::vector<NodeId> out =
      RunShards(ranges, config, {"xpath", "xpath.shard_fanout"},
                [&](size_t k) { return body(workers[k], ranges[k]); });
  for (const EvalState& w : workers) {
    s.advances += w.advances;
    s.joins += w.joins;
    s.descendant_merges += w.descendant_merges;
    s.child_merges += w.child_merges;
    s.child_scans += w.child_scans;
    s.value_probes += w.value_probes;
  }
  return out;
}

bool PredicatesHoldStructural(EvalState& s, const Step& step, NodeId node);

void SortByStart(const EvalState& s, std::vector<NodeId>* v) {
  std::sort(v->begin(), v->end(), [&](NodeId a, NodeId b) {
    return s.index.label(a).start < s.index.label(b).start;
  });
}

// First stream position whose start exceeds `lo`.
size_t StreamLowerBound(const EvalState& s, const std::vector<NodeId>& stream,
                        uint64_t lo) {
  auto it = std::upper_bound(stream.begin(), stream.end(), lo,
                             [&](uint64_t v, NodeId id) {
                               return v < s.index.label(id).start;
                             });
  return static_cast<size_t>(it - stream.begin());
}

// The scan window for candidates below any of `ctx`: (min start, max end).
void ContextBounds(const EvalState& s, const std::vector<NodeId>& ctx,
                   uint64_t* lo, uint64_t* hi) {
  *lo = s.index.label(ctx.front()).start;
  *hi = 0;
  for (NodeId c : ctx) *hi = std::max(*hi, s.index.label(c).end);
}

// Stack-based ancestor/descendant merge: appends the stream candidates that
// lie inside at least one context interval, in start order.  `ctx` must be
// start-sorted.  `limit` > 0 stops after that many matches (existence
// probes).  The stack of open context ends is decreasing (outer intervals
// open first and close last), so each candidate costs amortized O(1).
void DescendantMerge(EvalState& s, const std::vector<NodeId>& ctx,
                     const std::vector<NodeId>& stream, size_t limit,
                     std::vector<NodeId>* out) {
  if (ctx.empty() || stream.empty()) return;
  ++s.joins;
  ++s.descendant_merges;
  uint64_t lo = 0;
  uint64_t hi = 0;
  ContextBounds(s, ctx, &lo, &hi);
  size_t j = 0;
  std::vector<uint64_t> open;
  for (size_t i = StreamLowerBound(s, stream, lo); i < stream.size(); ++i) {
    NodeId cand = stream[i];
    const IntervalLabel& cl = s.index.label(cand);
    if (cl.start >= hi) break;
    ++s.advances;
    while (j < ctx.size() && s.index.label(ctx[j]).start < cl.start) {
      uint64_t cstart = s.index.label(ctx[j]).start;
      while (!open.empty() && open.back() < cstart) open.pop_back();
      open.push_back(s.index.label(ctx[j]).end);
      ++j;
    }
    while (!open.empty() && open.back() < cl.start) open.pop_back();
    if (open.empty()) continue;
    if (!s.doc.IsAlive(cand)) continue;
    out->push_back(cand);
    if (limit != 0 && out->size() >= limit) return;
  }
}

// Parent/child merge: stream candidates whose parent is in `ctx`, in start
// order.  Used when the contexts' combined child lists would cost more to
// scan than the stream slice.
void ChildMerge(EvalState& s, const std::vector<NodeId>& ctx,
                const std::vector<NodeId>& stream, size_t limit,
                std::vector<NodeId>* out) {
  if (ctx.empty() || stream.empty()) return;
  ++s.joins;
  ++s.child_merges;
  std::vector<NodeId> parents(ctx);
  std::sort(parents.begin(), parents.end());
  uint64_t lo = 0;
  uint64_t hi = 0;
  ContextBounds(s, ctx, &lo, &hi);
  for (size_t i = StreamLowerBound(s, stream, lo); i < stream.size(); ++i) {
    NodeId cand = stream[i];
    if (s.index.label(cand).start >= hi) break;
    ++s.advances;
    NodeId p = s.doc.node(cand).parent;
    if (p == xml::kInvalidNode ||
        !std::binary_search(parents.begin(), parents.end(), p)) {
      continue;
    }
    if (!s.doc.IsAlive(cand)) continue;
    out->push_back(cand);
    if (limit != 0 && out->size() >= limit) return;
  }
}

// Direct child-list scan.  Output is NOT start-sorted when contexts nest
// (a nested context's children interleave with its ancestor's later
// children); the step loop re-sorts.
void ChildScan(EvalState& s, const Step& step, const std::vector<NodeId>& ctx,
               size_t limit, std::vector<NodeId>* out) {
  ++s.joins;
  ++s.child_scans;
  for (NodeId parent : ctx) {
    for (NodeId c : s.doc.node(parent).children) {
      const xml::Node& cn = s.doc.node(c);
      if (!cn.alive || cn.kind != NodeKind::kElement) continue;
      ++s.advances;
      if (!step.is_wildcard() && cn.label != step.label) continue;
      out->push_back(c);
      if (limit != 0 && out->size() >= limit) return;
    }
  }
}

const std::vector<NodeId>& StreamFor(const EvalState& s, const Step& step) {
  return step.is_wildcard() ? s.index.ElementStream()
                            : s.index.TagStream(step.label);
}

std::vector<NodeId> ApplySteps(EvalState& s, const Path& path,
                               size_t step_index, std::vector<NodeId> context,
                               size_t limit_at_last);

size_t StepWork(const EvalState& s, const Step& step);

// Join work of a step's predicates: each predicate path re-joins below the
// step's candidates, whose subtrees are disjoint or nested, so over all
// candidates it walks about its own streams once.
size_t PredicateWork(const EvalState& s, const Step& step) {
  size_t work = 0;
  for (const Predicate& pred : step.predicates) {
    for (const Step& p : pred.path.steps) work += StepWork(s, p);
  }
  return work;
}

// Upper bound on the stream entries one step's merge walks (its whole
// stream), plus its predicates' work.
size_t StepWork(const EvalState& s, const Step& step) {
  return StreamFor(s, step).size() + PredicateWork(s, step);
}

// Estimated join work of applying steps [step_index..] to `context_size`
// context nodes, in the unit of kEvalShardMinWork.
size_t EstimatedWork(const EvalState& s, const Path& path, size_t step_index,
                     size_t context_size) {
  size_t work = context_size;
  for (size_t i = step_index; i < path.steps.size(); ++i) {
    work += StepWork(s, path.steps[i]);
  }
  return work;
}

// Exchange fan-out over the context set: splits the start-sorted context
// into contiguous interval ranges and applies the remaining steps per
// range.  Contexts nesting across a range boundary can both select the
// same node, so the merge also sorts by NodeId and deduplicates — which is
// exactly the serial output contract, making the result byte-identical for
// any shard count.
std::vector<NodeId> FanOutSteps(EvalState& s, const Path& path,
                                size_t step_index,
                                const std::vector<NodeId>& context,
                                const std::vector<ShardRange>& ranges) {
  std::vector<NodeId> out = RunEvalShards(
      s, ranges, *s.shard, [&](EvalState& worker, const ShardRange& r) {
        return ApplySteps(worker, path, step_index,
                          std::vector<NodeId>(context.begin() + r.begin,
                                              context.begin() + r.end),
                          0);
      });
  obs::ScopedTimer merge_timer("xpath.shard.merge_us");
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// Applies steps [step_index..] to `context`.  `limit_at_last` > 0 allows
// the final step to stop after that many nodes when it carries no
// predicates (existence probes from predicate evaluation).
std::vector<NodeId> ApplySteps(EvalState& s, const Path& path,
                               size_t step_index, std::vector<NodeId> context,
                               size_t limit_at_last) {
  bool start_sorted = context.size() <= 1;
  for (size_t i = step_index; i < path.steps.size(); ++i) {
    if (context.empty()) break;
    if (s.shard != nullptr && s.fanout_available && limit_at_last == 0) {
      std::vector<ShardRange> ranges =
          PlanShards(context.size(), EstimatedWork(s, path, i, context.size()),
                     *s.shard, kEvalShardMinWork);
      if (ranges.size() > 1) {
        s.fanout_available = false;
        if (!start_sorted) SortByStart(s, &context);
        return FanOutSteps(s, path, i, context, ranges);
      }
    }
    const Step& step = path.steps[i];
    if (!start_sorted) SortByStart(s, &context);
    bool last = i + 1 == path.steps.size();
    size_t limit =
        (last && step.predicates.empty()) ? limit_at_last : size_t{0};
    // A single context's child list is already start-ordered (children
    // append, and appended children always label past their siblings).
    bool scan_stays_sorted = context.size() == 1;
    std::vector<NodeId> next;
    start_sorted = true;
    if (step.axis == Axis::kDescendant) {
      DescendantMerge(s, context, StreamFor(s, step), limit, &next);
    } else if (step.is_wildcard()) {
      // Children of a context are exactly its element children; the "*"
      // stream is the whole document, so the direct scan always wins.
      ChildScan(s, step, context, limit, &next);
      start_sorted = scan_stays_sorted || next.size() <= 1;
    } else {
      const std::vector<NodeId>& stream = StreamFor(s, step);
      size_t scan_cost = 0;
      for (NodeId c : context) scan_cost += s.doc.node(c).children.size();
      if (scan_cost <= stream.size()) {
        ChildScan(s, step, context, limit, &next);
        start_sorted = scan_stays_sorted || next.size() <= 1;
      } else {
        ChildMerge(s, context, stream, limit, &next);
      }
    }
    if (!step.predicates.empty()) {
      std::vector<NodeId> kept;
      kept.reserve(next.size());
      for (NodeId id : next) {
        if (PredicatesHoldStructural(s, step, id)) kept.push_back(id);
      }
      next = std::move(kept);
    }
    context = std::move(next);
  }
  return context;
}

// =const leaf probe through the value index: does `pred.path` from `node`
// reach an element whose text equals `pred.value`?  Only called for kEq
// with a plain (non-wildcard, predicate-free) final step.
bool ValueIndexProbe(EvalState& s, const Predicate& pred, NodeId node) {
  const Step& leaf = pred.path.steps.back();
  const std::vector<NodeId>* bucket =
      s.index.ValueMatches(leaf.label, pred.value, s.doc);
  ++s.value_probes;
  if (bucket == nullptr) return false;  // nothing in the document matches
  Path prefix;
  prefix.absolute = false;
  prefix.steps.assign(pred.path.steps.begin(), pred.path.steps.end() - 1);
  std::vector<NodeId> ctx = ApplySteps(s, prefix, 0, {node}, 0);
  if (ctx.empty()) return false;
  SortByStart(s, &ctx);
  std::vector<NodeId> hit;
  if (leaf.axis == Axis::kDescendant) {
    DescendantMerge(s, ctx, *bucket, 1, &hit);
  } else {
    ChildMerge(s, ctx, *bucket, 1, &hit);
  }
  return !hit.empty();
}

bool PredicatesHoldStructuralImpl(EvalState& s, const Step& step,
                                  NodeId node) {
  for (const Predicate& pred : step.predicates) {
    if (!pred.has_comparison()) {
      if (ApplySteps(s, pred.path, 0, {node}, 1).empty()) return false;
      continue;
    }
    if (pred.path.empty()) {
      // [. = const] compares the context node's own text.
      if (!CompareValues(s.doc.DirectText(node), *pred.op, pred.value)) {
        return false;
      }
      continue;
    }
    const Step& leaf = pred.path.steps.back();
    if (*pred.op == CmpOp::kEq && !leaf.is_wildcard() &&
        leaf.predicates.empty()) {
      if (!ValueIndexProbe(s, pred, node)) return false;
      continue;
    }
    std::vector<NodeId> selected = ApplySteps(s, pred.path, 0, {node}, 0);
    bool any = false;
    for (NodeId id : selected) {
      if (CompareValues(s.doc.DirectText(id), *pred.op, pred.value)) {
        any = true;
        break;
      }
    }
    if (!any) return false;
  }
  return true;
}

bool PredicatesHoldStructural(EvalState& s, const Step& step, NodeId node) {
  // Predicate sub-paths must not consume the step chain's fan-out budget:
  // they re-enter ApplySteps once per candidate from single-node contexts.
  bool saved = s.fanout_available;
  s.fanout_available = false;
  bool ok = PredicatesHoldStructuralImpl(s, step, node);
  s.fanout_available = saved;
  return ok;
}

void FlushCounters(const EvalState& s, size_t selected, bool top_level) {
  if (obs::CurrentMetrics() == nullptr) return;
  // Cached handles: this flush runs once per (sub)query on the serve read
  // path, and five name lookups per query showed up in bench_harness_overhead.
  static thread_local obs::CounterHandle evaluations("xpath.evaluations");
  static thread_local obs::CounterHandle nodes_visited("xpath.nodes_visited");
  static thread_local obs::CounterHandle nodes_selected("xpath.nodes_selected");
  static thread_local obs::CounterHandle joins("xpath.structural.joins");
  static thread_local obs::CounterHandle advances(
      "xpath.structural.stream_advances");
  if (top_level) evaluations.Increment();
  nodes_visited.Increment(s.advances);
  nodes_selected.Increment(selected);
  joins.Increment(s.joins);
  advances.Increment(s.advances);
}

// Builds the first-step context for an absolute path.  A descendant first
// step filters its whole tag stream; with predicates over a large stream
// the filter fans out: stream ranges are disjoint nodes in pre-order, so
// concatenation in range order is the serial output.
std::vector<NodeId> FirstStepContext(EvalState& s, const Path& path) {
  const Step& first = path.steps.front();
  if (first.axis == Axis::kChild) {
    // The virtual document node has exactly one child: the root element.
    const xml::Node& root = s.doc.node(s.doc.root());
    if ((first.is_wildcard() || root.label == first.label) &&
        PredicatesHoldStructural(s, first, s.doc.root())) {
      return {s.doc.root()};
    }
    return {};
  }
  static const ShardConfig kSerial{/*enabled=*/false};
  const ShardConfig& config =
      s.shard != nullptr && !first.predicates.empty() ? *s.shard : kSerial;
  const std::vector<NodeId>& stream = StreamFor(s, first);
  std::vector<ShardRange> ranges =
      PlanShards(stream.size(), stream.size() + PredicateWork(s, first),
                 config, kEvalShardMinWork);
  return RunEvalShards(
      s, ranges, config, [&](EvalState& worker, const ShardRange& r) {
        std::vector<NodeId> part;
        for (size_t i = r.begin; i < r.end; ++i) {
          NodeId c = stream[i];
          ++worker.advances;
          if (!s.doc.IsAlive(c)) continue;
          if (!first.predicates.empty() &&
              !PredicatesHoldStructural(worker, first, c)) {
            continue;
          }
          part.push_back(c);
        }
        return part;
      });
}

std::vector<NodeId> EvaluateStructuralImpl(const Path& path,
                                           const Document& doc,
                                           const IndexVersion& index,
                                           const ShardConfig* shard) {
  if (doc.empty() || path.empty() || !doc.IsAlive(doc.root())) return {};
  EvalState s{doc, index};
  if (shard != nullptr && shard->enabled) {
    s.shard = shard;
    s.fanout_available = true;
  }
  obs::ScopedSpan span("xpath.structural_eval");
  ++s.advances;
  std::vector<NodeId> context = FirstStepContext(s, path);
  std::vector<NodeId> out = ApplySteps(s, path, 1, std::move(context), 0);
  // Merges emit in start order; the public contract (shared with the naive
  // engine and the oracle) is NodeId order.
  std::sort(out.begin(), out.end());
  FlushCounters(s, out.size(), /*top_level=*/true);
  // Join-strategy breakdown for this query.
  if (s.descendant_merges != 0) {
    span.AddCount("join.descendant_merge", s.descendant_merges);
  }
  if (s.child_merges != 0) span.AddCount("join.child_merge", s.child_merges);
  if (s.child_scans != 0) span.AddCount("join.child_scan", s.child_scans);
  if (s.value_probes != 0) span.AddCount("join.value_probe", s.value_probes);
  return out;
}

std::vector<NodeId> EvaluateFromStructuralImpl(const Path& path,
                                               const Document& doc,
                                               NodeId context,
                                               const IndexVersion& index,
                                               const ShardConfig* shard) {
  if (!doc.IsAlive(context)) return {};
  if (path.empty()) return {context};
  EvalState s{doc, index};
  if (shard != nullptr && shard->enabled) {
    s.shard = shard;
    s.fanout_available = true;
  }
  std::vector<NodeId> out = ApplySteps(s, path, 0, {context}, 0);
  std::sort(out.begin(), out.end());
  FlushCounters(s, out.size(), /*top_level=*/false);
  return out;
}

}  // namespace

std::vector<NodeId> EvaluateStructural(const Path& path, const Document& doc,
                                       const IndexVersion& index) {
  return EvaluateStructuralImpl(path, doc, index, nullptr);
}

std::vector<NodeId> EvaluateStructural(const Path& path, const Document& doc,
                                       const IndexVersion& index,
                                       const ShardConfig& shard) {
  return EvaluateStructuralImpl(path, doc, index, &shard);
}

std::vector<NodeId> EvaluateFromStructural(const Path& path,
                                           const Document& doc,
                                           NodeId context,
                                           const IndexVersion& index) {
  return EvaluateFromStructuralImpl(path, doc, context, index, nullptr);
}

std::vector<NodeId> EvaluateFromStructural(const Path& path,
                                           const Document& doc,
                                           NodeId context,
                                           const IndexVersion& index,
                                           const ShardConfig& shard) {
  return EvaluateFromStructuralImpl(path, doc, context, index, &shard);
}

namespace {

// Whether `options` route to the structural engine.  An index built for
// another document version answers through the naive evaluator — correct,
// but a broken publish upstream — so it is counted, never silent.
bool UseStructural(const EvaluatorOptions& options, const Document& doc) {
  if (options.index == nullptr) return false;
  if (options.index->Matches(doc)) return true;
  static thread_local obs::CounterHandle fallbacks(
      "xpath.structural.fallbacks");
  fallbacks.Increment();
  return false;
}

}  // namespace

std::vector<NodeId> Evaluate(const Path& path, const Document& doc,
                             const EvaluatorOptions& options) {
  if (UseStructural(options, doc)) {
    return EvaluateStructural(path, doc, *options.index, options.shard);
  }
  return Evaluate(path, doc);
}

std::vector<NodeId> EvaluateFrom(const Path& path, const Document& doc,
                                 NodeId context,
                                 const EvaluatorOptions& options) {
  if (UseStructural(options, doc)) {
    return EvaluateFromStructural(path, doc, context, *options.index,
                                  options.shard);
  }
  return EvaluateFrom(path, doc, context);
}

}  // namespace xmlac::xpath
