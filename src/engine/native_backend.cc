#include "engine/native_backend.h"

#include <algorithm>

#include "common/io.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xpath/evaluator.h"

namespace xmlac::engine {

namespace {

constexpr char kSignAttr[] = "sign";

std::vector<UniversalId> ToIds(const std::vector<xml::NodeId>& nodes) {
  std::vector<UniversalId> out;
  out.reserve(nodes.size());
  for (xml::NodeId n : nodes) out.push_back(static_cast<UniversalId>(n));
  return out;
}

}  // namespace

Status NativeXmlBackend::Load(const xml::Dtd& dtd, const xml::Document& doc) {
  (void)dtd;  // the native store needs no schema
  doc_ = doc.Clone();
  structural_index_.Invalidate();
  loaded_ = true;
  // The source may already carry sign attributes (e.g. a saved annotated
  // store).
  non_default_signs_ = CountNonDefaultSigns();
  PublishIndex();
  return Status::OK();
}

void NativeXmlBackend::Clear() {
  doc_ = xml::Document();
  structural_index_.Invalidate();
  loaded_ = false;
  non_default_signs_ = 0;
}

xpath::EvaluatorOptions NativeXmlBackend::EvalOptions() const {
  xpath::EvaluatorOptions options;
  options.shard = shard_;
  if (!use_structural_index_) return options;
  // The writer published a fresh version before its mutating call
  // returned, so this is never stale in steady state, and a reader never
  // syncs, rebuilds, or waits here.
  options.index = structural_index_.current();
  return options;
}

void NativeXmlBackend::PublishIndex() {
  if (use_structural_index_) structural_index_.Publish();
}

size_t NativeXmlBackend::CountNonDefaultSigns() const {
  size_t n = 0;
  for (xml::NodeId id = 0; id < doc_.size(); ++id) {
    if (doc_.IsAlive(id) && doc_.GetAttribute(id, kSignAttr).has_value()) {
      ++n;
    }
  }
  return n;
}

size_t NativeXmlBackend::NodeCount() const {
  if (!loaded_) return 0;
  size_t n = 0;
  for (xml::NodeId id = 0; id < doc_.size(); ++id) {
    if (doc_.IsAlive(id) && doc_.node(id).kind == xml::NodeKind::kElement) {
      ++n;
    }
  }
  return n;
}

Result<std::vector<UniversalId>> NativeXmlBackend::EvaluateQuery(
    const xpath::Path& query) {
  if (!loaded_) return Status::Internal("backend not loaded");
  return ToIds(xpath::Evaluate(query, doc_, EvalOptions()));
}

Result<std::string> NativeXmlBackend::CompileAnnotationXQuery(
    const policy::Policy& policy, const std::vector<size_t>& rule_subset,
    policy::CombineOp combine) {
  std::string grants;
  std::string denies;
  for (size_t i : rule_subset) {
    const policy::Rule& r = policy.rules()[i];
    std::string& target =
        r.effect == policy::Effect::kAllow ? grants : denies;
    if (!target.empty()) target += " union ";
    target += xpath::ToString(r.resource);
  }
  bool want_grants = combine == policy::CombineOp::kGrants ||
                     combine == policy::CombineOp::kGrantsExceptDenies;
  const std::string& base = want_grants ? grants : denies;
  const std::string& minus = want_grants ? denies : grants;
  bool subtract = combine == policy::CombineOp::kGrantsExceptDenies ||
                  combine == policy::CombineOp::kDeniesExceptGrants;
  if (base.empty()) {
    return Status::NotFound("annotation set is empty by construction");
  }
  std::string out = "doc(\"xmlgen\")((" + base + ")";
  if (subtract && !minus.empty()) {
    out += " except (" + minus + ")";
  }
  out += ")";
  return out;
}

Result<std::vector<UniversalId>> NativeXmlBackend::EvaluateAnnotationSet(
    const policy::Policy& policy, const std::vector<size_t>& rule_subset,
    policy::CombineOp combine) {
  if (!loaded_) return Status::Internal("backend not loaded");
  auto compiled = CompileAnnotationXQuery(policy, rule_subset, combine);
  if (!compiled.ok()) {
    if (compiled.status().code() == StatusCode::kNotFound) {
      return std::vector<UniversalId>{};  // no contributing rules
    }
    return compiled.status();
  }
  XMLAC_ASSIGN_OR_RETURN(xmldb::XqValue result, RunXQuery(*compiled));
  if (!result.is_nodes()) {
    return Status::Internal("annotation XQuery did not yield nodes");
  }
  return ToIds(result.nodes());
}

void NativeXmlBackend::Annotate(xml::NodeId n, char val) {
  auto attr = doc_.GetAttribute(n, kSignAttr);
  bool had = attr.has_value();
  if (obs::CurrentMetrics() != nullptr) {
    char cur = had ? (*attr)[0] : default_sign_;
    if (cur != val) obs::IncrementCounter("native.sign_flips");
  }
  // xmlac:annotate(): insert the attribute or replace its value; drop it
  // entirely when it matches the store default (minimal storage).
  if (val == default_sign_) {
    if (had) {
      doc_.RemoveAttribute(n, kSignAttr);
      --non_default_signs_;
    }
  } else {
    doc_.SetAttribute(n, kSignAttr, std::string(1, val));
    if (!had) ++non_default_signs_;
  }
}

Status NativeXmlBackend::SetSigns(const std::vector<UniversalId>& ids,
                                  char sign) {
  for (UniversalId id : ids) {
    auto n = static_cast<xml::NodeId>(id);
    if (!doc_.IsAlive(n)) continue;
    Annotate(n, sign);
  }
  return Status::OK();
}

Status NativeXmlBackend::ResetAllSigns(char default_sign) {
  default_sign_ = default_sign;
  // With no explicit sign attribute anywhere, every node already reads as
  // the (new) default: nothing to remove.  This makes the first annotation
  // of a freshly loaded store skip the full-document pass.
  if (non_default_signs_ == 0) return Status::OK();
  size_t reset = 0;
  for (xml::NodeId id = 0; id < doc_.size(); ++id) {
    if (doc_.IsAlive(id) && doc_.node(id).kind == xml::NodeKind::kElement) {
      doc_.RemoveAttribute(id, kSignAttr);
      ++reset;
    }
  }
  non_default_signs_ = 0;
  obs::IncrementCounter("native.signs_reset", reset);
  return Status::OK();
}

Result<char> NativeXmlBackend::GetSign(UniversalId id) {
  auto n = static_cast<xml::NodeId>(id);
  if (!doc_.IsAlive(n)) {
    return Status::NotFound("node " + std::to_string(id) + " not found");
  }
  auto attr = doc_.GetAttribute(n, kSignAttr);
  return attr.has_value() ? (*attr)[0] : default_sign_;
}

Result<size_t> NativeXmlBackend::DeleteWhere(const xpath::Path& u) {
  if (!loaded_) return Status::Internal("backend not loaded");
  std::vector<xml::NodeId> victims = xpath::Evaluate(u, doc_, EvalOptions());
  size_t deleted = 0;
  for (xml::NodeId n : victims) {
    // A victim nested in an earlier one is already dead: Visit skips it.
    doc_.Visit(n, [&](xml::NodeId id) {
      if (doc_.node(id).kind == xml::NodeKind::kElement) ++deleted;
    });
    doc_.DeleteSubtree(n);
  }
  PublishIndex();
  return deleted;
}

Result<xmldb::XqValue> NativeXmlBackend::RunXQuery(std::string_view query) {
  if (!loaded_) return Status::Internal("backend not loaded");
  obs::ScopedSpan span("native.xquery");
  obs::ScopedTimer timer("native.xquery_us");
  obs::IncrementCounter("native.xquery_runs");
  xmldb::XQueryEngine engine;
  engine.RegisterDocument("xmlgen", &doc_, EvalOptions());
  return engine.Run(query);
}

Status NativeXmlBackend::SaveToFile(std::string_view path) const {
  if (!loaded_) return Status::Internal("backend not loaded");
  if (doc_.empty() || !doc_.IsAlive(doc_.root())) {
    return Status::InvalidArgument("cannot save an empty store");
  }
  // Stash the default sign so load restores annotation semantics.
  xml::Document copy = doc_.Clone();
  copy.SetAttribute(copy.root(), "xmlac-default", std::string(1, default_sign_));
  xml::SerializeOptions opt;
  opt.declaration = true;
  return WriteFile(path, xml::Serialize(copy, opt));
}

Status NativeXmlBackend::LoadFromFile(std::string_view path) {
  XMLAC_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  XMLAC_ASSIGN_OR_RETURN(xml::Document doc, xml::ParseDocument(text));
  auto def = doc.GetAttribute(doc.root(), "xmlac-default");
  default_sign_ = def.has_value() && !def->empty() ? (*def)[0] : '-';
  doc.RemoveAttribute(doc.root(), "xmlac-default");
  doc_ = std::move(doc);
  structural_index_.Invalidate();
  loaded_ = true;
  non_default_signs_ = CountNonDefaultSigns();
  PublishIndex();
  return Status::OK();
}

xml::Document NativeXmlBackend::AccessibleView() const {
  if (!loaded_) return xml::Document();
  return engine::AccessibleView(doc_, [&](xml::NodeId n) {
    auto attr = doc_.GetAttribute(n, kSignAttr);
    char sign = attr.has_value() ? (*attr)[0] : default_sign_;
    return sign == '+';
  });
}

xml::Document AccessibleView(
    const xml::Document& doc,
    const std::function<bool(xml::NodeId)>& accessible) {
  xml::Document view;
  if (doc.empty() || !doc.IsAlive(doc.root())) return view;
  if (!accessible(doc.root())) return view;
  // (source node, parent in the view); kInvalidNode marks the root.
  std::vector<std::pair<xml::NodeId, xml::NodeId>> stack;
  stack.emplace_back(doc.root(), xml::kInvalidNode);
  while (!stack.empty()) {
    auto [src, view_parent] = stack.back();
    stack.pop_back();
    const xml::Node& n = doc.node(src);
    xml::NodeId dst = view_parent == xml::kInvalidNode
                          ? view.CreateRoot(n.label)
                          : view.CreateElement(view_parent, n.label);
    for (const xml::Attribute& a : n.attributes) {
      if (a.name != kSignAttr) view.SetAttribute(dst, a.name, a.value);
    }
    // Text children first (created eagerly), then accessible element
    // children via the stack.  Within each kind the source order is kept;
    // text-before-element interleaving of mixed content is not (the data
    // model is unordered, Sec. 2.1 of the paper).
    for (xml::NodeId c : n.children) {
      if (doc.node(c).alive && doc.node(c).kind == xml::NodeKind::kText) {
        view.CreateText(dst, doc.node(c).label);
      }
    }
    for (auto it = n.children.rbegin(); it != n.children.rend(); ++it) {
      const xml::Node& c = doc.node(*it);
      if (c.alive && c.kind == xml::NodeKind::kElement && accessible(*it)) {
        stack.emplace_back(*it, dst);
      }
    }
  }
  return view;
}

Result<size_t> NativeXmlBackend::InsertUnder(const xpath::Path& target,
                                             const xml::Document& fragment) {
  if (!loaded_) return Status::Internal("backend not loaded");
  if (fragment.empty() || !fragment.IsAlive(fragment.root())) {
    return Status::InvalidArgument("empty insert fragment");
  }
  std::vector<xml::NodeId> parents =
      xpath::Evaluate(target, doc_, EvalOptions());
  size_t inserted = 0;
  for (xml::NodeId parent : parents) {
    // Deep-copy the fragment below `parent` (iterative, parent-before-child
    // order mirrors the fragment's own pre-order).
    std::vector<std::pair<xml::NodeId, xml::NodeId>> stack;  // (src, dst-parent)
    stack.emplace_back(fragment.root(), parent);
    while (!stack.empty()) {
      auto [src, dst_parent] = stack.back();
      stack.pop_back();
      const xml::Node& n = fragment.node(src);
      if (!n.alive) continue;
      xml::NodeId dst;
      if (n.kind == xml::NodeKind::kElement) {
        dst = doc_.CreateElement(dst_parent, n.label);
        for (const xml::Attribute& a : n.attributes) {
          if (a.name != "sign") doc_.SetAttribute(dst, a.name, a.value);
        }
        ++inserted;
      } else {
        doc_.CreateText(dst_parent, n.label);
        continue;
      }
      for (auto it = n.children.rbegin(); it != n.children.rend(); ++it) {
        stack.emplace_back(*it, dst);
      }
    }
  }
  PublishIndex();
  return inserted;
}

}  // namespace xmlac::engine
