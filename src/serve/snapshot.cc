#include "serve/snapshot.h"

#include "engine/native_backend.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "xpath/evaluator.h"

namespace xmlac::serve {

namespace {

constexpr char kSignAttr[] = "sign";

bool Accessible(const xml::Document& doc, xml::NodeId id, char default_sign) {
  auto attr = doc.GetAttribute(id, kSignAttr);
  char sign = attr.has_value() ? (*attr)[0] : default_sign;
  return sign == '+';
}

}  // namespace

Result<engine::RequestOutcome> QuerySnapshot(const Snapshot& snapshot,
                                             std::string_view subject,
                                             const xpath::Path& query) {
  auto it = snapshot.subjects.find(subject);
  if (it == snapshot.subjects.end()) {
    return Status::NotFound("unknown subject '" + std::string(subject) + "'");
  }
  obs::ScopedSpan span("serve.request");
  obs::ScopedTimer timer("serve.request.eval_us");
  const SubjectView& view = it->second;
  const xml::Document& doc = *view.doc;
  // The index-acquire step is the entirety of what a reader "syncs": a
  // version check on the index the snapshot already owns.  Timed so the
  // bench's max-sync-pause figure is measured, not asserted.
  xpath::EvaluatorOptions options;
  if (view.index != nullptr) {
    obs::ScopedTimer acquire("serve.read.index_acquire_us");
    if (!view.index->Matches(doc)) {
      // The snapshot carried a version that doesn't match its own clone —
      // the publish-with-snapshot invariant broke somewhere upstream.
      obs::IncrementCounter("serve.read.index_stale");
      return Status::Internal("snapshot index version does not match the "
                              "document of subject '" +
                              std::string(subject) + "'");
    }
    options.use_structural_index = true;
    options.index = view.index.get();
  }
  std::vector<xml::NodeId> nodes = xpath::Evaluate(query, doc, options);
  engine::RequestOutcome outcome;
  outcome.selected = nodes.size();
  for (xml::NodeId n : nodes) {
    if (Accessible(doc, n, view.default_sign)) ++outcome.accessible;
  }
  obs::IncrementCounter("requester.nodes_selected", outcome.selected);
  obs::IncrementCounter("requester.nodes_accessible", outcome.accessible);
  if (span.active()) {
    span.AddCount("selected", static_cast<int64_t>(outcome.selected));
    span.AddCount("accessible", static_cast<int64_t>(outcome.accessible));
  }
  // All-or-nothing: grant only when every selected node is accessible (an
  // empty selection leaks nothing and is granted, as in engine::Request).
  if (outcome.accessible == outcome.selected) {
    outcome.granted = true;
    outcome.ids.reserve(nodes.size());
    for (xml::NodeId n : nodes) {
      outcome.ids.push_back(static_cast<engine::UniversalId>(n));
    }
  }
  return outcome;
}

Result<SnapshotPtr> BuildSnapshot(engine::MultiSubjectController& controller,
                                  uint64_t epoch, bool capture_index) {
  obs::ScopedSpan span("serve.snapshot.build");
  obs::ScopedTimer timer("serve.snapshot.build_us");
  const engine::NativeXmlBackend* store = controller.native_store();
  if (store == nullptr) {
    return Status::InvalidArgument("snapshots require a native-XML store");
  }
  const xml::Document& doc = store->document();
  // One index for every view: signs are attributes and never touch the
  // structural version, and Clone() preserves it, so the store's published
  // IndexVersion matches each annotated clone exactly.
  std::shared_ptr<const xpath::IndexVersion> index =
      capture_index ? store->CurrentIndexVersion() : nullptr;
  auto snapshot = std::make_shared<Snapshot>();
  snapshot->epoch = epoch;
  for (const std::string& name : controller.SubjectNames()) {
    const engine::AccessController* ac = controller.subject(name);
    SubjectView view;
    view.default_sign = ac->CurrentDefaultSign();
    const std::string flipped(1, view.default_sign == '-' ? '+' : '-');
    // The subject's annotated document: the shared tree with a `sign`
    // attribute on exactly the alive nodes its bitmap marks — the form the
    // native store itself materializes (paper Sec. 5.2).
    xml::Document annotated = doc.Clone();
    for (engine::UniversalId id : ac->ExportMarkedSigns()) {
      const auto n = static_cast<xml::NodeId>(id);
      if (annotated.IsAlive(n)) annotated.SetAttribute(n, kSignAttr, flipped);
    }
    view.doc = std::make_shared<const xml::Document>(std::move(annotated));
    view.index = index;
    snapshot->subjects.emplace(name, std::move(view));
  }
  return SnapshotPtr(std::move(snapshot));
}

}  // namespace xmlac::serve
