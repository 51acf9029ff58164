#include "serve/snapshot.h"

#include <map>
#include <optional>
#include <utility>
#include <vector>

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

// Retired snapshot documents, keyed by subject: at most one per subject
// (the newest), plus the surplus waiting for FreeSurplus.  Shared by the
// builder and every deleter it hands out, so a document released after the
// builder is gone still finds a (closed) pool.
class DocumentPool {
 public:
  struct Retired {
    std::unique_ptr<xml::Document> doc;
    // The sign bitmap the document's `sign` attributes were written from.
    engine::NodeBitmap marked;
    char default_sign = '-';
  };

  // Any thread.  Queues `retired`, or frees it right here when the pool is
  // closed or the document belongs to an older store.
  void Return(const std::string& subject, Retired retired) {
    std::unique_lock<std::mutex> lock(mu_);
    if (closed_ || retired.doc->lineage() != lineage_) {
      lock.unlock();
      return;  // `retired` is destroyed on this thread
    }
    auto [it, inserted] = pooled_.try_emplace(subject);
    if (!inserted) {
      // Keep the newer document; the other waits for FreeSurplus.
      if (it->second.doc->version() > retired.doc->version()) {
        std::swap(it->second, retired);
      }
      surplus_.push_back(std::move(it->second.doc));
    }
    it->second = std::move(retired);
  }

  std::optional<Retired> Take(std::string_view subject) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = pooled_.find(subject);
    if (it == pooled_.end()) return std::nullopt;
    Retired out = std::move(it->second);
    pooled_.erase(it);
    return out;
  }

  void Discard(std::unique_ptr<xml::Document> doc) {
    std::lock_guard<std::mutex> lock(mu_);
    surplus_.push_back(std::move(doc));
  }

  // Documents of any other lineage are freed on return from now on.
  void SetLineage(uint64_t lineage) {
    std::lock_guard<std::mutex> lock(mu_);
    lineage_ = lineage;
  }

  std::vector<std::unique_ptr<xml::Document>> TakeSurplus() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(surplus_);
  }

  void Close() {
    std::map<std::string, Retired, std::less<>> pooled;
    std::vector<std::unique_ptr<xml::Document>> surplus;
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
      pooled.swap(pooled_);
      surplus.swap(surplus_);
    }
  }

 private:
  std::mutex mu_;
  bool closed_ = false;
  uint64_t lineage_ = 0;
  std::map<std::string, Retired, std::less<>> pooled_;
  std::vector<std::unique_ptr<xml::Document>> surplus_;
};

namespace {

// A view document's deleter: hands the document back to the pool together
// with the sign state it was annotated from.  The document was allocated
// non-const by BuildViews, so rewriting it after every owner is gone is
// well-defined.
struct ReturnToPool {
  std::shared_ptr<DocumentPool> pool;
  std::string subject;
  engine::NodeBitmap marked;
  char default_sign;

  void operator()(const xml::Document* doc) {
    std::unique_ptr<xml::Document> owned(const_cast<xml::Document*>(doc));
    pool->Return(subject, {std::move(owned), std::move(marked), default_sign});
  }
};

// Rewrites `doc`'s `sign` attributes from `old_marked` to `new_marked` on
// alive nodes: a node newly marked gets the non-default sign, a node no
// longer marked gets back whatever `store` has (nothing, in a fleet).
void RewriteSigns(const xml::Document& store,
                  const engine::NodeBitmap& old_marked,
                  const engine::NodeBitmap& new_marked, char default_sign,
                  xml::Document* doc) {
  const std::string flipped(1, default_sign == '-' ? '+' : '-');
  std::vector<engine::UniversalId> ids;
  new_marked.DifferenceInto(old_marked, &ids);
  for (engine::UniversalId id : ids) {
    const auto n = static_cast<xml::NodeId>(id);
    if (doc->IsAlive(n)) doc->SetAttribute(n, kSignAttr, flipped);
  }
  ids.clear();
  old_marked.DifferenceInto(new_marked, &ids);
  for (engine::UniversalId id : ids) {
    const auto n = static_cast<xml::NodeId>(id);
    if (!doc->IsAlive(n)) continue;
    if (auto kept = store.GetAttribute(n, kSignAttr)) {
      doc->SetAttribute(n, kSignAttr, *kept);
    } else {
      doc->RemoveAttribute(n, kSignAttr);
    }
  }
}

// Why `retired` cannot be caught up to `store` for a subject whose default
// sign is now `default_sign` (a clone reason), or null when it can; then
// `*delta` holds the store's journal since the document's version.
const char* CloneReason(const DocumentPool::Retired& retired,
                        const xml::Document& store, char default_sign,
                        std::vector<xml::Mutation>* delta) {
  if (retired.doc->lineage() != store.lineage()) return "lineage";
  if (retired.default_sign != default_sign) return "default_sign";
  delta->clear();
  if (!store.MutationsSince(retired.doc->version(), delta)) {
    return "journal_window";
  }
  return nullptr;
}

// The one build path.  With a pool, each subject's document is its pooled
// retired one caught up to the store, or a fresh clone when none can be
// reused; without, always a fresh clone.  Either way the signs are then
// rewritten by diff — from an empty bitmap for a clone.
Result<SnapshotPtr> BuildViews(engine::MultiSubjectController& controller,
                               uint64_t epoch, bool capture_index,
                               const std::shared_ptr<DocumentPool>& pool,
                               bool skip_deletes) {
  obs::ScopedSpan span("serve.snapshot.build");
  obs::ScopedTimer timer("serve.snapshot.build_us");
  const engine::NativeXmlBackend* native = controller.native_store();
  if (native == nullptr) {
    return Status::InvalidArgument("snapshots require a native-XML store");
  }
  const xml::Document& store = native->document();
  // One index for every view: signs are attributes and never touch the
  // structural version, and both Clone() and CatchUpFrom() reproduce the
  // store's version and size, so its published IndexVersion matches each
  // annotated document exactly.
  std::shared_ptr<const xpath::IndexVersion> index =
      capture_index ? native->CurrentIndexVersion() : nullptr;
  if (pool != nullptr) pool->SetLineage(store.lineage());
  auto snapshot = std::make_shared<Snapshot>();
  snapshot->epoch = epoch;
  std::vector<xml::Mutation> delta;
  for (const std::string& name : controller.SubjectNames()) {
    const engine::AccessController* ac = controller.subject(name);
    const engine::NodeBitmap& marked = ac->ExportMarkedBitmap();
    SubjectView view;
    view.default_sign = ac->CurrentDefaultSign();
    std::unique_ptr<xml::Document> doc;
    engine::NodeBitmap annotated_from;
    const char* clone_reason = pool != nullptr ? "pinned" : nullptr;
    std::optional<DocumentPool::Retired> retired;
    if (pool != nullptr) retired = pool->Take(name);
    if (retired.has_value()) {
      clone_reason = CloneReason(*retired, store, view.default_sign, &delta);
      if (clone_reason != nullptr) {
        pool->Discard(std::move(retired->doc));
      } else {
        if (skip_deletes) {
          std::erase_if(delta, [](const xml::Mutation& m) {
            return m.kind == xml::Mutation::Kind::kDelete;
          });
        }
        retired->doc->CatchUpFrom(store, delta);
        if (retired->doc->version() != store.version() ||
            retired->doc->size() != store.size()) {
          // Never published and never quietly replaced by a clone: the
          // catch-up contract broke.
          obs::IncrementCounter("serve.snapshot.recycle_mismatch");
          pool->Discard(std::move(retired->doc));
          return Status::Internal("caught-up snapshot document of subject '" +
                                  name + "' does not match the store");
        }
        doc = std::move(retired->doc);
        annotated_from = std::move(retired->marked);
        obs::IncrementCounter("serve.snapshot.docs_recycled");
      }
    }
    if (doc == nullptr) {
      doc = std::make_unique<xml::Document>(store.Clone());
      obs::IncrementCounter("serve.snapshot.docs_cloned");
      if (clone_reason != nullptr) {
        obs::IncrementCounter(std::string("serve.snapshot.docs_cloned.") +
                              clone_reason);
      }
    }
    // The subject's annotated document: the shared tree with a `sign`
    // attribute on exactly the alive nodes its bitmap marks — the form the
    // native store itself materializes (paper Sec. 5.2).
    RewriteSigns(store, annotated_from, marked, view.default_sign, doc.get());
    if (pool != nullptr) {
      view.doc = std::shared_ptr<const xml::Document>(
          doc.release(),
          ReturnToPool{pool, name, marked, view.default_sign});
    } else {
      view.doc = std::move(doc);
    }
    view.index = index;
    snapshot->subjects.emplace(name, std::move(view));
  }
  return SnapshotPtr(std::move(snapshot));
}

}  // namespace

Result<SnapshotPtr> BuildSnapshot(engine::MultiSubjectController& controller,
                                  uint64_t epoch, bool capture_index) {
  return BuildViews(controller, epoch, capture_index, /*pool=*/nullptr,
                    /*skip_deletes=*/false);
}

SnapshotBuilder::SnapshotBuilder() : pool_(std::make_shared<DocumentPool>()) {}

SnapshotBuilder::~SnapshotBuilder() { pool_->Close(); }

Result<SnapshotPtr> SnapshotBuilder::Build(
    engine::MultiSubjectController& controller, uint64_t epoch,
    bool capture_index) {
  return BuildViews(controller, epoch, capture_index, pool_,
                    inject_skip_delete_);
}

void SnapshotBuilder::FreeSurplus() {
  pool_->TakeSurplus();  // freed here, outside the pool's lock
}

}  // namespace xmlac::serve
