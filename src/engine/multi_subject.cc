#include "engine/multi_subject.h"

#include <utility>
#include <vector>

#include "common/parallel.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xmlac::engine {

namespace {

// A subject's view of the fleet's shared store: evaluation goes to the
// store, while the subject's signs live here as a bitmap plus a default
// sign.  Only the fleet mutates the store, so the mutating calls refuse.
class SubjectBackend final : public Backend {
 public:
  explicit SubjectBackend(Backend* store) : store_(store) {}

  std::string name() const override { return store_->name(); }

  // The fleet loads the store; a subject's load only starts its signs
  // afresh, so the document argument is unused.
  Status Load(const xml::Dtd&, const xml::Document&) override {
    return ResetAllSigns('-');
  }
  void Clear() override { (void)ResetAllSigns('-'); }

  size_t NodeCount() const override { return store_->NodeCount(); }
  size_t IdBound() const override { return store_->IdBound(); }
  bool SupportsParallelEval() const override {
    return store_->SupportsParallelEval();
  }

  Result<std::vector<UniversalId>> EvaluateQuery(
      const xpath::Path& query) override {
    return store_->EvaluateQuery(query);
  }
  Result<std::vector<UniversalId>> EvaluateAnnotationSet(
      const policy::Policy& policy, const std::vector<size_t>& rule_subset,
      policy::CombineOp combine) override {
    return store_->EvaluateAnnotationSet(policy, rule_subset, combine);
  }

  // Ids come from evaluations over the store, so no liveness check: bits of
  // nodes deleted later linger harmlessly (node_bitmap.h).
  Status SetSigns(const std::vector<UniversalId>& ids, char sign) override {
    for (UniversalId id : ids) {
      if (sign == default_sign_) {
        marked_.Unset(id);
      } else {
        marked_.Set(id);
      }
    }
    return Status::OK();
  }
  Status ResetAllSigns(char default_sign) override {
    default_sign_ = default_sign;
    marked_.Clear();
    return Status::OK();
  }
  Result<char> GetSign(UniversalId id) override {
    if (!marked_.Test(id)) return default_sign_;
    return default_sign_ == '-' ? '+' : '-';
  }

  Result<size_t> DeleteWhere(const xpath::Path&) override {
    return Status::Internal("a subject cannot mutate the fleet's store");
  }
  Result<size_t> InsertUnder(const xpath::Path&,
                             const xml::Document&) override {
    return Status::Internal("a subject cannot mutate the fleet's store");
  }

 private:
  Backend* store_;
  NodeBitmap marked_;
  char default_sign_ = '-';
};

std::map<std::string, BatchStats> StatsByName(
    const std::map<std::string, std::unique_ptr<AccessController>,
                   std::less<>>& subjects,
    std::vector<BatchStats> stats) {
  std::map<std::string, BatchStats> out;
  size_t i = 0;
  for (const auto& [name, _] : subjects) out[name] = std::move(stats[i++]);
  return out;
}

}  // namespace

MultiSubjectController::MultiSubjectController(
    BackendFactory factory, const MultiSubjectOptions& options)
    : factory_(std::move(factory)), options_(options) {}

Status MultiSubjectController::Load(std::string_view dtd_text,
                                    std::string_view xml_text) {
  XMLAC_ASSIGN_OR_RETURN(xml::Dtd dtd, xml::ParseDtd(dtd_text));
  XMLAC_ASSIGN_OR_RETURN(xml::Document doc, xml::ParseDocument(xml_text));
  return LoadParsed(dtd, doc);
}

Status MultiSubjectController::LoadParsed(const xml::Dtd& dtd,
                                          const xml::Document& doc) {
  if (!subjects_.empty()) {
    return Status::InvalidArgument(
        "load the document before adding subjects");
  }
  Reset();
  std::unique_ptr<Backend> store = factory_();
  ShardConfig shard;
  shard.enabled = options_.shard_parallel;
  shard.threads = options_.shard_threads;
  store->SetShardConfig(shard);
  XMLAC_RETURN_IF_ERROR(store->Load(dtd, doc));
  dtd_ = std::make_unique<xml::Dtd>(dtd);
  store_ = std::move(store);
  native_ = dynamic_cast<const NativeXmlBackend*>(store_.get());
  // Any bitmaps from a previously loaded document are garbage now.
  rule_cache_.AdvanceEpoch();
  return Status::OK();
}

Result<std::unique_ptr<AccessController>>
MultiSubjectController::NewSubjectController() {
  if (store_ == nullptr) return Status::Internal("no document loaded");
  ControllerOptions copt;
  static_cast<ExecOptions&>(copt) = options_;
  copt.shared_rule_cache =
      options_.enable_rule_cache ? &rule_cache_ : nullptr;
  copt.shared_containment_cache = &containment_cache_;
  auto controller = std::make_unique<AccessController>(
      std::make_unique<SubjectBackend>(store_.get()), copt);
  // Installs the schema; the subject backend ignores the document.
  XMLAC_RETURN_IF_ERROR(controller->LoadParsed(*dtd_, xml::Document()));
  return controller;
}

Status MultiSubjectController::AddSubject(std::string_view subject,
                                          std::string_view policy_text) {
  if (subjects_.find(subject) != subjects_.end()) {
    return Status::AlreadyExists("subject '" + std::string(subject) +
                                 "' already registered");
  }
  XMLAC_ASSIGN_OR_RETURN(std::unique_ptr<AccessController> controller,
                         NewSubjectController());
  XMLAC_RETURN_IF_ERROR(controller->SetPolicy(policy_text));
  subjects_[std::string(subject)] = std::move(controller);
  return Status::OK();
}

Status MultiSubjectController::RemoveSubject(std::string_view subject) {
  auto it = subjects_.find(subject);
  if (it == subjects_.end()) {
    return Status::NotFound("unknown subject '" + std::string(subject) + "'");
  }
  // The subject's cache entries are left behind: nobody promotes them
  // across the next update, so they age out as ordinary misses.
  subjects_.erase(it);
  return Status::OK();
}

std::vector<std::string> MultiSubjectController::SubjectNames() const {
  std::vector<std::string> out;
  out.reserve(subjects_.size());
  for (const auto& [name, _] : subjects_) out.push_back(name);
  return out;
}

AccessController* MultiSubjectController::subject(std::string_view name) {
  auto it = subjects_.find(name);
  return it == subjects_.end() ? nullptr : it->second.get();
}

const xml::Document& MultiSubjectController::document() const {
  static const xml::Document kEmpty;
  return native_ != nullptr ? native_->document() : kEmpty;
}

Result<SubjectSigns> MultiSubjectController::Signs(
    std::string_view subject) const {
  auto it = subjects_.find(subject);
  if (it == subjects_.end()) {
    return Status::NotFound("unknown subject '" + std::string(subject) + "'");
  }
  if (native_ == nullptr) {
    return Status::InvalidArgument("durable sign state needs a native store");
  }
  const xml::Document& doc = native_->document();
  SubjectSigns out;
  out.default_sign = it->second->CurrentDefaultSign();
  for (UniversalId id : it->second->ExportMarkedSigns()) {
    if (doc.IsAlive(static_cast<xml::NodeId>(id))) out.marked.push_back(id);
  }
  return out;
}

Result<RequestOutcome> MultiSubjectController::Query(std::string_view subject,
                                                     std::string_view xpath) {
  auto it = subjects_.find(subject);
  if (it == subjects_.end()) {
    return Status::NotFound("unknown subject '" + std::string(subject) + "'");
  }
  return it->second->Query(xpath);
}

Status MultiSubjectController::ForEachSubject(
    const std::function<Status(size_t, AccessController*)>& fn) {
  std::vector<AccessController*> flat;
  flat.reserve(subjects_.size());
  for (auto& [name, controller] : subjects_) flat.push_back(controller.get());
  std::vector<Status> results(flat.size(), Status::OK());
  // Subjects share the store read-only between mutations, the caches they
  // share are thread-safe, and each controller installs its own obs
  // context, so on a thread-safe store the fan-out is a plain parallel map.
  size_t threads =
      store_->SupportsParallelEval() ? options_.parallel_subjects : 1;
  ParallelFor(flat.size(), threads,
              [&](size_t i) { results[i] = fn(i, flat[i]); });
  for (const Status& s : results) XMLAC_RETURN_IF_ERROR(s);
  return Status::OK();
}

Result<std::map<std::string, BatchStats>> MultiSubjectController::ApplyBatch(
    const std::vector<BatchOp>& ops) {
  return ApplyBatch(ops, nullptr);
}

Result<std::map<std::string, BatchStats>> MultiSubjectController::ApplyBatch(
    const std::vector<BatchOp>& ops, CommitCapture* capture) {
  if (store_ == nullptr) return Status::Internal("no document loaded");
  XMLAC_ASSIGN_OR_RETURN(std::vector<ParsedOp> parsed, ParseBatch(ops));
  const size_t n = subjects_.size();
  const uint64_t pre_version = document().version();
  std::vector<NodeBitmap> pre;
  if (capture != nullptr) {
    pre.reserve(n);
    for (auto& [name, controller] : subjects_) {
      pre.push_back(controller->ExportMarkedBitmap());
    }
  }
  std::vector<BatchStats> stats(n);
  if (!parsed.empty()) {
    // One shared-epoch tick per document change, before any subject
    // starts: every subject snapshots pre-update scopes at epoch-1 and
    // re-annotates at the new epoch (see rule_cache.h).
    if (options_.enable_rule_cache) rule_cache_.AdvanceEpoch();
    std::vector<PendingUpdate> pending(n);
    XMLAC_RETURN_IF_ERROR(ForEachSubject(
        [&](size_t i, AccessController* c) -> Status {
          XMLAC_ASSIGN_OR_RETURN(pending[i], c->PrepareUpdate(parsed));
          return Status::OK();
        }));
    BatchStats mutation;
    XMLAC_RETURN_IF_ERROR(ApplyOps(store_.get(), parsed, &mutation));
    XMLAC_RETURN_IF_ERROR(ForEachSubject(
        [&](size_t i, AccessController* c) -> Status {
          XMLAC_ASSIGN_OR_RETURN(
              stats[i], c->FinishUpdate(std::move(pending[i]), mutation));
          return Status::OK();
        }));
  }
  if (capture != nullptr) {
    capture->master_mutations.clear();
    capture->subjects.clear();
    // Overflow of the bounded journal leaves the mutation list empty;
    // replay re-derives mutations from the ops, so this only degrades
    // inspection.
    (void)document().MutationsSince(pre_version, &capture->master_mutations);
    size_t i = 0;
    for (auto& [name, controller] : subjects_) {
      const NodeBitmap& post = controller->ExportMarkedBitmap();
      SubjectDelta delta;
      post.DifferenceInto(pre[i], &delta.marked);
      pre[i].DifferenceInto(post, &delta.cleared);
      capture->subjects[name] = std::move(delta);
      ++i;
    }
  }
  return StatsByName(subjects_, std::move(stats));
}

void MultiSubjectController::Reset() {
  subjects_.clear();
  native_ = nullptr;
  store_.reset();
  rule_cache_.Clear();
  dtd_.reset();
}

Status MultiSubjectController::RestoreSubject(
    std::string_view subject, std::string_view policy_text, char default_sign,
    const std::vector<UniversalId>& marked) {
  if (subjects_.find(subject) != subjects_.end()) {
    return Status::AlreadyExists("subject '" + std::string(subject) +
                                 "' already registered");
  }
  XMLAC_ASSIGN_OR_RETURN(std::unique_ptr<AccessController> controller,
                         NewSubjectController());
  XMLAC_ASSIGN_OR_RETURN(policy::Policy parsed,
                         policy::ParsePolicy(policy_text));
  XMLAC_RETURN_IF_ERROR(controller->SetPolicyForRecovery(std::move(parsed)));
  XMLAC_RETURN_IF_ERROR(controller->RestoreSigns(default_sign, marked));
  subjects_[std::string(subject)] = std::move(controller);
  return Status::OK();
}

Result<std::map<std::string, BatchStats>> MultiSubjectController::ReplayBatch(
    const std::vector<BatchOp>& ops,
    const std::map<std::string, SubjectDelta>& deltas) {
  if (store_ == nullptr) return Status::Internal("no document loaded");
  XMLAC_ASSIGN_OR_RETURN(std::vector<ParsedOp> parsed, ParseBatch(ops));
  // Same epoch tick as the original ApplyBatch, so post-recovery batches
  // run at the epochs the original run would have.
  if (options_.enable_rule_cache) rule_cache_.AdvanceEpoch();
  // The restored arena is byte-identical to the pre-batch original
  // (tombstones included), so the same ops select the same nodes and
  // allocate the same NodeIds the original run did.
  BatchStats mutation;
  mutation.ops = parsed.size();
  XMLAC_RETURN_IF_ERROR(ApplyOps(store_.get(), parsed, &mutation));
  static const SubjectDelta kNoDelta;
  std::vector<BatchStats> stats(subjects_.size(), mutation);
  size_t i = 0;
  for (auto& [name, controller] : subjects_) {
    auto it = deltas.find(name);
    const SubjectDelta& d = it == deltas.end() ? kNoDelta : it->second;
    XMLAC_ASSIGN_OR_RETURN(stats[i].reannotation,
                           controller->ReplaySignDelta(d.marked, d.cleared));
    ++i;
  }
  return StatsByName(subjects_, std::move(stats));
}

std::string DiffFleetState(const MultiSubjectController& a,
                           const MultiSubjectController& b) {
  if (a.native_store() == nullptr || b.native_store() == nullptr) {
    return "fleet state comparison needs native stores";
  }
  if (a.document().version() != b.document().version()) {
    return "document versions differ: " +
           std::to_string(a.document().version()) + " vs " +
           std::to_string(b.document().version());
  }
  if (xml::Serialize(a.document()) != xml::Serialize(b.document())) {
    return "documents differ";
  }
  if (a.SubjectNames() != b.SubjectNames()) return "subject sets differ";
  for (const std::string& name : a.SubjectNames()) {
    Result<SubjectSigns> sa = a.Signs(name);
    Result<SubjectSigns> sb = b.Signs(name);
    if (!sa.ok() || !sb.ok()) return "subject " + name + ": no sign state";
    if (sa->default_sign != sb->default_sign) {
      return "subject " + name + ": default signs differ";
    }
    if (sa->marked != sb->marked) {
      return "subject " + name + ": marked ids differ (" +
             std::to_string(sa->marked.size()) + " vs " +
             std::to_string(sb->marked.size()) + ")";
    }
  }
  return "";
}

}  // namespace xmlac::engine
