#include "engine/multi_subject.h"

#include <utility>
#include <vector>

#include "common/parallel.h"
#include "xml/parser.h"

namespace xmlac::engine {

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
  dtd_ = std::make_unique<xml::Dtd>(dtd);
  XMLAC_RETURN_IF_ERROR(master_.Load(dtd, doc));
  // Any bitmaps from a previously loaded document are garbage now.
  rule_cache_.Clear();
  rule_cache_.AdvanceEpoch();
  loaded_ = true;
  return Status::OK();
}

Result<std::unique_ptr<AccessController>>
MultiSubjectController::NewSubjectController() {
  ControllerOptions copt;
  static_cast<ExecOptions&>(copt) = options_;
  copt.shared_rule_cache =
      options_.enable_rule_cache ? &rule_cache_ : nullptr;
  copt.shared_containment_cache = &containment_cache_;
  auto controller = std::make_unique<AccessController>(factory_(), copt);
  XMLAC_RETURN_IF_ERROR(controller->LoadParsed(*dtd_, master_.document()));
  return controller;
}

Status MultiSubjectController::AddSubject(std::string_view subject,
                                          std::string_view policy_text) {
  if (!loaded_) return Status::Internal("no document loaded");
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

Result<RequestOutcome> MultiSubjectController::Query(std::string_view subject,
                                                     std::string_view xpath) {
  auto it = subjects_.find(subject);
  if (it == subjects_.end()) {
    return Status::NotFound("unknown subject '" + std::string(subject) + "'");
  }
  return it->second->Query(xpath);
}

Result<std::map<std::string, BatchStats>> MultiSubjectController::FanOut(
    const std::function<Result<BatchStats>(const std::string&,
                                           AccessController*)>& fn) {
  // One shared-epoch tick per logical document change, before any subject
  // starts: every replica then snapshots pre-update scopes at epoch-1 and
  // re-annotates at the new epoch (see rule_cache.h).
  if (options_.enable_rule_cache) rule_cache_.AdvanceEpoch();
  std::vector<std::pair<const std::string*, AccessController*>> flat;
  flat.reserve(subjects_.size());
  for (auto& [name, controller] : subjects_) {
    flat.emplace_back(&name, controller.get());
  }
  std::vector<Result<BatchStats>> results(flat.size(), BatchStats{});
  // Replicas are independent stores; the containment and rule caches they
  // share are thread-safe, and each controller installs its own obs
  // context, so the fan-out is a plain parallel map.
  ParallelFor(flat.size(), options_.parallel_subjects, [&](size_t i) {
    results[i] = fn(*flat[i].first, flat[i].second);
  });
  std::map<std::string, BatchStats> out;
  for (size_t i = 0; i < flat.size(); ++i) {
    if (!results[i].ok()) return results[i].status();
    out[*flat[i].first] = std::move(*results[i]);
  }
  return out;
}

Result<std::vector<ParsedOp>> MultiSubjectController::ApplyToMaster(
    const std::vector<BatchOp>& ops) {
  if (!loaded_) return Status::Internal("no document loaded");
  XMLAC_ASSIGN_OR_RETURN(std::vector<ParsedOp> parsed, ParseBatch(ops));
  BatchStats ignored;
  XMLAC_RETURN_IF_ERROR(ApplyOps(&master_, parsed, &ignored));
  return parsed;
}

Result<std::map<std::string, BatchStats>> MultiSubjectController::ApplyBatch(
    const std::vector<BatchOp>& ops) {
  XMLAC_ASSIGN_OR_RETURN(std::vector<ParsedOp> parsed, ApplyToMaster(ops));
  return FanOut([&parsed](const std::string&, AccessController* c) {
    return c->ApplyBatch(parsed);
  });
}

Result<std::map<std::string, BatchStats>> MultiSubjectController::ApplyBatch(
    const std::vector<BatchOp>& ops, CommitCapture* capture) {
  if (capture == nullptr) return ApplyBatch(ops);
  uint64_t pre_version = master_.document().version();
  // Pre-batch sign bitmaps, in subjects_ (map) iteration order.
  std::vector<NodeBitmap> pre;
  pre.reserve(subjects_.size());
  for (auto& [name, controller] : subjects_) {
    (void)name;
    pre.push_back(controller->ExportMarkedBitmap());
  }
  auto result = ApplyBatch(ops);
  if (!result.ok()) return result;
  capture->master_mutations.clear();
  capture->subjects.clear();
  // Overflow of the bounded journal leaves the mutation list empty; replay
  // re-derives mutations from the ops, so this only degrades inspection.
  (void)master_.document().MutationsSince(pre_version,
                                          &capture->master_mutations);
  size_t i = 0;
  for (auto& [name, controller] : subjects_) {
    NodeBitmap post = controller->ExportMarkedBitmap();
    SubjectDelta delta;
    post.DifferenceInto(pre[i], &delta.marked);
    pre[i].DifferenceInto(post, &delta.cleared);
    capture->subjects[name] = std::move(delta);
    ++i;
  }
  return result;
}

void MultiSubjectController::Reset() {
  subjects_.clear();
  master_.Clear();
  rule_cache_.Clear();
  dtd_.reset();
  loaded_ = false;
}

Status MultiSubjectController::RestoreSubject(
    std::string_view subject, std::string_view policy_text, char default_sign,
    const std::vector<UniversalId>& marked) {
  if (!loaded_) return Status::Internal("no document loaded");
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
  XMLAC_ASSIGN_OR_RETURN(std::vector<ParsedOp> parsed, ApplyToMaster(ops));
  static const SubjectDelta kNoDelta;
  return FanOut([&parsed, &deltas](const std::string& name,
                                   AccessController* c) {
    auto it = deltas.find(name);
    const SubjectDelta& d = it == deltas.end() ? kNoDelta : it->second;
    return c->ReplayBatchDecisions(parsed, d.marked, d.cleared);
  });
}

void MultiSubjectController::RestoreStructuralLabels(
    const std::vector<xpath::IntervalLabel>& labels) {
  master_.RestoreStructuralLabels(labels);
  for (auto& [name, controller] : subjects_) {
    (void)name;
    if (auto* native =
            dynamic_cast<NativeXmlBackend*>(controller->backend())) {
      native->RestoreStructuralLabels(labels);
    }
  }
}

}  // namespace xmlac::engine
