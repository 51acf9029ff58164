#include "testing/diff.h"

#include <algorithm>
#include <set>

#include "engine/access_controller.h"
#include "engine/native_backend.h"
#include "engine/relational_backend.h"
#include "testing/oracle.h"
#include "xml/parser.h"
#include "xpath/containment.h"
#include "xpath/parser.h"
#include "xpath/structural_eval.h"
#include "xpath/structural_index.h"

namespace xmlac::testing {
namespace {

using engine::AccessController;
using engine::UniversalId;
using xml::NodeId;

std::string Describe(BackendKind kind, bool optimized,
                     const DiffOptions& options) {
  std::string out = BackendName(kind);
  out += optimized ? "/opt" : "/raw";
  out += options.rule_cache ? "/cache" : "/nocache";
  out += options.structural_accel ? "/structural" : "/naive";
  out += options.shard_parallel ? "/shard" : "/serial";
  return out;
}

// The engine-side controller configuration under test: the rule cache per
// DiffOptions, and the stale-cache fault when that is the injected bug.
engine::ControllerOptions EngineOptions(bool optimize,
                                        const DiffOptions& options) {
  engine::ControllerOptions out;
  out.optimize_policies = optimize;
  out.enable_rule_cache = options.rule_cache;
  out.shard_parallel = options.shard_parallel;
  out.inject_stale_cache = options.bug == InjectedBug::kStaleCache;
  return out;
}

// Oracle-side Fig. 5 annotation set: the CombineOp over the naive rule
// scopes.
std::vector<NodeId> OracleAnnotationSet(const policy::Policy& policy,
                                        const xml::Document& doc,
                                        policy::CombineOp combine) {
  std::set<NodeId> a;
  std::set<NodeId> d;
  for (const policy::Rule& rule : policy.rules()) {
    auto& target = rule.effect == policy::Effect::kAllow ? a : d;
    for (NodeId id : OracleEval(rule.resource, doc)) target.insert(id);
  }
  std::vector<NodeId> out;
  switch (combine) {
    case policy::CombineOp::kGrants:
      out.assign(a.begin(), a.end());
      break;
    case policy::CombineOp::kDenies:
      out.assign(d.begin(), d.end());
      break;
    case policy::CombineOp::kGrantsExceptDenies:
      for (NodeId id : a) {
        if (d.count(id) == 0) out.push_back(id);
      }
      break;
    case policy::CombineOp::kDeniesExceptGrants:
      for (NodeId id : d) {
        if (a.count(id) == 0) out.push_back(id);
      }
      break;
  }
  return out;
}

// Treats kAccessDenied as a normal "denied" outcome; anything else
// non-OK is a skip (nullopt granted).
struct EngineOutcome {
  bool comparable = false;
  bool granted = false;
  std::vector<UniversalId> ids;
};

EngineOutcome RunQuery(AccessController& ac, const xpath::Path& query) {
  EngineOutcome out;
  auto r = ac.Query(xpath::ToString(query));
  if (r.ok()) {
    out.comparable = true;
    out.granted = true;
    out.ids = r->ids;
  } else if (r.status().code() == StatusCode::kAccessDenied) {
    out.comparable = true;
    out.granted = false;
  }
  return out;
}

// Loads + sets policy; "" on success, "skip" on any setup problem (the
// caller passes the instance through as non-failing).
bool Setup(AccessController& ac, const Instance& instance,
           const policy::Policy& engine_policy) {
  if (!ac.LoadParsed(instance.dtd, instance.doc).ok()) return false;
  return ac.SetPolicyParsed(engine_policy).ok();
}

std::string IdList(const std::vector<UniversalId>& ids) {
  std::string out = "[";
  for (size_t i = 0; i < ids.size() && i < 12; ++i) {
    if (i > 0) out += ",";
    out += std::to_string(ids[i]);
  }
  if (ids.size() > 12) out += ",...";
  out += "]";
  return out;
}

// Maintained-vs-rebuilt id directory of a relational backend: after every
// annotation or update step, the directory the backend maintains must equal
// one rebuilt from a catalog scan.  "" for the native backend (no
// directory).
std::string CheckDirectory(engine::Backend* backend, const std::string& where) {
  auto* relational = dynamic_cast<engine::RelationalBackend*>(backend);
  if (relational == nullptr) return "";
  Status st = relational->VerifyDirectory();
  return st.ok() ? "" : "directory[" + where + "]: " + st.ToString();
}

// The shard config of the checks that build their own backend.  The
// sharded side forces the native store's structural-eval and labeling
// fan-outs (min_work = 1): fuzz instances are far below every site's
// default threshold, so without it the /shard side would run the serial
// plan and compare serial against serial.  Relational backends ignore it.
ShardConfig HarnessShardConfig(const DiffOptions& options) {
  ShardConfig shard;
  shard.enabled = options.shard_parallel;
  shard.min_work = 1;
  return shard;
}

std::vector<UniversalId> Widen(const std::vector<NodeId>& ids) {
  std::vector<UniversalId> out;
  out.reserve(ids.size());
  for (NodeId id : ids) out.push_back(static_cast<UniversalId>(id));
  return out;
}

// Maintained-vs-rebuilt index versions: drive the instance's updates
// through a native backend (whose writer publishes incrementally
// maintained IndexVersions), then evaluate probe queries three ways —
// through the maintained version, through a from-scratch rebuild of the
// final document, and through the naive evaluator.  All three must agree.
// This is the direct check on incremental version maintenance (journal
// replay, gap allocation, tombstone filtering, value-bucket carry-forward)
// that the sign-level checks above only exercise indirectly.
std::string CheckIndexVersions(const Instance& instance,
                               const DiffOptions& options) {
  engine::NativeXmlBackend backend;
  backend.set_use_structural_index(true);
  backend.SetShardConfig(HarnessShardConfig(options));
  if (!backend.Load(instance.dtd, instance.doc).ok()) return "";
  for (const engine::BatchOp& op : instance.updates) {
    auto path = xpath::ParsePath(op.xpath);
    if (!path.ok()) return "";
    if (op.kind == engine::BatchOp::Kind::kDelete) {
      if (!backend.DeleteWhere(*path).ok()) return "";
    } else {
      auto fragment = xml::ParseDocument(op.fragment_xml);
      if (!fragment.ok() || !backend.InsertUnder(*path, *fragment).ok()) {
        return "";
      }
    }
  }
  const xml::Document& doc = backend.document();
  std::shared_ptr<const xpath::IndexVersion> maintained =
      backend.CurrentIndexVersion();
  if (maintained == nullptr || !maintained->Matches(doc)) {
    return "index-version: maintained version missing or stale after " +
           std::to_string(instance.updates.size()) + " updates";
  }
  // An independent publisher over the same document: its first Publish()
  // has no parent version, so it must rebuild from scratch.
  xpath::StructuralIndex fresh(&doc);
  fresh.Publish();
  const xpath::IndexVersion* rebuilt = fresh.current();
  if (rebuilt == nullptr || fresh.builds() != 1) {
    return "index-version: fresh publisher did not full-rebuild";
  }
  Random rng(instance.seed ^ 0xe90c4f00dULL);
  RandomPathGenerator paths(doc, rng.Next());
  for (int i = 0; i < options.probe_queries; ++i) {
    xpath::Path q = paths.Next();
    std::vector<NodeId> via_maintained =
        xpath::EvaluateStructural(q, doc, *maintained);
    std::vector<NodeId> via_rebuilt =
        xpath::EvaluateStructural(q, doc, *rebuilt);
    if (via_maintained != via_rebuilt) {
      return "index-version: " + xpath::ToString(q) + ": maintained " +
             IdList(Widen(via_maintained)) + " vs rebuilt " +
             IdList(Widen(via_rebuilt));
    }
    std::vector<NodeId> naive = xpath::Evaluate(q, doc);
    if (via_maintained != naive) {
      return "index-version: " + xpath::ToString(q) + ": structural " +
             IdList(Widen(via_maintained)) + " vs naive " +
             IdList(Widen(naive));
    }
  }
  return "";
}

}  // namespace

const char* BackendName(BackendKind kind) {
  switch (kind) {
    case BackendKind::kNative:
      return "native";
    case BackendKind::kRow:
      return "row";
    default:
      return "column";
  }
}

std::unique_ptr<engine::Backend> MakeBackend(BackendKind kind,
                                             bool structural_accel) {
  if (kind == BackendKind::kNative) {
    auto backend = std::make_unique<engine::NativeXmlBackend>();
    backend->set_use_structural_index(structural_accel);
    return backend;
  }
  engine::RelationalOptions options;
  options.storage = kind == BackendKind::kRow ? reldb::StorageKind::kRowStore
                                              : reldb::StorageKind::kColumnStore;
  options.interval_columns = structural_accel;
  return std::make_unique<engine::RelationalBackend>(options);
}

policy::Policy ApplyBug(policy::Policy policy, InjectedBug bug) {
  switch (bug) {
    case InjectedBug::kNone:
      break;
    case InjectedBug::kFlipCr:
      policy.set_conflict_resolution(
          policy.conflict_resolution() ==
                  policy::ConflictResolution::kAllowOverrides
              ? policy::ConflictResolution::kDenyOverrides
              : policy::ConflictResolution::kAllowOverrides);
      break;
    case InjectedBug::kFlipDs:
      policy.set_default_semantics(
          policy.default_semantics() == policy::DefaultSemantics::kAllow
              ? policy::DefaultSemantics::kDeny
              : policy::DefaultSemantics::kAllow);
      break;
    case InjectedBug::kStaleCache:
      // Engine-side too, but in the controllers, not the policy (see
      // EngineOptions above).
      break;
    case InjectedBug::kRecycleSkipDelete:
      break;  // in the serving layer's snapshot build (serve_fuzz.h)
  }
  return policy;
}

std::string CheckAnnotation(const Instance& instance,
                            const DiffOptions& options) {
  std::map<NodeId, char> oracle_signs = OracleSigns(instance.policy,
                                                    instance.doc);
  policy::Policy engine_policy = ApplyBug(instance.policy, options.bug);

  std::vector<size_t> all_rules(engine_policy.size());
  for (size_t i = 0; i < all_rules.size(); ++i) all_rules[i] = i;

  for (BackendKind kind : options.backends) {
    // Fig. 5 annotation sets on a bare backend.  The sets are pure A/D
    // combinations, independent of (ds, cr), so the injected bug does not
    // (and must not) change them.
    {
      std::unique_ptr<engine::Backend> backend =
          MakeBackend(kind, options.structural_accel);
      backend->SetShardConfig(HarnessShardConfig(options));
      if (!backend->Load(instance.dtd, instance.doc).ok()) return "";
      std::string dir = CheckDirectory(backend.get(), BackendName(kind));
      if (!dir.empty()) return dir;
      for (policy::CombineOp combine :
           {policy::CombineOp::kGrants, policy::CombineOp::kGrantsExceptDenies,
            policy::CombineOp::kDenies,
            policy::CombineOp::kDeniesExceptGrants}) {
        auto engine_set =
            backend->EvaluateAnnotationSet(engine_policy, all_rules, combine);
        if (!engine_set.ok()) {
          if (engine_set.status().code() == StatusCode::kUnsupported) continue;
          return "";
        }
        std::vector<UniversalId> oracle_set = Widen(
            OracleAnnotationSet(instance.policy, instance.doc, combine));
        if (*engine_set != oracle_set) {
          return std::string("annotation-set[") + BackendName(kind) +
                 ", combine " + std::to_string(static_cast<int>(combine)) +
                 "]: engine " + IdList(*engine_set) + " vs oracle " +
                 IdList(oracle_set);
        }
      }
    }

    for (bool optimize : {false, true}) {
      AccessController ac(MakeBackend(kind, options.structural_accel),
                          EngineOptions(optimize, options));
      if (!Setup(ac, instance, engine_policy)) continue;
      std::string dir =
          CheckDirectory(ac.backend(), Describe(kind, optimize, options));
      if (!dir.empty()) return dir;

      // Table 2 signs, node by node.  Every live element of the document
      // has a sign on every backend, so a failed lookup is a mismatch.
      for (NodeId id : instance.doc.AllElements()) {
        auto sign = ac.backend()->GetSign(static_cast<UniversalId>(id));
        if (!sign.ok()) {
          return "annotation[" + Describe(kind, optimize, options) +
                 "]: no sign at " + instance.doc.PathOf(id) + " (node " +
                 std::to_string(id) + "): " + sign.status().ToString();
        }
        char want = oracle_signs.at(id);
        if (*sign != want) {
          return "annotation[" + Describe(kind, optimize, options) +
                 "]: sign mismatch at " + instance.doc.PathOf(id) + " (node " +
                 std::to_string(id) + "): engine '" + *sign + "', oracle '" +
                 want + "'";
        }
      }

      // All-or-nothing request outcomes on random probes.
      Random rng(instance.seed ^ 0x5eedf00dULL);
      RandomPathGenerator paths(instance.doc, rng.Next());
      for (int i = 0; i < options.probe_queries; ++i) {
        xpath::Path q = paths.Next();
        EngineOutcome engine_out = RunQuery(ac, q);
        if (!engine_out.comparable) continue;  // translator bailout
        OracleOutcome oracle_out =
            OracleRequest(instance.policy, instance.doc, q);
        if (engine_out.granted != oracle_out.granted) {
          return "request[" + Describe(kind, optimize, options) + "]: " +
                 xpath::ToString(q) + ": engine " +
                 (engine_out.granted ? "grants" : "denies") + ", oracle " +
                 (oracle_out.granted ? "grants" : "denies");
        }
        if (engine_out.granted) {
          std::vector<UniversalId> oracle_ids =
              Widen(OracleEval(q, instance.doc));
          if (engine_out.ids != oracle_ids) {
            return "request[" + Describe(kind, optimize, options) + "]: " +
                   xpath::ToString(q) + ": engine selects " +
                   IdList(engine_out.ids) + ", oracle " + IdList(oracle_ids);
          }
        }
      }
    }

    // Warm-cache replay: two controllers over the same document sharing one
    // rule cache.  The first (cold) subject computes and installs the
    // bitmaps; the second (warm) is annotated from them without evaluating a
    // single rule path — both must match the oracle sign for sign.
    if (options.rule_cache) {
      engine::RuleScopeCache shared;
      engine::ControllerOptions copt = EngineOptions(true, options);
      copt.shared_rule_cache = &shared;
      AccessController cold(MakeBackend(kind, options.structural_accel), copt);
      AccessController warm(MakeBackend(kind, options.structural_accel), copt);
      if (Setup(cold, instance, engine_policy) &&
          Setup(warm, instance, engine_policy)) {
        const std::string where =
            std::string(BackendName(kind)) + "/shared-cache";
        std::string dir = CheckDirectory(cold.backend(), where + "/cold");
        if (dir.empty()) dir = CheckDirectory(warm.backend(), where + "/warm");
        if (!dir.empty()) return dir;
        for (NodeId id : instance.doc.AllElements()) {
          auto sc = cold.backend()->GetSign(static_cast<UniversalId>(id));
          auto sw = warm.backend()->GetSign(static_cast<UniversalId>(id));
          if (!sc.ok() || !sw.ok()) {
            return "annotation[" + where + "]: no sign at " +
                   instance.doc.PathOf(id) + " (node " + std::to_string(id) +
                   "): cold " + sc.status().ToString() + ", warm " +
                   sw.status().ToString();
          }
          char want = oracle_signs.at(id);
          if (*sc != want || *sw != want) {
            return std::string("annotation[") + BackendName(kind) +
                   "/shared-cache]: sign mismatch at " +
                   instance.doc.PathOf(id) + " (node " + std::to_string(id) +
                   "): cold '" + *sc + "', warm '" + *sw + "', oracle '" +
                   want + "'";
          }
        }
      }
    }
  }
  return "";
}

std::string CheckReannotation(const Instance& instance,
                              const DiffOptions& options) {
  if (instance.updates.empty()) return "";
  policy::Policy engine_policy = ApplyBug(instance.policy, options.bug);

  // The oracle defines re-annotation after an update as full re-annotation
  // of the post-update document, from scratch.
  xml::Document oracle_doc = instance.doc.Clone();
  for (const engine::BatchOp& op : instance.updates) {
    if (!OracleApply(oracle_doc, op).ok()) return "";
  }
  std::map<NodeId, char> oracle_signs = OracleSigns(instance.policy,
                                                    oracle_doc);
  size_t oracle_accessible = 0;
  for (const auto& [id, sign] : oracle_signs) {
    if (sign == '+') ++oracle_accessible;
  }

  auto star = xpath::ParsePath("//*");
  if (!star.ok()) return "";

  for (BackendKind kind : options.backends) {
    // `partial` and `batch` route updates through the controller, so they
    // exercise the trigger-driven cache maintenance (and the kStaleCache
    // fault).  `full` mutates the backend directly and re-annotates from
    // scratch at a fresh epoch, so it stays a correct reference either way.
    engine::ControllerOptions copt = EngineOptions(true, options);
    AccessController partial(MakeBackend(kind, options.structural_accel), copt);
    AccessController full(MakeBackend(kind, options.structural_accel), copt);
    AccessController batch(MakeBackend(kind, options.structural_accel), copt);
    if (!Setup(partial, instance, engine_policy) ||
        !Setup(full, instance, engine_policy) ||
        !Setup(batch, instance, engine_policy)) {
      continue;
    }

    bool skip = false;
    for (const engine::BatchOp& op : instance.updates) {
      // Trigger-based partial re-annotation, one op at a time.
      auto r = op.kind == engine::BatchOp::Kind::kDelete
                   ? partial.Update(op.xpath)
                   : partial.Insert(op.xpath, op.fragment_xml);
      if (!r.ok()) {
        skip = true;
        break;
      }
      // Reference: raw backend mutation + full re-annotation from scratch.
      auto path = xpath::ParsePath(op.xpath);
      if (!path.ok()) {
        skip = true;
        break;
      }
      if (op.kind == engine::BatchOp::Kind::kDelete) {
        if (!full.backend()->DeleteWhere(*path).ok()) {
          skip = true;
          break;
        }
      } else {
        auto fragment = xml::ParseDocument(op.fragment_xml);
        if (!fragment.ok() ||
            !full.backend()->InsertUnder(*path, *fragment).ok()) {
          skip = true;
          break;
        }
      }
      if (!full.ReannotateFull().ok()) {
        skip = true;
        break;
      }
      std::string dir = CheckDirectory(
          partial.backend(), std::string(BackendName(kind)) + "/partial");
      if (dir.empty()) {
        dir = CheckDirectory(full.backend(),
                             std::string(BackendName(kind)) + "/full");
      }
      if (!dir.empty()) return dir;
    }
    if (skip) continue;
    if (!batch.ApplyBatch(instance.updates).ok()) continue;
    std::string dir = CheckDirectory(
        batch.backend(), std::string(BackendName(kind)) + "/batch");
    if (!dir.empty()) return dir;

    // Same backend kind assigns fresh ids identically, so the three
    // controllers are comparable id by id.
    auto ids = partial.backend()->EvaluateQuery(*star);
    if (!ids.ok()) continue;
    for (UniversalId id : *ids) {
      auto sp = partial.backend()->GetSign(id);
      auto sf = full.backend()->GetSign(id);
      auto sb = batch.backend()->GetSign(id);
      if (!sp.ok() || !sf.ok() || !sb.ok()) {
        return std::string("reannotation[") + BackendName(kind) + "]: node " +
               std::to_string(id) + " missing from a variant (partial " +
               sp.status().ToString() + ", full " + sf.status().ToString() +
               ", batch " + sb.status().ToString() + ")";
      }
      if (*sp != *sf || *sp != *sb) {
        return std::string("reannotation[") + BackendName(kind) + "]: node " +
               std::to_string(id) + ": partial '" + *sp + "', full '" + *sf +
               "', batch '" + *sb + "'";
      }
    }

    // Against the oracle: the element population and the accessible count
    // must match on every backend; on the native backend ids additionally
    // coincide with the oracle document (its insert mirrors the native
    // pre-order), so signs are compared node by node.
    if (ids->size() != oracle_signs.size()) {
      return std::string("reannotation[") + BackendName(kind) + "]: " +
             std::to_string(ids->size()) + " elements after updates, oracle " +
             std::to_string(oracle_signs.size());
    }
    size_t engine_accessible = 0;
    for (UniversalId id : *ids) {
      // Every id came from the backend's own //* query: it must have a sign.
      auto sign = partial.backend()->GetSign(id);
      if (!sign.ok()) {
        return std::string("reannotation[") + BackendName(kind) + "]: node " +
               std::to_string(id) + " selected by //* has no sign: " +
               sign.status().ToString();
      }
      if (*sign == '+') ++engine_accessible;
    }
    if (engine_accessible != oracle_accessible) {
      return std::string("reannotation[") + BackendName(kind) + "]: " +
             std::to_string(engine_accessible) + " accessible, oracle " +
             std::to_string(oracle_accessible);
    }
    if (kind == BackendKind::kNative) {
      for (const auto& [id, want] : oracle_signs) {
        auto sign = partial.backend()->GetSign(static_cast<UniversalId>(id));
        if (!sign.ok()) {
          return "reannotation[native]: oracle node " + std::to_string(id) +
                 " (" + oracle_doc.PathOf(id) + ") missing: " +
                 sign.status().ToString();
        }
        if (*sign != want) {
          return "reannotation[native]: sign mismatch at " +
                 oracle_doc.PathOf(id) + " (node " + std::to_string(id) +
                 "): engine '" + *sign + "', oracle '" + want + "'";
        }
      }
    }
  }
  return "";
}

std::string CheckOptimizer(const Instance& instance) {
  engine::ControllerOptions raw_options;
  raw_options.optimize_policies = false;
  AccessController optimized(MakeBackend(BackendKind::kNative));
  AccessController raw(MakeBackend(BackendKind::kNative), raw_options);
  if (!Setup(optimized, instance, instance.policy) ||
      !Setup(raw, instance, instance.policy)) {
    return "";
  }
  for (NodeId id : instance.doc.AllElements()) {
    auto so = optimized.backend()->GetSign(static_cast<UniversalId>(id));
    auto sr = raw.backend()->GetSign(static_cast<UniversalId>(id));
    if (!so.ok() || !sr.ok()) {
      return "optimizer: no sign at " + instance.doc.PathOf(id) + " (node " +
             std::to_string(id) + "): optimized " + so.status().ToString() +
             ", unoptimized " + sr.status().ToString();
    }
    if (*so != *sr) {
      return "optimizer: rule elimination changed the sign at " +
             instance.doc.PathOf(id) + " (node " + std::to_string(id) +
             "): optimized '" + *so + "', unoptimized '" + *sr + "'";
    }
  }
  return "";
}

std::string CheckContainment(const Instance& instance,
                             const DiffOptions& options) {
  PathGenOptions path_options;
  path_options.allow_comparisons = false;
  Random rng(instance.seed * 1315423911ULL + 3);
  RandomPathGenerator paths(instance.doc, rng.Next(), path_options);

  std::vector<xpath::Path> pool;
  for (const policy::Rule& rule : instance.policy.rules()) {
    pool.push_back(rule.resource);
  }
  for (int i = 0; i < options.containment_pairs; ++i) pool.push_back(paths.Next());

  for (int i = 0; i < options.containment_pairs; ++i) {
    const xpath::Path& p = pool[rng.Uniform(pool.size())];
    const xpath::Path& q = pool[rng.Uniform(pool.size())];
    bool engine = xpath::Contains(p, q);
    auto oracle = OracleContains(p, q);
    if (oracle.ok()) {
      if (engine && !*oracle) {
        return "containment: Contains claims " + xpath::ToString(p) +
               " ⊑ " + xpath::ToString(q) +
               ", canonical-model enumeration refutes it";
      }
    }
    // Empirical witness on the generated document: containment (claimed by
    // either side) implies subset of the naive evaluations.
    if (engine || (oracle.ok() && *oracle)) {
      std::vector<NodeId> ep = OracleEval(p, instance.doc);
      std::vector<NodeId> eq = OracleEval(q, instance.doc);
      if (!std::includes(eq.begin(), eq.end(), ep.begin(), ep.end())) {
        return "containment: " + xpath::ToString(p) + " ⊑ " +
               xpath::ToString(q) + " claimed by " +
               (engine ? "Contains" : "the oracle") +
               ", but the generated document is a counterexample";
      }
    }
  }
  return "";
}

std::string CheckAll(const Instance& instance, const DiffOptions& options) {
  std::string out = CheckAnnotation(instance, options);
  if (out.empty()) out = CheckReannotation(instance, options);
  if (out.empty()) out = CheckOptimizer(instance);
  if (out.empty()) out = CheckContainment(instance, options);
  // Versioned-vs-fresh-rebuild index diff on every pass: the incrementally
  // maintained IndexVersion must answer every probe exactly like a
  // from-scratch rebuild (and the naive engine) on the post-update document.
  if (out.empty()) out = CheckIndexVersions(instance, options);
  // Same instance with the rule cache forced off, so every `--mode all`
  // sweep differentially covers both the cached and the uncached engine
  // (failure strings carry /cache vs /nocache).
  if (out.empty() && options.rule_cache) {
    DiffOptions uncached = options;
    uncached.rule_cache = false;
    out = CheckAnnotation(instance, uncached);
    if (out.empty()) out = CheckReannotation(instance, uncached);
  }
  // And with the structural acceleration forced off (naive evaluator,
  // schema-chain SQL), so the structural engine is always diffed against
  // both the reference configuration and the oracle — including the
  // incremental index maintenance that CheckReannotation's updates drive.
  if (out.empty() && options.structural_accel) {
    DiffOptions naive = options;
    naive.structural_accel = false;
    out = CheckAnnotation(instance, naive);
    if (out.empty()) out = CheckReannotation(instance, naive);
  }
  // And with shard-parallel execution forced off, so the sharded fan-out /
  // merge paths are always diffed against the serial engine on the same
  // instance (failure strings carry /shard vs /serial).
  if (out.empty() && options.shard_parallel) {
    DiffOptions serial = options;
    serial.shard_parallel = false;
    out = CheckAnnotation(instance, serial);
    if (out.empty()) out = CheckReannotation(instance, serial);
  }
  return out;
}

CheckFn AnnotationCheck(DiffOptions options) {
  return [options](const Instance& instance) {
    return CheckAnnotation(instance, options);
  };
}

CheckFn ReannotationCheck(DiffOptions options) {
  return [options](const Instance& instance) {
    return CheckReannotation(instance, options);
  };
}

CheckFn AllChecks(DiffOptions options) {
  return [options](const Instance& instance) {
    return CheckAll(instance, options);
  };
}

std::string RunSeededCheck(uint64_t seed, InstanceOptions options,
                           const CheckFn& check,
                           const std::string& repro_dir) {
  options.seed = seed;
  Instance instance = GenerateInstance(options);
  std::string failure = check(instance);
  if (failure.empty()) return "";

  ShrinkResult shrunk = Shrink(instance, check);
  std::string report = "seed " + std::to_string(seed) + ": " + failure +
                       "\nminimized (" + std::to_string(shrunk.steps) +
                       " shrink steps): " + shrunk.failure + "\n" +
                       FormatInstance(shrunk.instance);
  if (!repro_dir.empty()) {
    std::string dir = repro_dir + "/seed-" + std::to_string(seed);
    Status written = WriteRepro(shrunk.instance, dir);
    report += written.ok()
                  ? "repro written to " + dir +
                        " (replay: xmlac_fuzz --replay " + dir + ")\n"
                  : "repro dump failed: " + written.ToString() + "\n";
  }
  return report;
}

}  // namespace xmlac::testing
