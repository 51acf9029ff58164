#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "engine/access_controller.h"
#include "engine/native_backend.h"
#include "engine/relational_backend.h"
#include "policy/policy.h"
#include "policy/semantics.h"
#include "tests/testdata.h"
#include "xml/parser.h"
#include "xpath/evaluator.h"
#include "xpath/parser.h"

namespace xmlac::engine {
namespace {

enum class BackendKind { kNative, kRow, kColumn };

std::unique_ptr<Backend> MakeBackend(BackendKind kind) {
  switch (kind) {
    case BackendKind::kNative:
      return std::make_unique<NativeXmlBackend>();
    case BackendKind::kRow: {
      RelationalOptions opt;
      opt.storage = reldb::StorageKind::kRowStore;
      return std::make_unique<RelationalBackend>(opt);
    }
    case BackendKind::kColumn: {
      RelationalOptions opt;
      opt.storage = reldb::StorageKind::kColumnStore;
      return std::make_unique<RelationalBackend>(opt);
    }
  }
  return nullptr;
}

const char* KindName(BackendKind k) {
  switch (k) {
    case BackendKind::kNative:
      return "Native";
    case BackendKind::kRow:
      return "Row";
    case BackendKind::kColumn:
      return "Column";
  }
  return "?";
}

class BackendTest : public ::testing::TestWithParam<BackendKind> {
 protected:
  void SetUp() override {
    auto dtd = xml::ParseDtd(testdata::kHospitalDtd);
    ASSERT_TRUE(dtd.ok()) << dtd.status();
    dtd_ = std::make_unique<xml::Dtd>(std::move(*dtd));
    auto doc = xml::ParseDocument(testdata::kHospitalDoc);
    ASSERT_TRUE(doc.ok()) << doc.status();
    doc_ = std::move(*doc);
    backend_ = MakeBackend(GetParam());
    ASSERT_TRUE(backend_->Load(*dtd_, doc_).ok());
  }

  std::unique_ptr<xml::Dtd> dtd_;
  xml::Document doc_;
  std::unique_ptr<Backend> backend_;
};

TEST_P(BackendTest, NodeCountMatchesDocument) {
  EXPECT_EQ(backend_->NodeCount(), doc_.AllElements().size());
}

TEST_P(BackendTest, EvaluateQueryMatchesTreeEvaluator) {
  for (const char* expr :
       {"//patient", "//patient[treatment]", "//patient[.//experimental]",
        "/hospital/dept/patients", "//regular[bill > 500]", "//name",
        "//patient/*", "//nosuchlabel"}) {
    auto path = xpath::ParsePath(expr);
    ASSERT_TRUE(path.ok());
    auto got = backend_->EvaluateQuery(*path);
    ASSERT_TRUE(got.ok()) << got.status() << " for " << expr;
    std::vector<UniversalId> expected;
    for (xml::NodeId n : xpath::Evaluate(*path, doc_)) {
      expected.push_back(static_cast<UniversalId>(n));
    }
    EXPECT_EQ(*got, expected) << expr;
  }
}

TEST_P(BackendTest, SignLifecycle) {
  ASSERT_TRUE(backend_->ResetAllSigns('-').ok());
  auto path = xpath::ParsePath("//patient");
  ASSERT_TRUE(path.ok());
  auto ids = backend_->EvaluateQuery(*path);
  ASSERT_TRUE(ids.ok());
  ASSERT_EQ(ids->size(), 3u);
  for (UniversalId id : *ids) {
    auto s = backend_->GetSign(id);
    ASSERT_TRUE(s.ok());
    EXPECT_EQ(*s, '-');
  }
  ASSERT_TRUE(backend_->SetSigns(*ids, '+').ok());
  for (UniversalId id : *ids) {
    EXPECT_EQ(*backend_->GetSign(id), '+');
  }
  // Reset flips everything back.
  ASSERT_TRUE(backend_->ResetAllSigns('-').ok());
  EXPECT_EQ(*backend_->GetSign((*ids)[0]), '-');
}

TEST_P(BackendTest, GetSignUnknownIdFails) {
  EXPECT_EQ(backend_->GetSign(999999).status().code(), StatusCode::kNotFound);
}

TEST_P(BackendTest, DeleteWhereRemovesSubtrees) {
  auto u = xpath::ParsePath("//patient/treatment");
  ASSERT_TRUE(u.ok());
  auto deleted = backend_->DeleteWhere(*u);
  ASSERT_TRUE(deleted.ok()) << deleted.status();
  // 2 treatments + regular + experimental + med + 2 bill + test = 8 elements.
  EXPECT_EQ(*deleted, 8u);
  auto remaining = backend_->EvaluateQuery(*xpath::ParsePath("//bill"));
  ASSERT_TRUE(remaining.ok());
  EXPECT_TRUE(remaining->empty());
  EXPECT_EQ(backend_->NodeCount(), doc_.AllElements().size() - 8);
}

// Full annotation must agree with the Table 2 ground truth on every node.
TEST_P(BackendTest, AnnotateFullMatchesGroundTruth) {
  for (auto ds : {policy::DefaultSemantics::kAllow,
                  policy::DefaultSemantics::kDeny}) {
    for (auto cr : {policy::ConflictResolution::kAllowOverrides,
                    policy::ConflictResolution::kDenyOverrides}) {
      auto p = policy::ParsePolicy(testdata::kHospitalPolicy);
      ASSERT_TRUE(p.ok());
      p->set_default_semantics(ds);
      p->set_conflict_resolution(cr);
      auto stats = AnnotateFull(backend_.get(), *p);
      ASSERT_TRUE(stats.ok()) << stats.status();
      policy::NodeSet truth = policy::AccessibleNodes(*p, doc_);
      for (xml::NodeId n : doc_.AllElements()) {
        auto sign = backend_->GetSign(static_cast<UniversalId>(n));
        ASSERT_TRUE(sign.ok());
        EXPECT_EQ(*sign == '+', truth.count(n) > 0)
            << "node " << n << " (" << doc_.node(n).label << ") ds/cr "
            << static_cast<int>(ds) << "/" << static_cast<int>(cr);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, BackendTest,
                         ::testing::Values(BackendKind::kNative,
                                           BackendKind::kRow,
                                           BackendKind::kColumn),
                         [](const auto& info) { return KindName(info.param); });

// ---------------------------------------------------------------------------

class ControllerTest : public ::testing::TestWithParam<BackendKind> {
 protected:
  void SetUp() override {
    ac_ = std::make_unique<AccessController>(MakeBackend(GetParam()));
    ASSERT_TRUE(ac_->Load(testdata::kHospitalDtd, testdata::kHospitalDoc).ok());
    ASSERT_TRUE(ac_->SetPolicy(testdata::kHospitalPolicy).ok());
  }

  // From-scratch annotation oracle: a parallel document with the same
  // updates applied, annotated fully.
  std::unique_ptr<AccessController> ac_;
};

TEST_P(ControllerTest, PolicyGetsOptimized) {
  // Table 1 -> Table 3: 8 rules down to 5.
  EXPECT_EQ(ac_->active_policy().size(), 5u);
  EXPECT_EQ(ac_->optimizer_stats().removed, 3u);
}

TEST_P(ControllerTest, AllOrNothingQueries) {
  // All patient names are accessible.
  auto r = ac_->Query("//patient/name");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->granted);
  EXPECT_EQ(r->ids.size(), 3u);
  // //patient mixes accessible and inaccessible -> denied.
  r = ac_->Query("//patient");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kAccessDenied);
  // Staff data: nothing accessible -> denied.
  r = ac_->Query("//doctor");
  ASSERT_FALSE(r.ok());
  // Accessible singleton.
  r = ac_->Query("//regular");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->granted);
  // Empty result: granted (leaks nothing).
  r = ac_->Query("//nosuchlabel");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->granted);
  EXPECT_TRUE(r->ids.empty());
}

// The paper's motivating update: delete the treatments of all patients;
// afterwards every patient must be accessible (R3/R5 no longer apply).
TEST_P(ControllerTest, UpdateReannotatesPatients) {
  auto before = ac_->Query("//patient");
  ASSERT_FALSE(before.ok());  // denied pre-update
  auto stats = ac_->Update("//patient/treatment");
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->nodes_deleted, 8u);
  EXPECT_GT(stats->rules_triggered, 0u);
  auto after = ac_->Query("//patient");
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_TRUE(after->granted);
  EXPECT_EQ(after->ids.size(), 3u);
}

// A re-annotation diffs against the sign state of record; a subject whose
// policy was installed for recovery but whose signs were never restored
// has none, and an update must fail loudly instead of writing signs that
// snapshots and the WAL would then read from an invalid state.
TEST_P(ControllerTest, UpdateWithoutRestoredSignsIsInternal) {
  AccessController restored(MakeBackend(GetParam()));
  ASSERT_TRUE(
      restored.Load(testdata::kHospitalDtd, testdata::kHospitalDoc).ok());
  auto policy = policy::ParsePolicy(testdata::kHospitalPolicy);
  ASSERT_TRUE(policy.ok()) << policy.status();
  ASSERT_TRUE(restored.SetPolicyForRecovery(std::move(*policy)).ok());
  auto stats = restored.Update("//patient/treatment");
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kInternal) << stats.status();
}

// A selector whose matches nest (patients > patient > treatment > regular)
// counts each deleted element once: nested victims die with their ancestor.
TEST_P(ControllerTest, NestedDeleteReportsBeforeAfterDifference) {
  const char kSelector[] = "//dept//*[.//bill]";
  auto victims = ac_->backend()->EvaluateQuery(*xpath::ParsePath(kSelector));
  ASSERT_TRUE(victims.ok()) << victims.status();
  ASSERT_EQ(victims->size(), 7u);
  const size_t before = ac_->backend()->NodeCount();
  auto stats = ac_->Update(kSelector);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->nodes_deleted, before - ac_->backend()->NodeCount());
  // patients + 3 x (patient, psn, name) + the two treatment subtrees (8).
  EXPECT_EQ(stats->nodes_deleted, 18u);
}

// The observability layer must agree with itself and with the pipeline's
// own statistics across a SetPolicy + Query + Update sequence.
TEST_P(ControllerTest, MetricsPipelineConsistency) {
  // SetUp already ran Load + SetPolicy with the controller's registry
  // installed, so optimizer/annotator/cache series must exist.
  obs::MetricsSnapshot setup = ac_->SnapshotMetrics();
  ASSERT_TRUE(setup.counters.count("optimizer.rules_examined"));
  ASSERT_TRUE(setup.counters.count("annotator.full_annotations"));
  EXPECT_EQ(setup.counters.at("annotator.full_annotations"), 1u);
  // The optimizer warms the shared containment cache: every check is
  // either a hit or a miss, nothing is dropped.
  ASSERT_TRUE(setup.counters.count("containment.cache.checks"));
  EXPECT_EQ(setup.counters.at("containment.cache.checks"),
            setup.counters.at("containment.cache.hits") +
                setup.counters.at("containment.cache.misses"));
  EXPECT_GT(setup.counters.at("containment.cache.checks"), 0u);

  auto q = ac_->Query("//patient/name");
  ASSERT_TRUE(q.ok());
  obs::MetricsSnapshot queried = ac_->SnapshotMetrics();
  EXPECT_EQ(queried.counters.at("engine.queries"), 1u);
  EXPECT_EQ(queried.counters.at("requester.requests"), 1u);
  EXPECT_EQ(queried.counters.at("requester.nodes_selected"), q->ids.size());

  auto up = ac_->Update("//patient/treatment");
  ASSERT_TRUE(up.ok()) << up.status();
  obs::MetricsSnapshot updated = ac_->SnapshotMetrics();
  EXPECT_EQ(updated.counters.at("engine.updates"), 1u);
  EXPECT_EQ(updated.counters.at("trigger.invocations"), 1u);
  // The trigger never fires more rules than the active policy holds, and
  // fired + skipped partition the policy.
  EXPECT_LE(up->rules_triggered, ac_->active_policy().size());
  EXPECT_EQ(updated.counters.at("trigger.rules_fired"), up->rules_triggered);
  EXPECT_EQ(updated.counters.at("trigger.rules_fired") +
                updated.counters.at("trigger.rules_skipped"),
            ac_->active_policy().size());
  EXPECT_EQ(updated.counters.at("annotator.reannotations"), 1u);
  // Cache stays consistent after the trigger's probes too.
  EXPECT_EQ(updated.counters.at("containment.cache.checks"),
            updated.counters.at("containment.cache.hits") +
                updated.counters.at("containment.cache.misses"));
  // Monotone: the update can only add cache checks.
  EXPECT_GE(updated.counters.at("containment.cache.checks"),
            setup.counters.at("containment.cache.checks"));
}

// With tracing enabled, the span tree mirrors the operations performed.
TEST_P(ControllerTest, TraceTreeCoversOperations) {
  ac_->EnableTracing(true);
  ASSERT_TRUE(ac_->Query("//regular").ok());
  ASSERT_TRUE(ac_->Update("//experimental").ok());
  const obs::TraceSpan& root = ac_->tracer().root();
  ASSERT_EQ(root.children.size(), 2u);
  EXPECT_EQ(root.children[0]->name, "query");
  EXPECT_EQ(root.children[1]->name, "update");
  EXPECT_GE(root.children[0]->duration_us, 0);
  EXPECT_GE(root.children[1]->duration_us, 0);
  // The update span contains the trigger, delete and reannotate phases.
  std::vector<std::string> phases;
  for (const auto& child : root.children[1]->children) {
    phases.push_back(child->name);
  }
  EXPECT_NE(std::find(phases.begin(), phases.end(), "trigger"), phases.end());
  EXPECT_NE(std::find(phases.begin(), phases.end(), "delete"), phases.end());
  EXPECT_NE(std::find(phases.begin(), phases.end(), "reannotate"),
            phases.end());
}

// Key invariant: partial re-annotation after an update equals from-scratch
// annotation of the post-update document, for a battery of updates.
TEST_P(ControllerTest, ReannotationMatchesFullAnnotation) {
  for (const char* update :
       {"//patient/treatment", "//treatment", "//experimental",
        "//patient[psn=\"033\"]", "//regular", "//patient/name",
        "//staffinfo"}) {
    // Fresh controller with partial re-annotation.
    auto partial = std::make_unique<AccessController>(MakeBackend(GetParam()));
    ASSERT_TRUE(
        partial->Load(testdata::kHospitalDtd, testdata::kHospitalDoc).ok());
    ASSERT_TRUE(partial->SetPolicy(testdata::kHospitalPolicy).ok());
    auto st = partial->Update(update);
    ASSERT_TRUE(st.ok()) << st.status() << " for " << update;

    // Oracle: same update, then full re-annotation.
    auto oracle = std::make_unique<AccessController>(MakeBackend(GetParam()));
    ASSERT_TRUE(
        oracle->Load(testdata::kHospitalDtd, testdata::kHospitalDoc).ok());
    ASSERT_TRUE(oracle->SetPolicy(testdata::kHospitalPolicy).ok());
    auto u = xpath::ParsePath(update);
    ASSERT_TRUE(u.ok());
    ASSERT_TRUE(oracle->backend()->DeleteWhere(*u).ok());
    ASSERT_TRUE(oracle->ReannotateFull().ok());

    // Compare the sign of every surviving node.
    auto all = xpath::ParsePath("//*");
    ASSERT_TRUE(all.ok());
    auto ids = partial->backend()->EvaluateQuery(*all);
    ASSERT_TRUE(ids.ok());
    auto oracle_ids = oracle->backend()->EvaluateQuery(*all);
    ASSERT_TRUE(oracle_ids.ok());
    ASSERT_EQ(*ids, *oracle_ids) << update;
    for (UniversalId id : *ids) {
      auto a = partial->backend()->GetSign(id);
      auto b = oracle->backend()->GetSign(id);
      ASSERT_TRUE(a.ok() && b.ok());
      EXPECT_EQ(*a, *b) << "node " << id << " after update " << update;
    }
  }
}

TEST_P(ControllerTest, SequenceOfUpdatesStaysConsistent) {
  ASSERT_TRUE(ac_->Update("//experimental").ok());
  ASSERT_TRUE(ac_->Update("//regular/med").ok());
  ASSERT_TRUE(ac_->Update("//patient[psn=\"099\"]").ok());
  // Oracle comparison after the whole sequence.
  auto oracle = std::make_unique<AccessController>(MakeBackend(GetParam()));
  ASSERT_TRUE(
      oracle->Load(testdata::kHospitalDtd, testdata::kHospitalDoc).ok());
  ASSERT_TRUE(oracle->SetPolicy(testdata::kHospitalPolicy).ok());
  for (const char* u : {"//experimental", "//regular/med",
                        "//patient[psn=\"099\"]"}) {
    auto p = xpath::ParsePath(u);
    ASSERT_TRUE(p.ok());
    ASSERT_TRUE(oracle->backend()->DeleteWhere(*p).ok());
  }
  ASSERT_TRUE(oracle->ReannotateFull().ok());
  auto all = xpath::ParsePath("//*");
  auto ids = ac_->backend()->EvaluateQuery(*all);
  ASSERT_TRUE(ids.ok());
  for (UniversalId id : *ids) {
    EXPECT_EQ(*ac_->backend()->GetSign(id), *oracle->backend()->GetSign(id))
        << "node " << id;
  }
}

// The paper's motivating insert case, inverted: inserting a treatment under
// an accessible patient must flip that patient to denied (rule R3 now
// applies).
TEST_P(ControllerTest, InsertTreatmentDeniesPatient) {
  auto before = ac_->Query("//patient[psn=\"099\"]");
  ASSERT_TRUE(before.ok()) << before.status();
  EXPECT_TRUE(before->granted);
  auto st = ac_->Insert(
      "//patient[psn=\"099\"]",
      "<treatment><regular><med>metformin</med><bill>50</bill></regular>"
      "</treatment>");
  ASSERT_TRUE(st.ok()) << st.status();
  EXPECT_EQ(st->nodes_inserted, 4u);
  EXPECT_GT(st->rules_triggered, 0u);
  auto after = ac_->Query("//patient[psn=\"099\"]");
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kAccessDenied);
  // The new regular node must be accessible (rule R6) even though it did
  // not exist when the policy was annotated.
  auto regulars = ac_->Query("//patient[psn=\"099\"]//regular");
  ASSERT_TRUE(regulars.ok()) << regulars.status();
  EXPECT_TRUE(regulars->granted);
}

// Inserting a subtree whose *descendants* matter: a patient with an
// experimental treatment inside — rule R5 must catch it.
TEST_P(ControllerTest, InsertDeepFragmentReannotatesDescendantRules) {
  auto st = ac_->Insert("//patients",
                        "<patient><psn>777</psn><name>new person</name>"
                        "<treatment><experimental><test>x</test>"
                        "<bill>9000</bill></experimental></treatment>"
                        "</patient>");
  ASSERT_TRUE(st.ok()) << st.status();
  EXPECT_EQ(st->nodes_inserted, 7u);
  auto q = ac_->Query("//patient[psn=\"777\"]");
  ASSERT_FALSE(q.ok());  // R3/R5 deny it
  auto name = ac_->Query("//patient[psn=\"777\"]/name");
  ASSERT_TRUE(name.ok()) << name.status();  // R2 allows the name
  EXPECT_TRUE(name->granted);
}

// Insert + partial re-annotation equals from-scratch annotation.
TEST_P(ControllerTest, InsertReannotationMatchesFullAnnotation) {
  struct Case {
    const char* target;
    const char* fragment;
  };
  const Case kCases[] = {
      {"//patient[psn=\"099\"]", "<treatment/>"},
      {"//patients", "<patient><psn>500</psn><name>x</name></patient>"},
      {"//dept", "<patients/>"},
      {"//treatment[regular]",
       "<experimental><test>t</test><bill>1</bill></experimental>"},
  };
  for (const Case& c : kCases) {
    auto partial = std::make_unique<AccessController>(MakeBackend(GetParam()));
    ASSERT_TRUE(
        partial->Load(testdata::kHospitalDtd, testdata::kHospitalDoc).ok());
    ASSERT_TRUE(partial->SetPolicy(testdata::kHospitalPolicy).ok());
    auto st = partial->Insert(c.target, c.fragment);
    ASSERT_TRUE(st.ok()) << st.status() << " for " << c.target;

    auto oracle = std::make_unique<AccessController>(MakeBackend(GetParam()));
    ASSERT_TRUE(
        oracle->Load(testdata::kHospitalDtd, testdata::kHospitalDoc).ok());
    ASSERT_TRUE(oracle->SetPolicy(testdata::kHospitalPolicy).ok());
    auto target = xpath::ParsePath(c.target);
    auto fragment = xml::ParseDocument(c.fragment);
    ASSERT_TRUE(target.ok() && fragment.ok());
    ASSERT_TRUE(oracle->backend()->InsertUnder(*target, *fragment).ok());
    ASSERT_TRUE(oracle->ReannotateFull().ok());

    auto all = xpath::ParsePath("//*");
    auto ids = partial->backend()->EvaluateQuery(*all);
    auto oracle_ids = oracle->backend()->EvaluateQuery(*all);
    ASSERT_TRUE(ids.ok() && oracle_ids.ok());
    ASSERT_EQ(*ids, *oracle_ids) << c.target;
    for (UniversalId id : *ids) {
      EXPECT_EQ(*partial->backend()->GetSign(id),
                *oracle->backend()->GetSign(id))
          << "node " << id << " after insert under " << c.target;
    }
  }
}

TEST_P(ControllerTest, InsertRejectsUnknownLabels) {
  auto st = ac_->Insert("//patients", "<alien/>");
  if (GetParam() == BackendKind::kNative) {
    // The native store has no schema to validate against; it accepts.
    EXPECT_TRUE(st.ok());
  } else {
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST_P(ControllerTest, InsertUnderNoMatchIsNoop) {
  auto st = ac_->Insert("//nosuchparent", "<treatment/>");
  ASSERT_TRUE(st.ok()) << st.status();
  EXPECT_EQ(st->nodes_inserted, 0u);
}

TEST_P(ControllerTest, UpdateWithoutPolicyFails) {
  auto bare = std::make_unique<AccessController>(MakeBackend(GetParam()));
  ASSERT_TRUE(
      bare->Load(testdata::kHospitalDtd, testdata::kHospitalDoc).ok());
  EXPECT_FALSE(bare->Update("//patient").ok());
}

TEST_P(ControllerTest, MalformedInputsSurfaceParseErrors) {
  EXPECT_EQ(ac_->Query("patient").status().code(), StatusCode::kParseError);
  EXPECT_EQ(ac_->Update("][").status().code(), StatusCode::kParseError);
  auto bad = std::make_unique<AccessController>(MakeBackend(GetParam()));
  EXPECT_EQ(bad->Load("<!BOGUS>", "<a/>").code(), StatusCode::kParseError);
  EXPECT_EQ(bad->Load(testdata::kHospitalDtd, "<a").code(),
            StatusCode::kParseError);
}

INSTANTIATE_TEST_SUITE_P(Backends, ControllerTest,
                         ::testing::Values(BackendKind::kNative,
                                           BackendKind::kRow,
                                           BackendKind::kColumn),
                         [](const auto& info) { return KindName(info.param); });

// Native-specific: minimal-storage annotation (attribute only when the sign
// differs from the default).
TEST(NativeBackendTest, SignAttributeOnlyOnNonDefaultNodes) {
  auto dtd = xml::ParseDtd(testdata::kHospitalDtd);
  auto doc = xml::ParseDocument(testdata::kHospitalDoc);
  ASSERT_TRUE(dtd.ok() && doc.ok());
  NativeXmlBackend backend;
  ASSERT_TRUE(backend.Load(*dtd, *doc).ok());
  auto p = policy::ParsePolicy(testdata::kHospitalPolicy);
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(AnnotateFull(&backend, *p).ok());
  size_t with_attr = 0;
  const xml::Document& annotated = backend.document();
  for (xml::NodeId n = 0; n < annotated.size(); ++n) {
    if (!annotated.IsAlive(n)) continue;
    if (annotated.node(n).kind != xml::NodeKind::kElement) continue;
    if (annotated.GetAttribute(n, "sign").has_value()) ++with_attr;
  }
  // Exactly the accessible nodes carry the attribute (deny default).
  EXPECT_EQ(with_attr, policy::AccessibleNodes(*p, *doc).size());
}

// Native-specific: the paper's XQuery annotation path drives the same store
// as the programmatic annotator.
TEST(NativeBackendTest, RunXQueryAnnotatesLikeAnnotator) {
  auto dtd = xml::ParseDtd(testdata::kHospitalDtd);
  auto doc = xml::ParseDocument(testdata::kHospitalDoc);
  ASSERT_TRUE(dtd.ok() && doc.ok());
  NativeXmlBackend backend;
  ASSERT_TRUE(backend.Load(*dtd, *doc).ok());
  ASSERT_TRUE(backend.ResetAllSigns('-').ok());
  auto r = backend.RunXQuery(R"(
    for $n := doc("xmlgen")(
        (//patient union //patient/name union //regular)
        except (//patient[treatment] union //patient[.//experimental]))
    return xmlac:annotate($n, "+")
  )");
  ASSERT_TRUE(r.ok()) << r.status();
  // Same signs as AnnotateFull with the equivalent policy.
  auto p = policy::ParsePolicy(testdata::kHospitalPolicy);
  ASSERT_TRUE(p.ok());
  NativeXmlBackend oracle;
  ASSERT_TRUE(oracle.Load(*dtd, *doc).ok());
  ASSERT_TRUE(AnnotateFull(&oracle, *p).ok());
  auto all = xpath::ParsePath("//*");
  ASSERT_TRUE(all.ok());
  auto ids = backend.EvaluateQuery(*all);
  ASSERT_TRUE(ids.ok());
  for (UniversalId id : *ids) {
    EXPECT_EQ(*backend.GetSign(id), *oracle.GetSign(id)) << id;
  }
  // Read-only XQuery works too.
  auto c = backend.RunXQuery("count(doc(\"xmlgen\")//patient)");
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(std::get<double>(c->v), 3.0);
}

// Native-specific: the compiled annotation XQuery has the paper's
// ((R1 union R2 union R6) except (R3 union R5)) shape (Sec. 5.2).
TEST(NativeBackendTest, CompiledAnnotationXQueryShape) {
  auto p = policy::ParsePolicy(testdata::kHospitalPolicy);
  ASSERT_TRUE(p.ok());
  policy::Policy optimized = policy::EliminateRedundantRules(*p);
  std::vector<size_t> all(optimized.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  auto q = NativeXmlBackend::CompileAnnotationXQuery(
      optimized, all, policy::CombineOp::kGrantsExceptDenies);
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(*q,
            "doc(\"xmlgen\")((//patient union //patient/name union //regular)"
            " except (//patient[treatment] union"
            " //patient[.//experimental]))");
  // kGrants drops the EXCEPT clause.
  q = NativeXmlBackend::CompileAnnotationXQuery(optimized, all,
                                                policy::CombineOp::kGrants);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->find(" except "), std::string::npos);
  // A subset with no contributing rules is NotFound.
  q = NativeXmlBackend::CompileAnnotationXQuery(optimized, {},
                                                policy::CombineOp::kGrants);
  EXPECT_EQ(q.status().code(), StatusCode::kNotFound);
}

// Relational-specific: the compiled annotation SQL has the paper's
// (Q1 UNION ... EXCEPT (...)) shape.
TEST(RelationalBackendTest, AnnotationSqlShape) {
  auto dtd = xml::ParseDtd(testdata::kHospitalDtd);
  auto doc = xml::ParseDocument(testdata::kHospitalDoc);
  ASSERT_TRUE(dtd.ok() && doc.ok());
  RelationalBackend backend;
  ASSERT_TRUE(backend.Load(*dtd, *doc).ok());
  auto p = policy::ParsePolicy(testdata::kHospitalPolicy);
  ASSERT_TRUE(p.ok());
  std::vector<size_t> all(p->size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  auto sql = backend.CompileAnnotationSql(
      *p, all, policy::CombineOp::kGrantsExceptDenies);
  ASSERT_TRUE(sql.ok()) << sql.status();
  std::string text = sql->ToSql();
  EXPECT_NE(text.find("UNION"), std::string::npos);
  EXPECT_NE(text.find("EXCEPT"), std::string::npos);
  // The compiled SQL is parseable by our own dialect.
  EXPECT_TRUE(reldb::ParseSql(text).ok());
}

// After identical InsertUnder sequences, native and relational backends
// assign the same fresh universal ids (relied upon by the facade when
// mirrored stores must stay comparable).
TEST(BackendIdAgreementTest, InsertAssignsSameIdsAcrossBackends) {
  auto dtd = xml::ParseDtd(testdata::kHospitalDtd);
  auto doc = xml::ParseDocument(testdata::kHospitalDoc);
  ASSERT_TRUE(dtd.ok() && doc.ok());
  NativeXmlBackend native;
  RelationalBackend relational;
  ASSERT_TRUE(native.Load(*dtd, *doc).ok());
  ASSERT_TRUE(relational.Load(*dtd, *doc).ok());

  auto target = xpath::ParsePath("//patient[psn=\"099\"]");
  auto fragment = xml::ParseDocument(
      "<treatment><regular><med>aspirin</med><bill>5</bill></regular>"
      "</treatment>");
  ASSERT_TRUE(target.ok() && fragment.ok());
  ASSERT_TRUE(native.InsertUnder(*target, *fragment).ok());
  ASSERT_TRUE(relational.InsertUnder(*target, *fragment).ok());
  // Second insert to exercise the counter.
  auto target2 = xpath::ParsePath("//patients");
  auto fragment2 =
      xml::ParseDocument("<patient><psn>500</psn><name>id test</name></patient>");
  ASSERT_TRUE(target2.ok() && fragment2.ok());
  ASSERT_TRUE(native.InsertUnder(*target2, *fragment2).ok());
  ASSERT_TRUE(relational.InsertUnder(*target2, *fragment2).ok());

  for (const char* q : {"//regular", "//med", "//patient", "//psn",
                        "//treatment", "//name"}) {
    auto path = xpath::ParsePath(q);
    ASSERT_TRUE(path.ok());
    auto a = native.EvaluateQuery(*path);
    auto b = relational.EvaluateQuery(*path);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(*a, *b) << q;
  }
}

TEST(RelationalBackendTest, LoadViaSqlAndDirectAgree) {
  auto dtd = xml::ParseDtd(testdata::kHospitalDtd);
  auto doc = xml::ParseDocument(testdata::kHospitalDoc);
  ASSERT_TRUE(dtd.ok() && doc.ok());
  RelationalOptions via_sql;
  via_sql.load_via_sql = true;
  RelationalOptions direct;
  direct.load_via_sql = false;
  RelationalBackend a(via_sql), b(direct);
  ASSERT_TRUE(a.Load(*dtd, *doc).ok());
  ASSERT_TRUE(b.Load(*dtd, *doc).ok());
  EXPECT_EQ(a.NodeCount(), b.NodeCount());
  auto q = xpath::ParsePath("//patient[treatment]");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(*a.EvaluateQuery(*q), *b.EvaluateQuery(*q));
}

}  // namespace
}  // namespace xmlac::engine
