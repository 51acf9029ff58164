#include "xpath/structural_index.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "engine/native_backend.h"
#include "engine/relational_backend.h"
#include "obs/metrics.h"
#include "testing/generators.h"
#include "tests/testdata.h"
#include "xml/dtd.h"
#include "xml/parser.h"
#include "xpath/evaluator.h"
#include "xpath/parser.h"
#include "xpath/structural_eval.h"

namespace xmlac::xpath {
namespace {

using xml::Document;
using xml::NodeId;

Document Parse(std::string_view text) {
  auto r = xml::ParseDocument(text);
  EXPECT_TRUE(r.ok()) << r.status();
  return std::move(*r);
}

Path MustParse(std::string_view expr) {
  auto p = ParsePath(expr);
  EXPECT_TRUE(p.ok()) << p.status();
  return *p;
}

// Naive and structural evaluation of `expr` must coincide; returns the
// (shared) result.
std::vector<NodeId> EvalBoth(std::string_view expr, const Document& doc,
                             const StructuralIndex& index) {
  Path p = MustParse(expr);
  std::vector<NodeId> naive = Evaluate(p, doc);
  EvaluatorOptions options;
  options.index = index.current();
  std::vector<NodeId> structural = Evaluate(p, doc, options);
  EXPECT_EQ(naive, structural) << expr;
  return naive;
}

// ----- Interval labels ---------------------------------------------------

TEST(IntervalLabelTest, ContainmentMatchesAncestry) {
  Document doc = Parse(testdata::kHospitalDoc);
  std::vector<IntervalLabel> labels = ComputeIntervalLabels(doc);
  for (NodeId id = 0; id < doc.size(); ++id) {
    if (!doc.IsAlive(id) || doc.node(id).kind != xml::NodeKind::kElement) {
      continue;
    }
    const IntervalLabel& l = labels[id];
    ASSERT_NE(l.end, 0u);
    EXPECT_LT(l.start, l.end);
    // Walk to the root: every ancestor's interval strictly contains ours,
    // with one level less per hop.
    uint32_t level = l.level;
    for (NodeId a = doc.node(id).parent; a != xml::kInvalidNode;
         a = doc.node(a).parent) {
      const IntervalLabel& al = labels[a];
      EXPECT_LT(al.start, l.start);
      EXPECT_LT(l.end, al.end);
      ASSERT_GT(level, 0u);
      --level;
      EXPECT_GE(al.level, 0u);
    }
    EXPECT_EQ(level, 0u);  // root is level 0
  }
  // Siblings never overlap.
  for (NodeId id = 0; id < doc.size(); ++id) {
    if (!doc.IsAlive(id)) continue;
    const xml::Node& n = doc.node(id);
    uint64_t prev_end = 0;
    for (NodeId c : n.children) {
      if (doc.node(c).kind != xml::NodeKind::kElement) continue;
      EXPECT_GT(labels[c].start, prev_end);
      prev_end = labels[c].end;
    }
  }
}

TEST(IntervalLabelTest, AllocateChildIntervalNestsAndExhausts) {
  uint64_t start = 0;
  uint64_t end = 0;
  ASSERT_TRUE(AllocateChildInterval(100, 1000, 100, &start, &end));
  EXPECT_GT(start, 100u);
  EXPECT_LE(start, end);
  EXPECT_LT(end, 1000u);
  // Repeated sibling allocation always terminates in exhaustion.
  uint64_t anchor = end;
  int allocated = 0;
  while (AllocateChildInterval(100, 1000, anchor, &start, &end)) {
    EXPECT_GT(start, anchor);
    EXPECT_LE(start, end);
    EXPECT_LT(end, 1000u);
    anchor = end;
    ++allocated;
    ASSERT_LT(allocated, 2000) << "allocation does not converge";
  }
  EXPECT_GT(allocated, 0);
  // A gap of nothing fails immediately.
  EXPECT_FALSE(AllocateChildInterval(100, 103, 100, &start, &end));
}

// ----- Index maintenance -------------------------------------------------

TEST(StructuralIndexTest, IncrementalInsertAvoidsRebuild) {
  Document doc = Parse(testdata::kHospitalDoc);
  StructuralIndex index(&doc);
  index.Publish();
  EXPECT_EQ(index.builds(), 1u);
  ASSERT_TRUE(index.ReadyFor(doc));

  std::vector<NodeId> patients = EvalBoth("//patients", doc, index);
  ASSERT_EQ(patients.size(), 1u);
  NodeId p = doc.CreateElement(patients[0], "patient");
  NodeId psn = doc.CreateElement(p, "psn");
  doc.CreateText(psn, "777");
  EXPECT_FALSE(index.ReadyFor(doc));

  index.Publish();
  EXPECT_EQ(index.builds(), 1u) << "append should replay, not rebuild";
  EXPECT_GE(index.incremental_updates(), 1u);
  ASSERT_TRUE(index.ReadyFor(doc));
  EXPECT_EQ(EvalBoth("//patient", doc, index).size(), 4u);
  EXPECT_EQ(EvalBoth("//patient[psn=\"777\"]", doc, index).size(), 1u);
}

TEST(StructuralIndexTest, DeleteTombstonesThenCompacts) {
  Document doc = Parse(testdata::kHospitalDoc);
  StructuralIndex index(&doc);
  index.Publish();
  std::vector<NodeId> patients = EvalBoth("//patient", doc, index);
  ASSERT_EQ(patients.size(), 3u);
  doc.DeleteSubtree(patients[0]);
  index.Publish();
  EXPECT_EQ(EvalBoth("//patient", doc, index).size(), 2u);
  EXPECT_EQ(EvalBoth("//patient[treatment]", doc, index).size(), 1u);
  // Deleting most of the tree forces the tombstone-compaction rebuild
  // sooner or later; correctness must hold throughout.
  std::vector<NodeId> depts = EvalBoth("//dept", doc, index);
  ASSERT_EQ(depts.size(), 1u);
  doc.DeleteSubtree(depts[0]);
  index.Publish();
  EXPECT_TRUE(EvalBoth("//patient", doc, index).empty());
  EXPECT_EQ(EvalBoth("//hospital", doc, index).size(), 1u);
}

// Regression: when the bounded mutation journal drops the window the
// publisher needs, the forced full rebuild must (a) still yield a correct
// version and (b) be surfaced through the xml.journal.window_misses
// counter, on the WRITER (Publish), never a reader
// (docs/durability.md, "Observability").
TEST(StructuralIndexTest, JournalWindowMissCountsAndRebuilds) {
  obs::MetricsRegistry registry;
  obs::ScopedMetrics scoped(&registry);
  Document doc = Parse(testdata::kHospitalDoc);
  StructuralIndex index(&doc);
  index.Publish();
  EXPECT_EQ(index.builds(), 1u);

  // Overflow the journal (cap 2^16; overflow drops the oldest half) so
  // the window [synced_version, now) is gone.
  std::vector<NodeId> patients = EvalBoth("//patients", doc, index);
  ASSERT_EQ(patients.size(), 1u);
  for (int i = 0; i < (1 << 16) + 8; ++i) {
    NodeId n = doc.CreateElement(patients[0], "patient");
    doc.DeleteSubtree(n);
  }
  std::vector<xml::Mutation> mutations;
  ASSERT_FALSE(doc.MutationsSince(1, &mutations))
      << "journal window unexpectedly intact; raise the loop count";

  index.Publish();
  EXPECT_EQ(index.builds(), 2u) << "window miss must force a full rebuild";
  obs::MetricsSnapshot snapshot = registry.Snapshot();
  auto it = snapshot.counters.find("xml.journal.window_misses");
  ASSERT_NE(it, snapshot.counters.end());
  EXPECT_EQ(it->second, 1u);
  // The rebuilt index still answers correctly.
  EXPECT_EQ(EvalBoth("//patient", doc, index).size(), 3u);

  // A follow-up in-window publish replays incrementally and does not bump
  // the counter again.
  NodeId p = doc.CreateElement(patients[0], "patient");
  NodeId psn = doc.CreateElement(p, "psn");
  doc.CreateText(psn, "888");
  index.Publish();
  EXPECT_EQ(index.builds(), 2u);
  snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counters.at("xml.journal.window_misses"), 1u);
}

TEST(StructuralIndexTest, StaleIndexFallsBackToNaive) {
  Document doc = Parse(testdata::kHospitalDoc);
  StructuralIndex index(&doc);
  index.Publish();
  std::vector<NodeId> treatments = EvalBoth("//treatment", doc, index);
  ASSERT_EQ(treatments.size(), 2u);
  doc.DeleteSubtree(treatments[0]);
  // No Publish: the version predates the delete, so the dispatching
  // overload must detect the mismatch (Matches false) and answer via the
  // naive path instead of the stale streams.
  EXPECT_FALSE(index.ReadyFor(doc));
  ASSERT_NE(index.current(), nullptr);
  EXPECT_FALSE(index.current()->Matches(doc));
  obs::MetricsRegistry registry;
  obs::ScopedMetrics scoped(&registry);
  EvaluatorOptions options;
  options.index = index.current();
  EXPECT_EQ(Evaluate(MustParse("//treatment"), doc, options).size(), 1u);
  // The stale version is a missed publish: counted.  No index at all is a
  // plain request for the naive engine: not counted.
  EXPECT_EQ(registry.Snapshot().counters["xpath.structural.fallbacks"], 1u);
  EXPECT_EQ(Evaluate(MustParse("//treatment"), doc, EvaluatorOptions{})
                .size(),
            1u);
  EXPECT_EQ(registry.Snapshot().counters["xpath.structural.fallbacks"], 1u);
}

// ----- Multi-version behavior --------------------------------------------

TEST(StructuralIndexTest, PublishedVersionsAreImmutableSnapshots) {
  Document doc = Parse(testdata::kHospitalDoc);
  StructuralIndex index(&doc);
  index.Publish();
  // Hold the version across a mutation + publish by shared ownership, the
  // way a serve snapshot does.
  std::shared_ptr<const IndexVersion> v1 = index.CurrentShared();
  ASSERT_NE(v1, nullptr);
  ASSERT_TRUE(v1->Matches(doc));
  size_t patients_before = v1->TagStream("patient").size();
  std::vector<NodeId> patients = EvalBoth("//patients", doc, index);
  ASSERT_EQ(patients.size(), 1u);
  doc.CreateElement(patients[0], "patient");
  index.Publish();
  const IndexVersion* v2 = index.current();
  ASSERT_NE(v2, v1.get());
  EXPECT_TRUE(v2->Matches(doc));
  EXPECT_FALSE(v1->Matches(doc));
  // The held version is untouched by the publication — the reader contract
  // the whole MVCC design rests on.
  EXPECT_EQ(v1->TagStream("patient").size(), patients_before);
  EXPECT_EQ(v2->TagStream("patient").size(), patients_before + 1);
}

TEST(StructuralIndexTest, SharedVersionOutlivesInvalidateAndPublisher) {
  Document doc = Parse(testdata::kHospitalDoc);
  const std::vector<std::string> queries = {
      "//patient", "//dept//treatment/*/bill", "//patient[treatment]",
      "//patient[psn=\"042\"]/name"};
  auto index = std::make_unique<StructuralIndex>(&doc);
  index->Publish();
  std::shared_ptr<const IndexVersion> held = index->CurrentShared();
  ASSERT_NE(held, nullptr);
  std::vector<std::vector<NodeId>> expected;
  for (const std::string& q : queries) {
    expected.push_back(EvalBoth(q, doc, *index));
  }
  index->Invalidate();
  EXPECT_EQ(index->current(), nullptr);
  index.reset();
  // The holder is now the version's only owner: no publisher, no head.
  EXPECT_EQ(held.use_count(), 1);
  ASSERT_TRUE(held->Matches(doc));
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(EvaluateStructural(MustParse(queries[i]), doc, *held),
              expected[i])
        << queries[i];
  }
}

TEST(StructuralIndexTest, DeleteOnlyBatchSharesStreamsWithParent) {
  Document doc = Parse(testdata::kHospitalDoc);
  StructuralIndex index(&doc);
  index.Publish();
  std::shared_ptr<const IndexVersion> v1 = index.CurrentShared();
  std::vector<NodeId> patients = EvalBoth("//patient", doc, index);
  ASSERT_GE(patients.size(), 2u);
  doc.DeleteSubtree(patients[0]);
  index.Publish();
  EXPECT_EQ(index.builds(), 1u);
  const IndexVersion* v2 = index.current();
  ASSERT_NE(v2, v1.get());
  // Tombstones filter at scan time, so a delete-only batch shares the
  // parent's label vector and every stream array wholesale (COW refcounts,
  // no copies).
  EXPECT_EQ(&v2->ElementStream(), &v1->ElementStream());
  EXPECT_EQ(&v2->TagStream("patient"), &v1->TagStream("patient"));
  EXPECT_EQ(EvalBoth("//patient", doc, index).size(), patients.size() - 1);
}

// ----- Value index / =const edges ----------------------------------------

TEST(StructuralIndexTest, ValueIndexCanonicalizesNumbers) {
  Document doc = Parse("<r><a>01</a><a>1</a><a></a><a>x</a><b>1</b></r>");
  StructuralIndex index(&doc);
  index.Publish();
  // "01" and "1" are numerically equal, so they share a bucket.
  const std::vector<NodeId>* ones = index.ValueMatches("a", "1");
  ASSERT_NE(ones, nullptr);
  EXPECT_EQ(ones->size(), 2u);
  const std::vector<NodeId>* ones_padded = index.ValueMatches("a", "01");
  ASSERT_NE(ones_padded, nullptr);
  EXPECT_EQ(*ones_padded, *ones);
  // Non-numeric text matches only itself; empty text matches nothing.
  ASSERT_NE(index.ValueMatches("a", "x"), nullptr);
  EXPECT_EQ(index.ValueMatches("a", "x")->size(), 1u);
  EXPECT_EQ(index.ValueMatches("a", ""), nullptr);
  EXPECT_EQ(index.ValueMatches("a", "y"), nullptr);
  EXPECT_EQ(index.ValueMatches("nosuch", "1"), nullptr);

  EXPECT_EQ(index.CanonicalValue("01"), index.CanonicalValue("1"));
  EXPECT_EQ(index.CanonicalValue("-0"), index.CanonicalValue("0"));
  EXPECT_NE(index.CanonicalValue("01x"), index.CanonicalValue("1x"));
}

TEST(StructuralIndexTest, EqConstEdgeCasesMatchNaive) {
  Document doc = Parse("<r><a>01</a><a>1</a><a></a><a>x</a><b>1</b></r>");
  StructuralIndex index(&doc);
  index.Publish();
  EXPECT_EQ(EvalBoth("//a[. = \"1\"]", doc, index).size(), 2u);
  EXPECT_EQ(EvalBoth("//a[. = \"01\"]", doc, index).size(), 2u);
  EXPECT_EQ(EvalBoth("//r[a = \"1\"]", doc, index).size(), 1u);
  EXPECT_EQ(EvalBoth("//r[a = \"x\"]", doc, index).size(), 1u);
  // Empty text never compares equal, even to "".
  EXPECT_TRUE(EvalBoth("//r[a = \"\"]", doc, index).empty());
  EXPECT_TRUE(EvalBoth("//a[. = \"\"]", doc, index).empty());
  // Value written after the index build: the lazy buckets are invalidated
  // by the journal replay, not served stale.
  std::vector<NodeId> bs = EvalBoth("//b", doc, index);
  ASSERT_EQ(bs.size(), 1u);
  NodeId b2 = doc.CreateElement(doc.root(), "b");
  doc.CreateText(b2, "2");
  index.Publish();
  EXPECT_EQ(EvalBoth("//r[b = \"2\"]", doc, index).size(), 1u);
  EXPECT_EQ(EvalBoth("//b[. = \"2\"]", doc, index).size(), 1u);
}

// ----- Deep documents ----------------------------------------------------

TEST(StructuralIndexTest, DeepChainDocumentDoesNotOverflow) {
  // Regression: CollectDescendants used to recurse per tree level, so a
  // 50k-deep chain overflowed the call stack (reliably under ASan).  Both
  // evaluators and the labeling pass must be iterative.
  constexpr int kDepth = 50000;
  Document doc;
  NodeId cur = doc.CreateRoot("a");
  for (int i = 1; i < kDepth; ++i) cur = doc.CreateElement(cur, "b");
  doc.CreateText(doc.CreateElement(cur, "leaf"), "bottom");

  StructuralIndex index(&doc);
  index.Publish();
  EXPECT_EQ(index.label(doc.root()).level, 0u);
  EXPECT_EQ(EvalBoth("//leaf", doc, index).size(), 1u);
  EXPECT_EQ(EvalBoth("//b", doc, index).size(),
            static_cast<size_t>(kDepth - 1));
  EXPECT_EQ(EvalBoth("/a//leaf", doc, index).size(), 1u);
  EXPECT_EQ(EvalBoth("//b[leaf]", doc, index).size(), 1u);
}

// ----- Recursive schemas -------------------------------------------------

constexpr char kRecursiveDtd[] = R"(
<!ELEMENT section (title?, section*)>
<!ELEMENT title (#PCDATA)>
)";

constexpr char kRecursiveDoc[] = R"(
<section>
  <title>book</title>
  <section>
    <title>ch1</title>
    <section><title>s11</title></section>
    <section><title>s12</title></section>
  </section>
  <section>
    <title>ch2</title>
    <section>
      <title>s21</title>
      <section><title>s211</title></section>
    </section>
  </section>
</section>
)";

TEST(StructuralIndexTest, RecursiveDocumentDescendants) {
  Document doc = Parse(kRecursiveDoc);
  StructuralIndex index(&doc);
  index.Publish();
  EXPECT_EQ(EvalBoth("//section", doc, index).size(), 7u);
  EXPECT_EQ(EvalBoth("//section//section", doc, index).size(), 6u);
  EXPECT_EQ(EvalBoth("//section//section//section", doc, index).size(), 4u);
  EXPECT_EQ(EvalBoth("/section/section/section", doc, index).size(), 3u);
  // The s21 section's descendant titles: its own "s21" and nested "s211".
  EXPECT_EQ(EvalBoth("//section[title=\"s21\"]//title", doc, index).size(),
            2u);
  // book, ch2, s21, and s211 itself (its title is a proper descendant).
  EXPECT_EQ(EvalBoth("//section[.//title=\"s211\"]", doc, index).size(), 4u);
}

TEST(RelationalIntervalTest, RecursiveSchemaNeedsIntervalColumns) {
  auto dtd = xml::ParseDtd(kRecursiveDtd);
  ASSERT_TRUE(dtd.ok()) << dtd.status();
  Document doc = Parse(kRecursiveDoc);
  Path q = MustParse("//section//title");

  engine::RelationalOptions plain;
  engine::RelationalBackend chains(plain);
  ASSERT_TRUE(chains.Load(*dtd, doc).ok());
  auto unsupported = chains.EvaluateQuery(q);
  ASSERT_FALSE(unsupported.ok());
  EXPECT_EQ(unsupported.status().code(), StatusCode::kUnsupported);

  engine::RelationalOptions with_intervals;
  with_intervals.interval_columns = true;
  engine::RelationalBackend intervals(with_intervals);
  ASSERT_TRUE(intervals.Load(*dtd, doc).ok());
  engine::NativeXmlBackend native;
  ASSERT_TRUE(native.Load(*dtd, doc).ok());
  for (const char* expr :
       {"//section", "//title", "//section//title", "//section//section",
        "/section/section//title", "//section[title=\"ch1\"]//title",
        "//section[.//title=\"s211\"]", "/section//section[section]"}) {
    Path p = MustParse(expr);
    auto rel = intervals.EvaluateQuery(p);
    auto nat = native.EvaluateQuery(p);
    ASSERT_TRUE(rel.ok()) << expr << ": " << rel.status();
    ASSERT_TRUE(nat.ok()) << expr << ": " << nat.status();
    EXPECT_EQ(*rel, *nat) << expr;
  }
}

TEST(RelationalIntervalTest, InsertUnderKeepsBackendsAligned) {
  auto dtd = xml::ParseDtd(kRecursiveDtd);
  ASSERT_TRUE(dtd.ok()) << dtd.status();
  Document doc = Parse(kRecursiveDoc);
  engine::RelationalOptions options;
  options.interval_columns = true;
  engine::RelationalBackend rel(options);
  engine::NativeXmlBackend native;
  ASSERT_TRUE(rel.Load(*dtd, doc).ok());
  ASSERT_TRUE(native.Load(*dtd, doc).ok());

  Document fragment =
      Parse("<section><title>new</title><section><title>leaf</title>"
            "</section></section>");
  Path target = MustParse("//section[title=\"s12\"]");
  auto rn = rel.InsertUnder(target, fragment);
  auto nn = native.InsertUnder(target, fragment);
  ASSERT_TRUE(rn.ok()) << rn.status();
  ASSERT_TRUE(nn.ok()) << nn.status();
  EXPECT_EQ(*rn, *nn);
  for (const char* expr :
       {"//section", "//title", "//section[title=\"new\"]//title",
        "//section[title=\"s12\"]//section"}) {
    Path p = MustParse(expr);
    auto r = rel.EvaluateQuery(p);
    auto n = native.EvaluateQuery(p);
    ASSERT_TRUE(r.ok()) << expr << ": " << r.status();
    ASSERT_TRUE(n.ok()) << expr << ": " << n.status();
    EXPECT_EQ(*r, *n) << expr;
  }
}

// ----- Property: structural == naive on the generator corpus -------------

TEST(StructuralPropertyTest, MatchesNaiveOnGeneratedCorpus) {
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    testing::InstanceOptions options;
    options.seed = seed;
    options.max_doc_nodes = 120;
    testing::Instance instance = testing::GenerateInstance(options);
    StructuralIndex index(&instance.doc);
    index.Publish();
    testing::RandomPathGenerator paths(instance.doc, seed * 7919 + 1);
    for (int i = 0; i < 20; ++i) {
      Path p = paths.Next();
      std::vector<NodeId> naive = Evaluate(p, instance.doc);
      EvaluatorOptions opt;
      opt.index = index.current();
      std::vector<NodeId> structural = Evaluate(p, instance.doc, opt);
      ASSERT_EQ(naive, structural)
          << "seed " << seed << " path " << ToString(p);
    }
    // Mutate (delete one subtree, append one element), re-sync, re-check:
    // the incremental maintenance must preserve equivalence.
    std::vector<NodeId> all = Evaluate(MustParse("//*"), instance.doc);
    if (all.size() > 2) {
      instance.doc.DeleteSubtree(all[all.size() / 2]);
    }
    instance.doc.CreateElement(instance.doc.root(),
                               instance.doc.node(instance.doc.root()).label);
    index.Publish();
    for (int i = 0; i < 10; ++i) {
      Path p = paths.Next();
      std::vector<NodeId> naive = Evaluate(p, instance.doc);
      EvaluatorOptions opt;
      opt.index = index.current();
      std::vector<NodeId> structural = Evaluate(p, instance.doc, opt);
      ASSERT_EQ(naive, structural)
          << "post-update seed " << seed << " path " << ToString(p);
    }
  }
}

}  // namespace
}  // namespace xmlac::xpath
