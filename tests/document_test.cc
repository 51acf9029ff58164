#include "xml/document.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace xmlac::xml {
namespace {

Document MakeHospitalFragment() {
  // hospital/dept/patients/patient{psn,name}
  Document doc;
  NodeId hospital = doc.CreateRoot("hospital");
  NodeId dept = doc.CreateElement(hospital, "dept");
  NodeId patients = doc.CreateElement(dept, "patients");
  NodeId patient = doc.CreateElement(patients, "patient");
  NodeId psn = doc.CreateElement(patient, "psn");
  doc.CreateText(psn, "033");
  NodeId name = doc.CreateElement(patient, "name");
  doc.CreateText(name, "john doe");
  return doc;
}

TEST(DocumentTest, BuildAndNavigate) {
  Document doc = MakeHospitalFragment();
  EXPECT_EQ(doc.node(doc.root()).label, "hospital");
  EXPECT_EQ(doc.alive_count(), 8u);
  ASSERT_EQ(doc.node(doc.root()).children.size(), 1u);
  NodeId dept = doc.node(doc.root()).children[0];
  EXPECT_EQ(doc.node(dept).label, "dept");
  EXPECT_EQ(doc.node(dept).parent, doc.root());
}

TEST(DocumentTest, DirectText) {
  Document doc = MakeHospitalFragment();
  auto elements = doc.AllElements();
  NodeId psn = kInvalidNode;
  for (NodeId id : elements) {
    if (doc.node(id).label == "psn") psn = id;
  }
  ASSERT_NE(psn, kInvalidNode);
  EXPECT_EQ(doc.DirectText(psn), "033");
  EXPECT_EQ(doc.DirectText(doc.root()), "");
}

TEST(DocumentTest, Attributes) {
  Document doc;
  NodeId root = doc.CreateRoot("r");
  EXPECT_FALSE(doc.GetAttribute(root, "sign").has_value());
  doc.SetAttribute(root, "sign", "+");
  ASSERT_TRUE(doc.GetAttribute(root, "sign").has_value());
  EXPECT_EQ(*doc.GetAttribute(root, "sign"), "+");
  doc.SetAttribute(root, "sign", "-");
  EXPECT_EQ(*doc.GetAttribute(root, "sign"), "-");
  EXPECT_TRUE(doc.RemoveAttribute(root, "sign"));
  EXPECT_FALSE(doc.RemoveAttribute(root, "sign"));
  EXPECT_FALSE(doc.GetAttribute(root, "sign").has_value());
}

TEST(DocumentTest, DeleteSubtreeKillsDescendantsAndUnlinks) {
  Document doc = MakeHospitalFragment();
  auto elements = doc.AllElements();
  NodeId patient = kInvalidNode;
  for (NodeId id : elements) {
    if (doc.node(id).label == "patient") patient = id;
  }
  ASSERT_NE(patient, kInvalidNode);
  NodeId patients = doc.node(patient).parent;
  size_t before = doc.alive_count();
  doc.DeleteSubtree(patient);
  EXPECT_FALSE(doc.IsAlive(patient));
  EXPECT_EQ(doc.alive_count(), before - 5);  // patient, psn, text, name, text
  EXPECT_TRUE(doc.node(patients).children.empty());
  // NodeIds are never reused.
  NodeId fresh = doc.CreateElement(patients, "patient");
  EXPECT_GT(fresh, patient);
}

TEST(DocumentTest, DeleteRootEmptiesDocument) {
  Document doc = MakeHospitalFragment();
  doc.DeleteSubtree(doc.root());
  EXPECT_EQ(doc.alive_count(), 0u);
  EXPECT_FALSE(doc.IsAlive(doc.root()));
}

TEST(DocumentTest, VisitIsPreOrderDocumentOrder) {
  Document doc = MakeHospitalFragment();
  std::vector<std::string> labels;
  doc.Visit(doc.root(), [&](NodeId id) {
    if (doc.node(id).kind == NodeKind::kElement) {
      labels.push_back(doc.node(id).label);
    }
  });
  std::vector<std::string> expected = {"hospital", "dept", "patients",
                                       "patient", "psn", "name"};
  EXPECT_EQ(labels, expected);
}

TEST(DocumentTest, VisitSkipsDeleted) {
  Document doc = MakeHospitalFragment();
  for (NodeId id : doc.AllElements()) {
    if (doc.node(id).label == "psn") doc.DeleteSubtree(id);
  }
  std::vector<std::string> labels;
  doc.Visit(doc.root(), [&](NodeId id) { labels.push_back(doc.node(id).label); });
  for (const auto& l : labels) EXPECT_NE(l, "psn");
}

TEST(DocumentTest, PathOfAndDepth) {
  Document doc = MakeHospitalFragment();
  NodeId psn = kInvalidNode;
  for (NodeId id : doc.AllElements()) {
    if (doc.node(id).label == "psn") psn = id;
  }
  EXPECT_EQ(doc.PathOf(psn), "/hospital/dept/patients/patient/psn");
  EXPECT_EQ(doc.DepthOf(psn), 4);
  EXPECT_EQ(doc.DepthOf(doc.root()), 0);
  EXPECT_EQ(doc.Height(), 4);
}

// Binary roundtrip (the durable formats — WAL install records and
// checkpoints — lean on these invariants; see docs/durability.md).
TEST(DocumentTest, BinaryRoundTripPreservesArena) {
  Document doc = MakeHospitalFragment();
  // Create a tombstone so the roundtrip exercises dead slots too.
  NodeId victim = kInvalidNode;
  for (NodeId id : doc.AllElements()) {
    if (doc.node(id).label == "name") victim = id;
  }
  ASSERT_NE(victim, kInvalidNode);
  doc.DeleteSubtree(victim);
  uint64_t version = doc.version();

  std::string blob;
  doc.AppendBinary(&blob);
  auto restored = Document::FromBinary(blob);
  ASSERT_TRUE(restored.ok()) << restored.status();

  // NodeIds, arena order, tombstones, and the version all survive.
  EXPECT_EQ(restored->version(), version);
  EXPECT_EQ(restored->alive_count(), doc.alive_count());
  EXPECT_EQ(restored->root(), doc.root());
  std::vector<std::pair<NodeId, std::string>> orig, back;
  doc.Visit(doc.root(), [&](NodeId id) {
    orig.emplace_back(id, doc.node(id).label);
  });
  restored->Visit(restored->root(), [&](NodeId id) {
    back.emplace_back(id, restored->node(id).label);
  });
  EXPECT_EQ(orig, back);

  // Replaying the same logical mutation against the restored arena
  // allocates the same id the original run allocates — the property WAL
  // decision-replay depends on.
  NodeId parent = doc.root();
  NodeId a = doc.CreateElement(parent, "ward");
  NodeId b = restored->CreateElement(restored->root(), "ward");
  EXPECT_EQ(a, b);
  EXPECT_EQ(doc.version(), restored->version());
}

TEST(DocumentTest, BinaryRestoreStartsEmptyJournalWindow) {
  Document doc = MakeHospitalFragment();
  std::string blob;
  doc.AppendBinary(&blob);
  auto restored = Document::FromBinary(blob);
  ASSERT_TRUE(restored.ok());
  // The journal is not dumped: asking for history from version 0 fails
  // (rebuild-from-scratch signal), while "since current version" is fine.
  std::vector<Mutation> mutations;
  if (restored->version() > 0) {
    EXPECT_FALSE(restored->MutationsSince(0, &mutations));
  }
  EXPECT_TRUE(restored->MutationsSince(restored->version(), &mutations));
  EXPECT_TRUE(mutations.empty());
  // New mutations journal normally from here.
  restored->CreateElement(restored->root(), "annex");
  ASSERT_TRUE(restored->MutationsSince(restored->version() - 1, &mutations));
  EXPECT_EQ(mutations.size(), 1u);
}

// A past state caught up by the store's journal delta is the store again:
// same arena (ids, tombstones, children order, attributes of new nodes),
// same version — and attribute writes made to it meanwhile survive.
TEST(DocumentTest, CatchUpFromReplaysTheStoreJournal) {
  Document store = MakeHospitalFragment();
  Document past = store.Clone();
  EXPECT_EQ(past.lineage(), store.lineage());
  EXPECT_NE(MakeHospitalFragment().lineage(), store.lineage());
  past.SetAttribute(past.root(), "sign", "+");

  NodeId patients = 2;
  NodeId patient = store.CreateElement(patients, "patient");
  store.SetAttribute(patient, "ward", "b");
  store.CreateText(store.CreateElement(patient, "psn"), "034");
  NodeId doomed = store.CreateElement(patient, "name");
  store.DeleteSubtree(3);  // the original patient
  store.CreateText(doomed, "jane doe");
  store.DeleteSubtree(doomed);
  store.CreateElement(patients, "patient");

  std::vector<Mutation> delta;
  ASSERT_TRUE(store.MutationsSince(past.version(), &delta));
  past.CatchUpFrom(store, delta);
  EXPECT_EQ(past.version(), store.version());
  EXPECT_EQ(past.size(), store.size());
  EXPECT_EQ(past.alive_count(), store.alive_count());
  EXPECT_EQ(past.GetAttribute(past.root(), "sign"), "+");
  past.RemoveAttribute(past.root(), "sign");
  std::string want, got;
  store.AppendBinary(&want);
  past.AppendBinary(&got);
  EXPECT_EQ(got, want);
}

TEST(DocumentTest, FromBinaryRejectsCorruptBlob) {
  Document doc = MakeHospitalFragment();
  std::string blob;
  doc.AppendBinary(&blob);
  EXPECT_FALSE(Document::FromBinary("").ok());
  EXPECT_FALSE(Document::FromBinary(blob.substr(0, blob.size() / 2)).ok());
}

TEST(DocumentTest, MoveSemantics) {
  Document doc = MakeHospitalFragment();
  size_t n = doc.alive_count();
  Document moved = std::move(doc);
  EXPECT_EQ(moved.alive_count(), n);
  EXPECT_EQ(moved.node(moved.root()).label, "hospital");
}

}  // namespace
}  // namespace xmlac::xml
