#include <gtest/gtest.h>

#include "reldb/executor.h"
#include "shred/shredder.h"
#include "shred/xpath_to_sql.h"
#include "tests/testdata.h"
#include "xml/dtd.h"
#include "xml/parser.h"
#include "xpath/parser.h"

namespace xmlac::reldb {
namespace {

class ExplainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dtd = xml::ParseDtd(testdata::kHospitalDtd);
    auto doc = xml::ParseDocument(testdata::kHospitalDoc);
    ASSERT_TRUE(dtd.ok() && doc.ok());
    mapping_ = std::make_unique<shred::ShredMapping>(*dtd);
    catalog_ = std::make_unique<Catalog>(StorageKind::kRowStore);
    ASSERT_TRUE(mapping_->CreateTables(catalog_.get()).ok());
    ASSERT_TRUE(
        shred::ShredToCatalog(*doc, *mapping_, catalog_.get(), '-').ok());
    exec_ = std::make_unique<Executor>(catalog_.get());
  }

  std::string Explain(std::string_view sql) {
    auto st = ParseSql(sql);
    EXPECT_TRUE(st.ok()) << st.status();
    auto plan = exec_->ExplainSelect(st->select);
    EXPECT_TRUE(plan.ok()) << plan.status();
    return plan.ok() ? *plan : "";
  }

  std::unique_ptr<shred::ShredMapping> mapping_;
  std::unique_ptr<Catalog> catalog_;
  std::unique_ptr<Executor> exec_;
};

TEST_F(ExplainTest, SingleTableScan) {
  std::string plan = Explain("SELECT p.id FROM patient p WHERE p.s = '-'");
  EXPECT_NE(plan.find("SCAN patient AS p (3 rows)"), std::string::npos)
      << plan;
  EXPECT_NE(plan.find("FILTER p.s = '-'"), std::string::npos) << plan;
}

TEST_F(ExplainTest, IndexJoinRecognized) {
  // Shredded tables carry id/pid indexes, so the pid join probes the index.
  std::string plan = Explain(
      "SELECT t.id FROM patient p, treatment t WHERE p.id = t.pid");
  EXPECT_NE(plan.find("SCAN patient AS p"), std::string::npos) << plan;
  EXPECT_NE(plan.find("INDEX JOIN treatment AS t ON p.id = t.pid"),
            std::string::npos)
      << plan;
  EXPECT_EQ(plan.find("HASH JOIN"), std::string::npos) << plan;
}

TEST_F(ExplainTest, HashJoinRecognized) {
  // An equi-join on a column without an index: text values here, and the
  // pid join itself in a store built without indexes (ablation A3).
  std::string plan =
      Explain("SELECT n.id FROM psn p, name n WHERE p.v = n.v");
  EXPECT_NE(plan.find("HASH JOIN name AS n ON p.v = n.v"), std::string::npos)
      << plan;
  Catalog unindexed(StorageKind::kRowStore);
  ASSERT_TRUE(mapping_->CreateTables(&unindexed, /*with_indexes=*/false).ok());
  Executor exec(&unindexed);
  auto st = ParseSql(
      "SELECT t.id FROM patient p, treatment t WHERE p.id = t.pid");
  ASSERT_TRUE(st.ok()) << st.status();
  auto unindexed_plan = exec.ExplainSelect(st->select);
  ASSERT_TRUE(unindexed_plan.ok()) << unindexed_plan.status();
  EXPECT_NE(unindexed_plan->find("HASH JOIN treatment AS t ON p.id = t.pid"),
            std::string::npos)
      << *unindexed_plan;
  EXPECT_EQ(unindexed_plan->find("INDEX JOIN"), std::string::npos)
      << *unindexed_plan;
}

TEST_F(ExplainTest, CrossJoinFallsBackToNestedLoop) {
  std::string plan = Explain("SELECT p.id FROM patient p, psn q");
  EXPECT_NE(plan.find("NESTED LOOP psn AS q"), std::string::npos) << plan;
}

TEST_F(ExplainTest, NonEquiJoinIsCheck) {
  std::string plan = Explain(
      "SELECT p.id FROM patient p, psn q WHERE p.id < q.id");
  EXPECT_NE(plan.find("NESTED LOOP"), std::string::npos) << plan;
  EXPECT_NE(plan.find("CHECK p.id < q.id"), std::string::npos) << plan;
}

TEST_F(ExplainTest, CompoundShowsSetOps) {
  std::string plan = Explain(
      "SELECT p.id FROM patient p UNION SELECT t.id FROM treatment t "
      "EXCEPT SELECT r.id FROM regular r");
  EXPECT_NE(plan.find("UNION"), std::string::npos) << plan;
  EXPECT_NE(plan.find("EXCEPT"), std::string::npos) << plan;
  EXPECT_NE(plan.find("  SCAN treatment AS t"), std::string::npos) << plan;
}

TEST_F(ExplainTest, TranslatedAnnotationQueryExplains) {
  auto path = xpath::ParsePath("//patient[.//experimental]/name");
  ASSERT_TRUE(path.ok());
  auto tr = shred::TranslateXPath(*path, *mapping_);
  ASSERT_TRUE(tr.ok());
  auto plan = exec_->ExplainSelect(tr->query);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_NE(plan->find("INDEX JOIN"), std::string::npos) << *plan;
  EXPECT_EQ(plan->find("HASH JOIN"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("DISTINCT"), std::string::npos) << *plan;
}

TEST_F(ExplainTest, ErrorsSurface) {
  auto st = ParseSql("SELECT x.id FROM nosuch x");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(exec_->ExplainSelect(st->select).status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace xmlac::reldb
