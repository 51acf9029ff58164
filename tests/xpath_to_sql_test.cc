#include "shred/xpath_to_sql.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "reldb/executor.h"
#include "shred/shredder.h"
#include "tests/testdata.h"
#include "xml/dtd.h"
#include "xml/parser.h"
#include "xpath/evaluator.h"
#include "xpath/parser.h"

namespace xmlac::shred {
namespace {

// End-to-end oracle test: for each XPath expression the translated SQL over
// the shredded document must return exactly the NodeIds the tree evaluator
// returns.  This is the correctness core of the ShreX substitution.
class XPathToSqlTest : public ::testing::TestWithParam<reldb::StorageKind> {
 protected:
  void SetUp() override {
    auto dtd = xml::ParseDtd(testdata::kHospitalDtd);
    ASSERT_TRUE(dtd.ok()) << dtd.status();
    mapping_ = std::make_unique<ShredMapping>(*dtd);
    auto doc = xml::ParseDocument(testdata::kHospitalDoc);
    ASSERT_TRUE(doc.ok()) << doc.status();
    doc_ = std::move(*doc);
    catalog_ = std::make_unique<reldb::Catalog>(GetParam());
    ASSERT_TRUE(mapping_->CreateTables(catalog_.get()).ok());
    ASSERT_TRUE(ShredToCatalog(doc_, *mapping_, catalog_.get(), '-').ok());
    exec_ = std::make_unique<reldb::Executor>(catalog_.get());
  }

  std::vector<int64_t> SqlIds(std::string_view expr) {
    auto path = xpath::ParsePath(expr);
    EXPECT_TRUE(path.ok()) << path.status();
    auto tr = TranslateXPath(*path, *mapping_);
    EXPECT_TRUE(tr.ok()) << tr.status() << " for " << expr;
    if (!tr.ok() || tr->empty) return {};
    auto ids = exec_->SelectIds(tr->query);
    EXPECT_TRUE(ids.ok()) << ids.status() << " for " << tr->query.ToSql();
    return ids.ok() ? *ids : std::vector<int64_t>{};
  }

  std::vector<int64_t> TreeIds(std::string_view expr) {
    auto path = xpath::ParsePath(expr);
    EXPECT_TRUE(path.ok()) << path.status();
    std::vector<int64_t> ids;
    for (xml::NodeId id : xpath::Evaluate(*path, doc_)) {
      ids.push_back(static_cast<int64_t>(id));
    }
    std::sort(ids.begin(), ids.end());
    return ids;
  }

  void ExpectAgreement(std::string_view expr) {
    EXPECT_EQ(SqlIds(expr), TreeIds(expr)) << expr;
  }

  std::unique_ptr<ShredMapping> mapping_;
  xml::Document doc_;
  std::unique_ptr<reldb::Catalog> catalog_;
  std::unique_ptr<reldb::Executor> exec_;
};

TEST_P(XPathToSqlTest, RootAndChildChains) {
  ExpectAgreement("/hospital");
  ExpectAgreement("/hospital/dept");
  ExpectAgreement("/hospital/dept/patients/patient");
  ExpectAgreement("/hospital/dept/patients/patient/name");
}

TEST_P(XPathToSqlTest, DescendantAxis) {
  ExpectAgreement("//patient");
  ExpectAgreement("//name");
  ExpectAgreement("//bill");
  ExpectAgreement("//hospital");
  ExpectAgreement("/hospital//name");
  ExpectAgreement("//patient//bill");
  ExpectAgreement("//staff//name");
}

TEST_P(XPathToSqlTest, Wildcards) {
  ExpectAgreement("/*");
  ExpectAgreement("/hospital/*");
  ExpectAgreement("//patient/*");
  ExpectAgreement("//*");
  ExpectAgreement("//treatment/*");
}

TEST_P(XPathToSqlTest, ExistencePredicates) {
  ExpectAgreement("//patient[treatment]");
  ExpectAgreement("//patient[name]");
  ExpectAgreement("//patient[.//experimental]");
  ExpectAgreement("//dept[patients/patient]");
  ExpectAgreement("//patient[treatment[regular]]");
}

TEST_P(XPathToSqlTest, ValuePredicates) {
  ExpectAgreement("//regular[med=\"celecoxib\"]");
  ExpectAgreement("//regular[med=\"enoxaparin\"]");
  ExpectAgreement("//patient[psn=\"099\"]");
  ExpectAgreement("//regular[bill > 1000]");
  ExpectAgreement("//regular[bill > 500]");
  ExpectAgreement("//experimental[bill >= 1600]");
  ExpectAgreement("//bill[. > 1000]");
  ExpectAgreement("//med[. = \"enoxaparin\"]");
  ExpectAgreement("//treatment[.//bill != 700]");
}

TEST_P(XPathToSqlTest, Conjunctions) {
  ExpectAgreement("//patient[treatment and name]");
  ExpectAgreement("//patient[treatment and psn=\"033\"]");
  ExpectAgreement("//patient[treatment][name]");
}

TEST_P(XPathToSqlTest, PaperPolicyRuleScopes) {
  // Every resource of Table 1.
  for (const char* rule :
       {"//patient", "//patient/name", "//patient[treatment]",
        "//patient[treatment]/name", "//patient[.//experimental]",
        "//regular", "//regular[med=\"celecoxib\"]",
        "//regular[bill > 1000]"}) {
    ExpectAgreement(rule);
  }
}

TEST_P(XPathToSqlTest, EmptyBySchema) {
  auto path = xpath::ParsePath("/nosuchroot");
  ASSERT_TRUE(path.ok());
  auto tr = TranslateXPath(*path, *mapping_);
  ASSERT_TRUE(tr.ok()) << tr.status();
  EXPECT_TRUE(tr->empty);
  // A child step not allowed by the schema.
  path = xpath::ParsePath("/hospital/patient");
  tr = TranslateXPath(*path, *mapping_);
  ASSERT_TRUE(tr.ok());
  EXPECT_TRUE(tr->empty);
  // Unknown label under descendant axis.
  path = xpath::ParsePath("//alien");
  tr = TranslateXPath(*path, *mapping_);
  ASSERT_TRUE(tr.ok());
  EXPECT_TRUE(tr->empty);
}

TEST_P(XPathToSqlTest, ComparisonOnStructureOnlyElementIsEmpty) {
  // patient has no text content; `[. = "x"]` can never hold.
  auto path = xpath::ParsePath("//patient[. = \"x\"]");
  ASSERT_TRUE(path.ok());
  auto tr = TranslateXPath(*path, *mapping_);
  ASSERT_TRUE(tr.ok());
  EXPECT_TRUE(tr->empty);
}

TEST_P(XPathToSqlTest, ResultTablesReported) {
  auto path = xpath::ParsePath("//patient/*");
  ASSERT_TRUE(path.ok());
  auto tr = TranslateXPath(*path, *mapping_);
  ASSERT_TRUE(tr.ok());
  std::vector<std::string> expected = {"name", "psn", "treatment"};
  EXPECT_EQ(tr->result_tables, expected);
}

TEST_P(XPathToSqlTest, TranslatedSqlIsParseable) {
  auto path = xpath::ParsePath("//patient[.//experimental]/name");
  ASSERT_TRUE(path.ok());
  auto tr = TranslateXPath(*path, *mapping_);
  ASSERT_TRUE(tr.ok());
  std::string sql = tr->query.ToSql();
  auto reparsed = reldb::ParseSql(sql);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status() << "\n" << sql;
  auto rs = exec_->Execute(*reparsed);
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->rows.size(), TreeIds("//patient[.//experimental]/name").size());
}

TEST_P(XPathToSqlTest, RecursiveSchemaUnsupported) {
  auto dtd = xml::ParseDtd("<!ELEMENT a (a?, b)><!ELEMENT b (#PCDATA)>");
  ASSERT_TRUE(dtd.ok());
  ShredMapping rec(*dtd);
  auto path = xpath::ParsePath("//b");
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(TranslateXPath(*path, rec).status().code(),
            StatusCode::kUnsupported);
}

TEST_P(XPathToSqlTest, RelativePathRejected) {
  xpath::Path rel;  // empty, non-absolute
  EXPECT_EQ(TranslateXPath(rel, *mapping_).status().code(),
            StatusCode::kInvalidArgument);
}

INSTANTIATE_TEST_SUITE_P(Engines, XPathToSqlTest,
                         ::testing::Values(reldb::StorageKind::kRowStore,
                                           reldb::StorageKind::kColumnStore),
                         [](const auto& info) {
                           return info.param == reldb::StorageKind::kRowStore
                                      ? "RowStore"
                                      : "ColumnStore";
                         });

}  // namespace
}  // namespace xmlac::shred
