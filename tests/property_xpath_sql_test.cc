// Property suite: the XPath-to-SQL translation agrees with the tree
// evaluator on randomly generated queries over randomly generated
// documents — the oracle property the whole relational pipeline rests on.

#include <gtest/gtest.h>

#include <algorithm>

#include "reldb/executor.h"
#include "shred/shredder.h"
#include "shred/xpath_to_sql.h"
#include "testing/generators.h"
#include "workload/hospital.h"
#include "workload/xmark.h"
#include "xpath/evaluator.h"

namespace xmlac::shred {
namespace {

struct Corpus {
  xml::Document doc;
  std::unique_ptr<ShredMapping> mapping;
  std::unique_ptr<reldb::Catalog> catalog;
  std::unique_ptr<reldb::Executor> exec;
};

Corpus MakeXmarkCorpus(double factor, uint64_t seed,
                       reldb::StorageKind kind) {
  Corpus c;
  workload::XmarkGenerator gen;
  workload::XmarkOptions opt;
  opt.factor = factor;
  opt.seed = seed;
  c.doc = gen.Generate(opt);
  auto dtd = workload::XmarkGenerator::ParseXmarkDtd();
  EXPECT_TRUE(dtd.ok());
  c.mapping = std::make_unique<ShredMapping>(*dtd);
  c.catalog = std::make_unique<reldb::Catalog>(kind);
  EXPECT_TRUE(c.mapping->CreateTables(c.catalog.get()).ok());
  EXPECT_TRUE(ShredToCatalog(c.doc, *c.mapping, c.catalog.get(), '-').ok());
  c.exec = std::make_unique<reldb::Executor>(c.catalog.get());
  return c;
}

std::vector<int64_t> TreeIds(const xpath::Path& p, const xml::Document& doc) {
  std::vector<int64_t> out;
  for (xml::NodeId id : xpath::Evaluate(p, doc)) {
    out.push_back(static_cast<int64_t>(id));
  }
  std::sort(out.begin(), out.end());
  return out;
}

// The translated query's ids through SelectIds, which must equal the row
// path's DISTINCT result.
std::vector<int64_t> SqlIds(reldb::Executor& exec,
                            const reldb::CompoundSelect& q) {
  auto ids = exec.SelectIds(q);
  EXPECT_TRUE(ids.ok()) << ids.status() << " for " << q.ToSql();
  auto rs = exec.ExecuteSelect(q);
  EXPECT_TRUE(rs.ok()) << rs.status() << " for " << q.ToSql();
  if (!ids.ok() || !rs.ok()) return {};
  std::vector<int64_t> from_rows;
  for (const reldb::Row& r : rs->rows) from_rows.push_back(r[0].AsInt());
  std::sort(from_rows.begin(), from_rows.end());
  EXPECT_EQ(*ids, from_rows) << q.ToSql();
  return *ids;
}

class XPathSqlPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(XPathSqlPropertyTest, TranslationAgreesWithEvaluator) {
  uint64_t seed = GetParam();
  Corpus c = MakeXmarkCorpus(0.01, seed,
                             seed % 2 == 0 ? reldb::StorageKind::kRowStore
                                           : reldb::StorageKind::kColumnStore);
  testing::RandomPathGenerator gen(c.doc, seed * 7919 + 1);
  for (int i = 0; i < 60; ++i) {
    xpath::Path p = gen.Next();
    auto tr = TranslateXPath(p, *c.mapping);
    if (!tr.ok() && tr.status().code() == StatusCode::kUnsupported) {
      continue;  // wildcard fan-out beyond the translator's branch budget
    }
    ASSERT_TRUE(tr.ok()) << tr.status() << " for " << xpath::ToString(p);
    std::vector<int64_t> sql_ids;
    if (!tr->empty) {
      sql_ids = SqlIds(*c.exec, tr->query);
    }
    EXPECT_EQ(sql_ids, TreeIds(p, c.doc)) << xpath::ToString(p);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, XPathSqlPropertyTest,
                         ::testing::Range<uint64_t>(1, 9));

// The same property on schemas from the shared instance generator
// (testing/generators.h) — random content-model shapes XMark and hospital
// never produce.  A failure names the seed; regenerate the instance with it.
class XPathSqlGeneratedPropertyTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(XPathSqlGeneratedPropertyTest, TranslationAgreesWithEvaluator) {
  uint64_t seed = GetParam();
  testing::InstanceOptions opt;
  opt.seed = seed;
  testing::Instance instance = testing::GenerateInstance(opt);
  ShredMapping mapping(instance.dtd);
  reldb::Catalog catalog(seed % 2 == 0 ? reldb::StorageKind::kRowStore
                                       : reldb::StorageKind::kColumnStore);
  ASSERT_TRUE(mapping.CreateTables(&catalog).ok());
  ASSERT_TRUE(ShredToCatalog(instance.doc, mapping, &catalog, '-').ok());
  reldb::Executor exec(&catalog);

  testing::RandomPathGenerator gen(instance.doc, seed * 7919 + 5);
  for (int i = 0; i < 40; ++i) {
    xpath::Path p = gen.Next();
    auto tr = TranslateXPath(p, mapping);
    if (!tr.ok() && tr.status().code() == StatusCode::kUnsupported) {
      continue;
    }
    ASSERT_TRUE(tr.ok()) << tr.status() << " for " << xpath::ToString(p)
                         << " (seed " << seed << ")";
    std::vector<int64_t> sql_ids;
    if (!tr->empty) {
      sql_ids = SqlIds(exec, tr->query);
    }
    EXPECT_EQ(sql_ids, TreeIds(p, instance.doc))
        << xpath::ToString(p) << " (seed " << seed << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, XPathSqlGeneratedPropertyTest,
                         ::testing::Range<uint64_t>(1, 9));

// Same property on the hospital domain, whose schema has choice content
// models and shared labels (name under patient/nurse/doctor).
TEST(XPathSqlHospitalPropertyTest, TranslationAgreesWithEvaluator) {
  workload::HospitalGenerator gen;
  workload::HospitalOptions opt;
  opt.departments = 3;
  opt.patients_per_department = 25;
  xml::Document doc = gen.Generate(opt);
  auto dtd = workload::HospitalGenerator::ParseHospitalDtd();
  ASSERT_TRUE(dtd.ok());
  ShredMapping mapping(*dtd);
  reldb::Catalog catalog(reldb::StorageKind::kRowStore);
  ASSERT_TRUE(mapping.CreateTables(&catalog).ok());
  ASSERT_TRUE(ShredToCatalog(doc, mapping, &catalog, '-').ok());
  reldb::Executor exec(&catalog);

  testing::RandomPathGenerator paths(doc, 424242);
  for (int i = 0; i < 120; ++i) {
    xpath::Path p = paths.Next();
    auto tr = TranslateXPath(p, mapping);
    if (!tr.ok() && tr.status().code() == StatusCode::kUnsupported) {
      continue;
    }
    ASSERT_TRUE(tr.ok()) << tr.status() << " for " << xpath::ToString(p);
    std::vector<int64_t> sql_ids;
    if (!tr->empty) {
      sql_ids = SqlIds(exec, tr->query);
    }
    EXPECT_EQ(sql_ids, TreeIds(p, doc)) << xpath::ToString(p);
  }
}

}  // namespace
}  // namespace xmlac::shred
