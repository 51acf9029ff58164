#include "reldb/executor.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace xmlac::reldb {
namespace {

// Runs every executor test against both storage engines.
class ExecutorTest : public ::testing::TestWithParam<StorageKind> {
 protected:
  ExecutorTest() : catalog_(GetParam()), exec_(&catalog_) {}

  void Load(std::string_view script) {
    Status st = exec_.Run(script);
    ASSERT_TRUE(st.ok()) << st;
  }

  ResultSet MustQuery(std::string_view sql) {
    auto r = exec_.Query(sql);
    EXPECT_TRUE(r.ok()) << r.status() << " for: " << sql;
    return r.ok() ? std::move(*r) : ResultSet{};
  }

  // The shredded Fig. 2 patients subtree (Table 4 of the paper).
  void LoadHospital() {
    Load(R"(
      CREATE TABLE patients (id INT, pid INT, s TEXT);
      CREATE TABLE patient (id INT, pid INT, s TEXT);
      CREATE TABLE psn (id INT, pid INT, v TEXT, s TEXT);
      CREATE TABLE name (id INT, pid INT, v TEXT, s TEXT);
      CREATE TABLE treatment (id INT, pid INT, s TEXT);
      CREATE TABLE regular (id INT, pid INT, s TEXT);
      CREATE TABLE experimental (id INT, pid INT, s TEXT);
      CREATE TABLE med (id INT, pid INT, v TEXT, s TEXT);
      CREATE TABLE bill (id INT, pid INT, v TEXT, s TEXT);
      CREATE TABLE test (id INT, pid INT, v TEXT, s TEXT);
      INSERT INTO patients VALUES (1, NULL, '-');
      INSERT INTO patient VALUES (2, 1, '-');
      INSERT INTO psn VALUES (3, 2, '033', '-');
      INSERT INTO name VALUES (8, 2, 'john doe', '+');
      INSERT INTO treatment VALUES (4, 2, '-');
      INSERT INTO regular VALUES (5, 4, '+');
      INSERT INTO med VALUES (6, 5, 'enoxaparin', '-');
      INSERT INTO bill VALUES (7, 5, '700', '+');
      INSERT INTO patient VALUES (9, 1, '-');
      INSERT INTO psn VALUES (10, 9, '042', '-');
      INSERT INTO name VALUES (15, 9, 'jane doe', '+');
      INSERT INTO treatment VALUES (11, 9, '-');
      INSERT INTO experimental VALUES (12, 11, '-');
      INSERT INTO test VALUES (13, 12, 'regression hypnosis', '+');
      INSERT INTO bill VALUES (14, 12, '1600', '+');
      INSERT INTO patient VALUES (16, 1, '+');
      INSERT INTO psn VALUES (17, 16, '099', '-');
      INSERT INTO name VALUES (18, 16, 'joy smith', '+');
    )");
  }

  // The query's id list through SelectIds.
  std::vector<int64_t> Ids(std::string_view sql) {
    auto st = ParseSql(sql);
    EXPECT_TRUE(st.ok()) << st.status() << " for: " << sql;
    if (!st.ok()) return {};
    auto ids = exec_.SelectIds(st->select);
    EXPECT_TRUE(ids.ok()) << ids.status() << " for: " << sql;
    return ids.ok() ? *ids : std::vector<int64_t>{};
  }

  Catalog catalog_;
  Executor exec_;
};

TEST_P(ExecutorTest, CreateInsertSelect) {
  LoadHospital();
  EXPECT_EQ(Ids("SELECT p.id FROM patient p"),
            (std::vector<int64_t>{2, 9, 16}));
}

TEST_P(ExecutorTest, SelectWithFilter) {
  LoadHospital();
  ResultSet rs = MustQuery("SELECT p.id FROM patient p WHERE p.pid = 1");
  EXPECT_EQ(rs.rows.size(), 3u);
  EXPECT_EQ(Ids("SELECT b.id FROM bill b WHERE b.v = '700'"),
            (std::vector<int64_t>{7}));
}

TEST_P(ExecutorTest, PaperRuleR1Join) {
  LoadHospital();
  // Q1: all patient ids under a patients element.
  EXPECT_EQ(Ids("SELECT pat1.id FROM patients pats1, patient pat1 "
                "WHERE pats1.id = pat1.pid"),
            (std::vector<int64_t>{2, 9, 16}));
}

TEST_P(ExecutorTest, PaperRuleR3Join) {
  LoadHospital();
  // Q3: patients that have a treatment child.
  EXPECT_EQ(Ids("SELECT pat1.id FROM patients pats1, patient pat1, "
                "treatment treat1 "
                "WHERE pats1.id = pat1.pid AND pat1.id = treat1.pid"),
            (std::vector<int64_t>{2, 9}));
}

TEST_P(ExecutorTest, PaperRuleR7JoinWithValue) {
  LoadHospital();
  ResultSet rs = MustQuery(
      "SELECT med1.id FROM patients pats1, patient pat1, treatment treat1, "
      "regular regular1, med med1 "
      "WHERE pats1.id = pat1.pid AND pat1.id = treat1.pid "
      "AND treat1.id = regular1.pid AND regular1.id = med1.pid "
      "AND med1.v = 'celecoxib'");
  EXPECT_TRUE(rs.rows.empty());
  EXPECT_EQ(Ids("SELECT med1.id FROM patients pats1, patient pat1, "
                "treatment treat1, regular regular1, med med1 "
                "WHERE pats1.id = pat1.pid AND pat1.id = treat1.pid "
                "AND treat1.id = regular1.pid AND regular1.id = med1.pid "
                "AND med1.v = 'enoxaparin'"),
            (std::vector<int64_t>{6}));
}

TEST_P(ExecutorTest, PaperAnnotationQueryShape) {
  LoadHospital();
  // (Q1 UNION Q2 UNION Q6) EXCEPT (Q3 UNION Q5): ids accessible under the
  // redundancy-free policy of Table 3.
  std::vector<int64_t> ids = Ids(R"(
    SELECT pat.id FROM patients pats, patient pat WHERE pats.id = pat.pid
    UNION
    SELECT n.id FROM patients pats, patient pat, name n
      WHERE pats.id = pat.pid AND pat.id = n.pid
    UNION
    SELECT r.id FROM treatment t, regular r WHERE t.id = r.pid
    EXCEPT (
      SELECT pat.id FROM patients pats, patient pat, treatment t
        WHERE pats.id = pat.pid AND pat.id = t.pid
      UNION
      SELECT pat.id FROM patients pats, patient pat, treatment t,
                         experimental e
        WHERE pats.id = pat.pid AND pat.id = t.pid AND t.id = e.pid
    )
  )");
  // Accessible: patient 16 (no treatment), names 8/15/18, regular 5.
  EXPECT_EQ(ids, (std::vector<int64_t>{5, 8, 15, 16, 18}));
}

TEST_P(ExecutorTest, UnionDeduplicates) {
  LoadHospital();
  ResultSet rs = MustQuery(
      "SELECT p.id FROM patient p UNION SELECT p.id FROM patient p");
  EXPECT_EQ(rs.rows.size(), 3u);
}

TEST_P(ExecutorTest, ExceptRemovesAll) {
  LoadHospital();
  ResultSet rs = MustQuery(
      "SELECT p.id FROM patient p EXCEPT SELECT p.id FROM patient p");
  EXPECT_TRUE(rs.rows.empty());
}

TEST_P(ExecutorTest, ComparisonOperators) {
  LoadHospital();
  EXPECT_EQ(MustQuery("SELECT b.id FROM bill b WHERE b.v > '1000'").rows.size(),
            1u);
  EXPECT_EQ(
      MustQuery("SELECT b.id FROM bill b WHERE b.v <= '700'").rows.size(), 1u);
  EXPECT_EQ(
      MustQuery("SELECT b.id FROM bill b WHERE b.v <> '700'").rows.size(), 1u);
}

TEST_P(ExecutorTest, OrAndNot) {
  LoadHospital();
  EXPECT_EQ(MustQuery("SELECT p.id FROM psn p WHERE p.v = '033' OR p.v = '042'")
                .rows.size(),
            2u);
  EXPECT_EQ(MustQuery("SELECT p.id FROM psn p WHERE NOT p.v = '033'")
                .rows.size(),
            2u);
}

TEST_P(ExecutorTest, IsNull) {
  LoadHospital();
  ResultSet rs = MustQuery("SELECT t.id FROM patients t WHERE t.pid IS NULL");
  EXPECT_EQ(rs.rows.size(), 1u);
  rs = MustQuery("SELECT t.id FROM patients t WHERE t.pid IS NOT NULL");
  EXPECT_TRUE(rs.rows.empty());
}

TEST_P(ExecutorTest, NullNeverEqual) {
  LoadHospital();
  EXPECT_TRUE(
      MustQuery("SELECT t.id FROM patients t WHERE t.pid = NULL").rows.empty());
}

TEST_P(ExecutorTest, Update) {
  LoadHospital();
  auto n = exec_.Query("UPDATE patient SET s = '+' WHERE id = 2");
  ASSERT_TRUE(n.ok()) << n.status();
  EXPECT_EQ(Ids("SELECT p.id FROM patient p WHERE p.s = '+'"),
            (std::vector<int64_t>{2, 16}));
}

TEST_P(ExecutorTest, UpdateAllRows) {
  LoadHospital();
  ASSERT_TRUE(exec_.Query("UPDATE patient SET s = '-'").ok());
  EXPECT_TRUE(
      MustQuery("SELECT p.id FROM patient p WHERE p.s = '+'").rows.empty());
}

TEST_P(ExecutorTest, Delete) {
  LoadHospital();
  ASSERT_TRUE(exec_.Query("DELETE FROM treatment WHERE pid = 2").ok());
  EXPECT_EQ(Ids("SELECT t.id FROM treatment t"),
            (std::vector<int64_t>{11}));
  // A join through the deleted tuple yields nothing.
  ResultSet rs = MustQuery(
      "SELECT r.id FROM treatment t, regular r WHERE t.id = r.pid");
  EXPECT_TRUE(rs.rows.empty());
}

TEST_P(ExecutorTest, IndexedPointUpdateUsesIndex) {
  LoadHospital();
  ASSERT_TRUE(catalog_.GetTable("patient")->CreateIndex("id").ok());
  exec_.ResetStats();
  ASSERT_TRUE(exec_.Query("UPDATE patient SET s = '+' WHERE id = 9").ok());
  EXPECT_EQ(exec_.stats().index_hits, 1u);
  // Only the indexed row was touched.
  EXPECT_EQ(exec_.stats().rows_scanned, 1u);
}

TEST_P(ExecutorTest, CrossJoinWithoutPredicate) {
  Load(R"(
    CREATE TABLE a (x INT);
    CREATE TABLE b (y INT);
    INSERT INTO a VALUES (1), (2);
    INSERT INTO b VALUES (10), (20), (30);
  )");
  ResultSet rs = MustQuery("SELECT a.x, b.y FROM a, b");
  EXPECT_EQ(rs.rows.size(), 6u);
}

TEST_P(ExecutorTest, NonEquiJoinPredicate) {
  Load(R"(
    CREATE TABLE a (x INT);
    CREATE TABLE b (y INT);
    INSERT INTO a VALUES (1), (2);
    INSERT INTO b VALUES (1), (2), (3);
  )");
  ResultSet rs = MustQuery("SELECT a.x, b.y FROM a, b WHERE a.x < b.y");
  // (1,2) (1,3) (2,3).
  EXPECT_EQ(rs.rows.size(), 3u);
}

TEST_P(ExecutorTest, SelfJoinWithAliases) {
  Load(R"(
    CREATE TABLE e (id INT, mgr INT);
    INSERT INTO e VALUES (1, NULL), (2, 1), (3, 1), (4, 2);
  )");
  EXPECT_EQ(
      Ids("SELECT b.id FROM e a, e b WHERE a.id = b.mgr AND a.mgr = 1"),
      (std::vector<int64_t>{4}));
}

TEST_P(ExecutorTest, ErrorsSurface) {
  LoadHospital();
  EXPECT_EQ(exec_.Query("SELECT x.id FROM nosuch x").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(exec_.Query("SELECT p.nosuch FROM patient p").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(
      exec_.Query("SELECT q.id FROM patient p WHERE q.id = 1").status().code(),
      StatusCode::kNotFound);
  EXPECT_EQ(exec_.Query("SELECT p.id FROM patient p, patient p")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(exec_.Query("INSERT INTO patient VALUES (1)").status().code(),
            StatusCode::kInvalidArgument);
  // Set op with mismatched widths.
  EXPECT_EQ(exec_.Query("SELECT p.id, p.pid FROM patient p UNION "
                        "SELECT p.id FROM patient p")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST_P(ExecutorTest, AmbiguousUnqualifiedColumn) {
  LoadHospital();
  EXPECT_EQ(exec_.Query("SELECT id FROM patient p, psn q").status().code(),
            StatusCode::kInvalidArgument);
}

TEST_P(ExecutorTest, InsertWithColumnListFillsNulls) {
  Load("CREATE TABLE t (id INT, pid INT, v TEXT);");
  ASSERT_TRUE(exec_.Query("INSERT INTO t (id, v) VALUES (1, 'x')").ok());
  ResultSet rs = MustQuery("SELECT t.id FROM t WHERE t.pid IS NULL");
  EXPECT_EQ(rs.rows.size(), 1u);
}

TEST_P(ExecutorTest, IndexJoinScansOnlyProbedRows) {
  LoadHospital();
  ASSERT_TRUE(catalog_.GetTable("name")->CreateIndex("pid").ok());
  const char* sql =
      "SELECT n.id FROM patient p, name n WHERE p.id = n.pid AND p.s = '+'";
  exec_.ResetStats();
  EXPECT_EQ(Ids(sql), (std::vector<int64_t>{18}));
  // The 3 patient rows, then only the one name row under patient 16: a
  // scan of name (3 rows) would make it 6.
  EXPECT_EQ(exec_.stats().rows_scanned, 3u + 1u);
  EXPECT_EQ(exec_.stats().index_hits, 1u);
  EXPECT_EQ(exec_.stats().rows_output, 1u);
}

TEST_P(ExecutorTest, UnindexedJoinScansAndHashes) {
  LoadHospital();
  exec_.ResetStats();
  EXPECT_EQ(Ids("SELECT n.id FROM patient p, name n "
                "WHERE p.id = n.pid AND p.s = '+'"),
            (std::vector<int64_t>{18}));
  EXPECT_EQ(exec_.stats().rows_scanned, 3u + 3u);
  EXPECT_EQ(exec_.stats().index_hits, 0u);
}

TEST_P(ExecutorTest, IndexJoinKeepsHashJoinOrderAfterUpdates) {
  // The same table twice, one copy indexed on the join column before rows
  // move between its buckets; both must emit the same tuples in the same
  // order (outer rows, then ascending inner rows).
  Catalog unindexed_catalog(GetParam());
  Executor unindexed(&unindexed_catalog);
  const char* setup = R"(
    CREATE TABLE p (id INT);
    CREATE TABLE c (id INT, pid INT);
    INSERT INTO p VALUES (1), (2), (3);
    INSERT INTO c VALUES (10, 1), (11, 2), (12, 3), (13, 1), (14, 2), (15, 3);
  )";
  const char* updates = R"(
    UPDATE c SET pid = 1 WHERE id = 15;
    UPDATE c SET pid = 1 WHERE id = 11;
    DELETE FROM c WHERE id = 13;
    INSERT INTO c VALUES (16, 1);
  )";
  Load(setup);
  ASSERT_TRUE(catalog_.GetTable("c")->CreateIndex("pid").ok());
  Load(updates);
  ASSERT_TRUE(unindexed.Run(setup).ok());
  ASSERT_TRUE(unindexed.Run(updates).ok());
  const char* sql = "SELECT c.id FROM p, c WHERE p.id = c.pid";
  auto st = ParseSql(sql);
  ASSERT_TRUE(st.ok()) << st.status();
  auto plan = exec_.ExplainSelect(st->select);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_NE(plan->find("INDEX JOIN c"), std::string::npos) << *plan;
  auto hashed = unindexed.Query(sql);
  ASSERT_TRUE(hashed.ok()) << hashed.status();
  EXPECT_EQ(MustQuery(sql).ToString(), hashed->ToString());
  EXPECT_EQ(hashed->ToString(), "id\n10\n11\n15\n16\n14\n12\n");
}

TEST_P(ExecutorTest, SelectIdsRejectsAnythingButOneIntColumn) {
  LoadHospital();
  auto code = [&](std::string_view sql) {
    auto st = ParseSql(sql);
    EXPECT_TRUE(st.ok()) << st.status();
    return st.ok() ? exec_.SelectIds(st->select).status().code()
                   : StatusCode::kInternal;
  };
  EXPECT_EQ(code("SELECT p.id, p.pid FROM patient p"),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code("SELECT p.id FROM patient p UNION "
                 "SELECT p.id, p.pid FROM patient p"),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code("SELECT p.id FROM patient p EXCEPT SELECT n.v FROM name n"),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code("SELECT COUNT(*) FROM patient p"),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code("SELECT p.id FROM patient p LIMIT 1"),
            StatusCode::kInvalidArgument);
  // An INT column holding NULL (the root's pid) is not an id list either.
  EXPECT_EQ(code("SELECT t.pid FROM patients t"),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code("SELECT p.nosuch FROM patient p"), StatusCode::kNotFound);
  // Any INT column is fine; the result is a set.
  EXPECT_EQ(Ids("SELECT p.pid FROM patient p"), (std::vector<int64_t>{1}));
}

INSTANTIATE_TEST_SUITE_P(Engines, ExecutorTest,
                         ::testing::Values(StorageKind::kRowStore,
                                           StorageKind::kColumnStore),
                         [](const auto& info) {
                           return info.param == StorageKind::kRowStore
                                      ? "RowStore"
                                      : "ColumnStore";
                         });

TEST(CatalogTest, CreateDropGet) {
  Catalog c(StorageKind::kRowStore);
  auto t = c.CreateTable(TableSchema("t", {{"id", ValueType::kInt64}}));
  ASSERT_TRUE(t.ok());
  EXPECT_NE(c.GetTable("t"), nullptr);
  EXPECT_EQ(c.NumTables(), 1u);
  EXPECT_EQ(c.CreateTable(TableSchema("t", {})).status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(c.DropTable("t").ok());
  EXPECT_EQ(c.GetTable("t"), nullptr);
  EXPECT_EQ(c.DropTable("t").code(), StatusCode::kNotFound);
}

TEST(CatalogTest, TotalRows) {
  Catalog c(StorageKind::kColumnStore);
  auto t1 = c.CreateTable(TableSchema("a", {{"x", ValueType::kInt64}}));
  auto t2 = c.CreateTable(TableSchema("b", {{"x", ValueType::kInt64}}));
  ASSERT_TRUE(t1.ok() && t2.ok());
  ASSERT_TRUE((*t1)->Insert({Value::Int(1)}).ok());
  ASSERT_TRUE((*t2)->Insert({Value::Int(2)}).ok());
  ASSERT_TRUE((*t2)->Insert({Value::Int(3)}).ok());
  EXPECT_EQ(c.TotalRows(), 3u);
}

}  // namespace
}  // namespace xmlac::reldb
