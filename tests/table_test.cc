#include "reldb/table.h"

#include <gtest/gtest.h>

namespace xmlac::reldb {
namespace {

TableSchema PatientSchema() {
  return TableSchema("patient", {{"id", ValueType::kInt64},
                                 {"pid", ValueType::kInt64},
                                 {"v", ValueType::kString},
                                 {"s", ValueType::kString}});
}

Row MakeRow(int64_t id, int64_t pid, const char* v, const char* s) {
  return {Value::Int(id), Value::Int(pid), Value::Str(v), Value::Str(s)};
}

// Both storage layouts must behave identically through the Table interface.
class TableParamTest : public ::testing::TestWithParam<StorageKind> {
 protected:
  std::unique_ptr<Table> Make() { return MakeTable(PatientSchema(), GetParam()); }
};

TEST_P(TableParamTest, InsertAndGet) {
  auto t = Make();
  ASSERT_TRUE(t->Insert(MakeRow(1, 0, "a", "-")).ok());
  ASSERT_TRUE(t->Insert(MakeRow(2, 1, "b", "-")).ok());
  EXPECT_EQ(t->AliveCount(), 2u);
  EXPECT_EQ(t->Capacity(), 2u);
  EXPECT_EQ(t->GetValue(0, 0).AsInt(), 1);
  EXPECT_EQ(t->GetValue(1, 2).AsString(), "b");
  Row r = t->GetRow(1);
  ASSERT_EQ(r.size(), 4u);
  EXPECT_EQ(r[1].AsInt(), 1);
}

TEST_P(TableParamTest, InsertRejectsWrongWidth) {
  auto t = Make();
  auto r = t->Insert({Value::Int(1)});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_P(TableParamTest, SetValue) {
  auto t = Make();
  ASSERT_TRUE(t->Insert(MakeRow(1, 0, "a", "-")).ok());
  t->SetValue(0, 3, Value::Str("+"));
  EXPECT_EQ(t->GetValue(0, 3).AsString(), "+");
}

TEST_P(TableParamTest, DeleteTombstones) {
  auto t = Make();
  ASSERT_TRUE(t->Insert(MakeRow(1, 0, "a", "-")).ok());
  ASSERT_TRUE(t->Insert(MakeRow(2, 1, "b", "-")).ok());
  t->DeleteRow(0);
  EXPECT_FALSE(t->IsAlive(0));
  EXPECT_TRUE(t->IsAlive(1));
  EXPECT_EQ(t->AliveCount(), 1u);
  EXPECT_EQ(t->Capacity(), 2u);
  t->DeleteRow(0);  // idempotent
  EXPECT_EQ(t->AliveCount(), 1u);
}

TEST_P(TableParamTest, IndexLookup) {
  auto t = Make();
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(t->Insert(MakeRow(i, i / 10, "v", "-")).ok());
  }
  ASSERT_TRUE(t->CreateIndex("pid").ok());
  auto col = t->schema().ColumnIndex("pid");
  ASSERT_TRUE(col.has_value());
  EXPECT_TRUE(t->HasIndex(*col));
  const std::vector<RowIdx>* rows = t->IndexProbe(*col, Value::Int(3));
  ASSERT_NE(rows, nullptr);
  EXPECT_EQ(rows->size(), 10u);
  for (RowIdx i : *rows) EXPECT_EQ(t->GetValue(i, *col).AsInt(), 3);
  EXPECT_EQ(t->IndexProbe(*col, Value::Int(42)), nullptr);
}

TEST_P(TableParamTest, IndexMaintainedAcrossMutations) {
  auto t = Make();
  ASSERT_TRUE(t->CreateIndex("id").ok());
  size_t id_col = *t->schema().ColumnIndex("id");
  // Insert after index creation.
  ASSERT_TRUE(t->Insert(MakeRow(7, 0, "a", "-")).ok());
  ASSERT_NE(t->IndexProbe(id_col, Value::Int(7)), nullptr);
  EXPECT_EQ(t->IndexProbe(id_col, Value::Int(7))->size(), 1u);
  // Update moves the entry.
  t->SetValue(0, id_col, Value::Int(8));
  EXPECT_EQ(t->IndexProbe(id_col, Value::Int(7)), nullptr);
  ASSERT_NE(t->IndexProbe(id_col, Value::Int(8)), nullptr);
  EXPECT_EQ(t->IndexProbe(id_col, Value::Int(8))->size(), 1u);
  // Delete removes it.
  t->DeleteRow(0);
  EXPECT_EQ(t->IndexProbe(id_col, Value::Int(8)), nullptr);
}

TEST_P(TableParamTest, IndexBucketsStayInRowOrderAcrossUpdates) {
  auto t = Make();
  ASSERT_TRUE(t->CreateIndex("pid").ok());
  size_t pid_col = *t->schema().ColumnIndex("pid");
  for (int64_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(t->Insert(MakeRow(i, i % 2, "v", "-")).ok());
  }
  // Rows 5, 3 and 1 move into pid 0's bucket, in descending row order; a
  // delete and a re-insert follow.
  t->SetValue(5, pid_col, Value::Int(0));
  t->SetValue(3, pid_col, Value::Int(0));
  t->SetValue(1, pid_col, Value::Int(0));
  t->DeleteRow(2);
  ASSERT_TRUE(t->Insert(MakeRow(6, 0, "v", "-")).ok());
  const std::vector<RowIdx>* rows = t->IndexProbe(pid_col, Value::Int(0));
  ASSERT_NE(rows, nullptr);
  EXPECT_EQ(*rows, (std::vector<RowIdx>{0, 1, 3, 4, 5, 6}));
  EXPECT_EQ(t->IndexProbe(pid_col, Value::Int(1)), nullptr);
}

TEST_P(TableParamTest, DuplicateIndexRejected) {
  auto t = Make();
  ASSERT_TRUE(t->CreateIndex("id").ok());
  EXPECT_EQ(t->CreateIndex("id").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(t->CreateIndex("nope").code(), StatusCode::kNotFound);
}

INSTANTIATE_TEST_SUITE_P(Layouts, TableParamTest,
                         ::testing::Values(StorageKind::kRowStore,
                                           StorageKind::kColumnStore),
                         [](const auto& info) {
                           return info.param == StorageKind::kRowStore
                                      ? "RowStore"
                                      : "ColumnStore";
                         });

TEST(ColumnStoreTest, ColumnAccessor) {
  ColumnStoreTable t(PatientSchema());
  ASSERT_TRUE(t.Insert(MakeRow(1, 0, "a", "-")).ok());
  ASSERT_TRUE(t.Insert(MakeRow(2, 1, "b", "+")).ok());
  const auto& signs = t.column(3);
  ASSERT_EQ(signs.size(), 2u);
  EXPECT_EQ(signs[1].AsString(), "+");
}

TEST(TableFactoryTest, KindsMatch) {
  EXPECT_EQ(MakeTable(PatientSchema(), StorageKind::kRowStore)->storage_kind(),
            StorageKind::kRowStore);
  EXPECT_EQ(
      MakeTable(PatientSchema(), StorageKind::kColumnStore)->storage_kind(),
      StorageKind::kColumnStore);
}

}  // namespace
}  // namespace xmlac::reldb
