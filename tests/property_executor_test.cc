// Differential test: the query executor (index and hash joins, pushed
// filters, index fast paths, the row and the id projections) against a
// brute-force reference evaluator (full cartesian product, direct expression
// evaluation) on random tables and queries.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/random.h"
#include "reldb/executor.h"

namespace xmlac::reldb {
namespace {

// --- Reference evaluation ---------------------------------------------------

struct RefBinding {
  const Table* table;
  RowIdx row;
};

Value RefEvalValue(const Expr& e,
                   const std::map<std::string, RefBinding>& env) {
  if (e.kind == ExprKind::kLiteral) return e.literal;
  // ColumnRef: alias must be present in this reference dialect.
  auto it = env.find(e.column.alias);
  EXPECT_NE(it, env.end()) << e.column.alias;
  auto col = it->second.table->schema().ColumnIndex(e.column.column);
  EXPECT_TRUE(col.has_value());
  return it->second.table->GetValue(it->second.row, *col);
}

bool RefEvalBool(const Expr& e, const std::map<std::string, RefBinding>& env) {
  switch (e.kind) {
    case ExprKind::kAnd:
      return RefEvalBool(*e.children[0], env) &&
             RefEvalBool(*e.children[1], env);
    case ExprKind::kOr:
      return RefEvalBool(*e.children[0], env) ||
             RefEvalBool(*e.children[1], env);
    case ExprKind::kNot:
      return !RefEvalBool(*e.children[0], env);
    case ExprKind::kIsNull:
      return RefEvalValue(*e.children[0], env).is_null();
    case ExprKind::kComparison: {
      Value l = RefEvalValue(*e.children[0], env);
      Value r = RefEvalValue(*e.children[1], env);
      int cmp;
      if (!l.SqlCompare(r, &cmp)) return false;
      switch (e.op) {
        case CompareOp::kEq:
          return cmp == 0;
        case CompareOp::kNe:
          return cmp != 0;
        case CompareOp::kLt:
          return cmp < 0;
        case CompareOp::kLe:
          return cmp <= 0;
        case CompareOp::kGt:
          return cmp > 0;
        case CompareOp::kGe:
          return cmp >= 0;
      }
      return false;
    }
    default:
      ADD_FAILURE() << "unexpected expr kind";
      return false;
  }
}

// Full cartesian product evaluation of a single SELECT.
std::vector<Row> RefSelect(const SelectQuery& q, Catalog* catalog) {
  std::vector<const Table*> tables;
  std::vector<std::string> aliases;
  for (const TableRef& tr : q.from) {
    tables.push_back(catalog->GetTable(tr.table));
    aliases.push_back(tr.effective_alias());
  }
  std::vector<Row> out;
  std::vector<RowIdx> idx(tables.size(), 0);
  // Odometer over alive rows.
  std::function<void(size_t, std::map<std::string, RefBinding>&)> rec =
      [&](size_t slot, std::map<std::string, RefBinding>& env) {
        if (slot == tables.size()) {
          if (q.where != nullptr && !RefEvalBool(*q.where, env)) return;
          Row row;
          for (const ColumnRef& ref : q.select) {
            const RefBinding& b = env.at(ref.alias);
            auto col = b.table->schema().ColumnIndex(ref.column);
            row.push_back(b.table->GetValue(b.row, *col));
          }
          out.push_back(std::move(row));
          return;
        }
        for (RowIdx i = 0; i < tables[slot]->Capacity(); ++i) {
          if (!tables[slot]->IsAlive(i)) continue;
          env[aliases[slot]] = RefBinding{tables[slot], i};
          rec(slot + 1, env);
        }
        env.erase(aliases[slot]);
      };
  std::map<std::string, RefBinding> env;
  rec(0, env);
  return out;
}

// --- Random instance generation ---------------------------------------------

std::string SortedRows(std::vector<Row> rows) {
  std::vector<std::string> lines;
  for (const Row& r : rows) {
    std::string line;
    for (const Value& v : r) {
      line += v.ToString();
      line += '|';
    }
    lines.push_back(std::move(line));
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (auto& l : lines) {
    out += l;
    out += '\n';
  }
  return out;
}

// Three small tables with overlapping value domains so joins hit.  Each
// column of a table is indexed or not at random; after indexing some rows
// are updated (moving them between index buckets) and some deleted.
void FillTables(Random& rng, Catalog* catalog) {
  for (const char* name : {"t1", "t2", "t3"}) {
    auto t = catalog->CreateTable(TableSchema(
        name, {{"a", ValueType::kInt64},
               {"b", ValueType::kInt64},
               {"s", ValueType::kString}}));
    ASSERT_TRUE(t.ok());
    auto random_b = [&] {
      return rng.OneIn(8)
                 ? Value::Null()
                 : Value::Int(static_cast<int64_t>(rng.Uniform(6)));
    };
    size_t rows = 3 + rng.Uniform(12);
    for (size_t i = 0; i < rows; ++i) {
      Row row = {Value::Int(static_cast<int64_t>(rng.Uniform(6))), random_b(),
                 Value::Str(std::string(1, static_cast<char>(
                                               'a' + rng.Uniform(4))))};
      ASSERT_TRUE((*t)->Insert(std::move(row)).ok());
    }
    for (const char* col : {"a", "b"}) {
      if (rng.OneIn(2)) {
        ASSERT_TRUE((*t)->CreateIndex(col).ok());
      }
    }
    for (RowIdx i = 0; i < rows; ++i) {
      if (rng.OneIn(5)) {
        (*t)->SetValue(i, 0, Value::Int(static_cast<int64_t>(rng.Uniform(6))));
        (*t)->SetValue(i, 1, random_b());
      }
      if (rng.OneIn(5)) (*t)->DeleteRow(i);
    }
  }
}

// The reference's answer for SelectIds: the sorted distinct values of a
// one-column INT projection, or nullopt where SelectIds must refuse.
std::optional<std::vector<int64_t>> RefIds(const SelectQuery& q,
                                           const std::vector<Row>& rows) {
  if (q.select.size() != 1 || q.select[0].column == "s") return std::nullopt;
  std::set<int64_t> ids;
  for (const Row& r : rows) {
    if (r[0].type() != ValueType::kInt64) return std::nullopt;
    ids.insert(r[0].AsInt());
  }
  return std::vector<int64_t>(ids.begin(), ids.end());
}

class ExecutorPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExecutorPropertyTest, MatchesBruteForceReference) {
  Random rng(GetParam() * 7 + 13);
  for (auto kind : {StorageKind::kRowStore, StorageKind::kColumnStore}) {
    Catalog catalog(kind);
    FillTables(rng, &catalog);
    if (HasFatalFailure()) return;
    Executor exec(&catalog);

    auto random_operand = [&](const std::vector<std::string>& aliases) {
      if (rng.OneIn(3)) {
        return rng.OneIn(4)
                   ? Expr::Literal(Value::Str(std::string(
                         1, static_cast<char>('a' + rng.Uniform(4)))))
                   : Expr::Literal(
                         Value::Int(static_cast<int64_t>(rng.Uniform(6))));
      }
      const char* cols[] = {"a", "b", "s"};
      return Expr::Column(aliases[rng.Uniform(aliases.size())],
                          cols[rng.Uniform(3)]);
    };
    auto random_where = [&](const std::vector<std::string>& aliases) {
      ExprPtr e;
      int conjuncts = 1 + static_cast<int>(rng.Uniform(3));
      for (int i = 0; i < conjuncts; ++i) {
        ExprPtr c;
        if (rng.OneIn(5)) {
          c = Expr::IsNull(random_operand(aliases));
          if (rng.OneIn(2)) c = Expr::Not(std::move(c));
        } else {
          auto op = static_cast<CompareOp>(rng.Uniform(6));
          c = Expr::Compare(op, random_operand(aliases),
                            random_operand(aliases));
        }
        e = e == nullptr ? std::move(c)
                         : (rng.OneIn(4) ? Expr::Or(std::move(e), std::move(c))
                                         : Expr::And(std::move(e),
                                                     std::move(c)));
      }
      return e;
    };

    // A SELECT over 1-3 random slots; `id_column` makes it project one
    // INT column, as the operands of SelectIds do.
    auto random_select = [&](bool id_column) {
      SelectQuery q;
      size_t slots = 1 + rng.Uniform(3);
      const char* names[] = {"t1", "t2", "t3"};
      std::vector<std::string> aliases;
      for (size_t s = 0; s < slots; ++s) {
        TableRef tr;
        tr.table = names[rng.Uniform(3)];
        tr.alias = "x" + std::to_string(s);
        aliases.push_back(tr.alias);
        q.from.push_back(tr);
      }
      size_t ncols = id_column ? 1 : 1 + rng.Uniform(2);
      const char* cols[] = {"a", "b", "s"};
      for (size_t c = 0; c < ncols; ++c) {
        q.select.push_back({aliases[rng.Uniform(aliases.size())],
                            cols[rng.Uniform(id_column ? 2 : 3)]});
      }
      if (!rng.OneIn(5)) q.where = random_where(aliases);
      // Most later slots join an earlier one on an INT column, as the
      // shredder's pid chains do, so index joins (and their NULL probes)
      // meet the random filters above.
      for (size_t s = 1; s < slots; ++s) {
        if (rng.OneIn(4)) continue;
        const char* int_cols[] = {"a", "b"};
        ExprPtr join = Expr::Compare(
            CompareOp::kEq, Expr::Column(aliases[s], int_cols[rng.Uniform(2)]),
            Expr::Column(aliases[rng.Uniform(s)], int_cols[rng.Uniform(2)]));
        if (rng.OneIn(2)) std::swap(join->children[0], join->children[1]);
        q.where = q.where == nullptr
                      ? std::move(join)
                      : Expr::And(std::move(q.where), std::move(join));
      }
      return q;
    };

    for (int round = 0; round < 25; ++round) {
      // Failure reports lead with the seed, like the testing/ harness: the
      // whole round is deterministic in it, so "seed N round R" is a repro.
      SCOPED_TRACE("seed " + std::to_string(GetParam()) + " round " +
                   std::to_string(round) + " storage " +
                   (kind == StorageKind::kRowStore ? "row" : "column"));
      SelectQuery q = random_select(/*id_column=*/false);
      std::vector<Row> expected = RefSelect(q, &catalog);
      CompoundSelect cq;
      cq.first = q.Clone();
      auto got = exec.ExecuteSelect(cq);
      ASSERT_TRUE(got.ok()) << got.status() << "\n" << q.ToSql();
      EXPECT_EQ(SortedRows(got->rows), SortedRows(expected)) << q.ToSql();
      auto ids = exec.SelectIds(cq);
      auto want_ids = RefIds(q, expected);
      if (want_ids.has_value()) {
        ASSERT_TRUE(ids.ok()) << ids.status() << "\n" << q.ToSql();
        EXPECT_EQ(*ids, *want_ids) << q.ToSql();
      } else {
        EXPECT_EQ(ids.status().code(), StatusCode::kInvalidArgument)
            << q.ToSql();
      }
    }

    // UNION / EXCEPT chains (left-associative, set semantics) through both
    // projections.
    for (int round = 0; round < 10; ++round) {
      SCOPED_TRACE("seed " + std::to_string(GetParam()) + " compound " +
                   std::to_string(round) + " storage " +
                   (kind == StorageKind::kRowStore ? "row" : "column"));
      CompoundSelect cq;
      cq.first = random_select(/*id_column=*/true);
      std::vector<Row> first = RefSelect(cq.first, &catalog);
      std::set<std::string> want_rows;
      for (const Row& r : first) want_rows.insert(SortedRows({r}));
      std::optional<std::vector<int64_t>> want_ids = RefIds(cq.first, first);
      std::set<int64_t> id_set;
      if (want_ids.has_value()) {
        id_set.insert(want_ids->begin(), want_ids->end());
      }
      size_t operands = 1 + rng.Uniform(3);
      for (size_t k = 0; k < operands; ++k) {
        auto op = rng.OneIn(2) ? CompoundSelect::SetOp::kUnion
                               : CompoundSelect::SetOp::kExcept;
        CompoundSelect sub;
        sub.first = random_select(/*id_column=*/true);
        std::vector<Row> rows = RefSelect(sub.first, &catalog);
        auto sub_ids = RefIds(sub.first, rows);
        for (const Row& r : rows) {
          if (op == CompoundSelect::SetOp::kUnion) {
            want_rows.insert(SortedRows({r}));
          } else {
            want_rows.erase(SortedRows({r}));
          }
        }
        if (!sub_ids.has_value()) want_ids.reset();
        if (want_ids.has_value()) {
          for (int64_t id : *sub_ids) {
            if (op == CompoundSelect::SetOp::kUnion) {
              id_set.insert(id);
            } else {
              id_set.erase(id);
            }
          }
        }
        cq.rest.emplace_back(op, std::move(sub));
      }
      auto got = exec.ExecuteSelect(cq);
      ASSERT_TRUE(got.ok()) << got.status() << "\n" << cq.ToSql();
      std::string want_text;
      for (const std::string& line : want_rows) want_text += line;
      EXPECT_EQ(SortedRows(got->rows), want_text) << cq.ToSql();
      auto ids = exec.SelectIds(cq);
      if (want_ids.has_value()) {
        ASSERT_TRUE(ids.ok()) << ids.status() << "\n" << cq.ToSql();
        EXPECT_EQ(*ids, std::vector<int64_t>(id_set.begin(), id_set.end()))
            << cq.ToSql();
      } else {
        EXPECT_EQ(ids.status().code(), StatusCode::kInvalidArgument)
            << cq.ToSql();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutorPropertyTest,
                         ::testing::Range<uint64_t>(1, 7));

}  // namespace
}  // namespace xmlac::reldb
