#include "reldb/executor.h"

#include <algorithm>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "obs/metrics.h"

namespace xmlac::reldb {
namespace {

// --- Row hashing for set semantics -----------------------------------------

struct RowHash {
  size_t operator()(const Row& r) const {
    size_t h = 0x345678;
    for (const Value& v : r) {
      h = h * 1000003 + v.Hash();
    }
    return h;
  }
};

struct RowEq {
  bool operator()(const Row& a, const Row& b) const {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].TotalCompare(b[i]) != 0) return false;
    }
    return true;
  }
};

using RowSet = std::unordered_set<Row, RowHash, RowEq>;

// --- Binding environment ----------------------------------------------------

// One slot per FROM entry.
struct Slot {
  std::string alias;
  Table* table = nullptr;
};

struct BoundColumn {
  size_t slot = 0;
  size_t col = 0;
};

class Binder {
 public:
  explicit Binder(const std::vector<Slot>& slots) : slots_(slots) {}

  Result<BoundColumn> Bind(const ColumnRef& ref) const {
    if (!ref.alias.empty()) {
      for (size_t s = 0; s < slots_.size(); ++s) {
        if (slots_[s].alias == ref.alias) {
          auto col = slots_[s].table->schema().ColumnIndex(ref.column);
          if (!col.has_value()) {
            return Status::NotFound("no column '" + ref.column +
                                    "' in table aliased '" + ref.alias + "'");
          }
          return BoundColumn{s, *col};
        }
      }
      return Status::NotFound("unknown table alias '" + ref.alias + "'");
    }
    // Unqualified: must be unambiguous across slots.
    std::optional<BoundColumn> found;
    for (size_t s = 0; s < slots_.size(); ++s) {
      auto col = slots_[s].table->schema().ColumnIndex(ref.column);
      if (col.has_value()) {
        if (found.has_value()) {
          return Status::InvalidArgument("ambiguous column '" + ref.column +
                                         "'");
        }
        found = BoundColumn{s, *col};
      }
    }
    if (!found.has_value()) {
      return Status::NotFound("unknown column '" + ref.column + "'");
    }
    return *found;
  }

 private:
  const std::vector<Slot>& slots_;
};

// A partial join tuple: row index per bound slot.
using TupleRows = std::vector<RowIdx>;

// Evaluates `e` against a tuple whose slots [0, bound) are set.  Returns
// error for references to unbound slots (callers pre-classify, so this only
// fires on malformed residual placement — treated as Internal).
class ExprEvaluator {
 public:
  ExprEvaluator(const std::vector<Slot>& slots, const Binder& binder)
      : slots_(slots), binder_(binder) {}

  Result<Value> EvalValue(const Expr& e, const TupleRows& tuple) const {
    switch (e.kind) {
      case ExprKind::kLiteral:
        return e.literal;
      case ExprKind::kColumnRef: {
        XMLAC_ASSIGN_OR_RETURN(BoundColumn bc, binder_.Bind(e.column));
        if (bc.slot >= tuple.size()) {
          return Status::Internal("reference to unbound slot");
        }
        return slots_[bc.slot].table->GetValue(tuple[bc.slot], bc.col);
      }
      default:
        return Status::Internal("expected scalar expression");
    }
  }

  Result<bool> EvalBool(const Expr& e, const TupleRows& tuple) const {
    switch (e.kind) {
      case ExprKind::kAnd: {
        XMLAC_ASSIGN_OR_RETURN(bool l, EvalBool(*e.children[0], tuple));
        if (!l) return false;
        return EvalBool(*e.children[1], tuple);
      }
      case ExprKind::kOr: {
        XMLAC_ASSIGN_OR_RETURN(bool l, EvalBool(*e.children[0], tuple));
        if (l) return true;
        return EvalBool(*e.children[1], tuple);
      }
      case ExprKind::kNot: {
        XMLAC_ASSIGN_OR_RETURN(bool v, EvalBool(*e.children[0], tuple));
        return !v;
      }
      case ExprKind::kIsNull: {
        XMLAC_ASSIGN_OR_RETURN(Value v, EvalValue(*e.children[0], tuple));
        return v.is_null();
      }
      case ExprKind::kComparison: {
        XMLAC_ASSIGN_OR_RETURN(Value l, EvalValue(*e.children[0], tuple));
        XMLAC_ASSIGN_OR_RETURN(Value r, EvalValue(*e.children[1], tuple));
        int cmp;
        if (!l.SqlCompare(r, &cmp)) {
          // NULL / incomparable: false, except `<>` between comparable-but-
          // unequal types which we also leave false (SQL-NULL-ish).
          return false;
        }
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
        return Status::Internal("expected boolean expression");
    }
  }

 private:
  const std::vector<Slot>& slots_;
  const Binder& binder_;
};

// Collects the distinct slots referenced by an expression.  Returns false
// when a column fails to bind (the caller re-binds to surface the error).
bool CollectSlots(const Expr& e, const Binder& binder,
                  std::vector<size_t>* slots) {
  switch (e.kind) {
    case ExprKind::kLiteral:
      return true;
    case ExprKind::kColumnRef: {
      auto bc = binder.Bind(e.column);
      if (!bc.ok()) return false;
      if (std::find(slots->begin(), slots->end(), bc->slot) == slots->end()) {
        slots->push_back(bc->slot);
      }
      return true;
    }
    default:
      for (const ExprPtr& c : e.children) {
        if (!CollectSlots(*c, binder, slots)) return false;
      }
      return true;
  }
}

// Recognizes `a.x = b.y` between different slots.
struct EquiJoin {
  BoundColumn left;   // lower slot
  BoundColumn right;  // higher slot
};

std::optional<EquiJoin> AsEquiJoin(const Expr& e, const Binder& binder) {
  if (e.kind != ExprKind::kComparison || e.op != CompareOp::kEq) {
    return std::nullopt;
  }
  const Expr& l = *e.children[0];
  const Expr& r = *e.children[1];
  if (l.kind != ExprKind::kColumnRef || r.kind != ExprKind::kColumnRef) {
    return std::nullopt;
  }
  auto bl = binder.Bind(l.column);
  auto br = binder.Bind(r.column);
  if (!bl.ok() || !br.ok() || bl->slot == br->slot) return std::nullopt;
  EquiJoin j;
  if (bl->slot < br->slot) {
    j.left = *bl;
    j.right = *br;
  } else {
    j.left = *br;
    j.right = *bl;
  }
  return j;
}

// Recognizes `col = literal` over a single slot; returns (bound, value).
std::optional<std::pair<BoundColumn, Value>> AsPointFilter(
    const Expr& e, const Binder& binder) {
  if (e.kind != ExprKind::kComparison || e.op != CompareOp::kEq) {
    return std::nullopt;
  }
  const Expr& l = *e.children[0];
  const Expr& r = *e.children[1];
  const Expr* col = nullptr;
  const Expr* lit = nullptr;
  if (l.kind == ExprKind::kColumnRef && r.kind == ExprKind::kLiteral) {
    col = &l;
    lit = &r;
  } else if (r.kind == ExprKind::kColumnRef && l.kind == ExprKind::kLiteral) {
    col = &r;
    lit = &l;
  } else {
    return std::nullopt;
  }
  auto bc = binder.Bind(col->column);
  if (!bc.ok()) return std::nullopt;
  return std::make_pair(*bc, lit->literal);
}

void DedupeRows(ResultSet* rs) {
  RowSet seen;
  std::vector<Row> out;
  out.reserve(rs->rows.size());
  for (Row& r : rs->rows) {
    if (seen.insert(r).second) out.push_back(std::move(r));
  }
  rs->rows = std::move(out);
}

// Mirrors the ExecStats delta accrued during one public statement into the
// current metrics registry on scope exit (covers error returns too); a no-op
// when no registry is installed.
class StatsDeltaReporter {
 public:
  explicit StatsDeltaReporter(const ExecStats* stats)
      : stats_(stats), before_(*stats) {}
  StatsDeltaReporter(const StatsDeltaReporter&) = delete;
  StatsDeltaReporter& operator=(const StatsDeltaReporter&) = delete;
  ~StatsDeltaReporter() {
    if (obs::CurrentMetrics() == nullptr) return;
    obs::IncrementCounter("reldb.rows_scanned",
                          stats_->rows_scanned - before_.rows_scanned);
    obs::IncrementCounter("reldb.rows_output",
                          stats_->rows_output - before_.rows_output);
    obs::IncrementCounter("reldb.statements",
                          stats_->statements - before_.statements);
    obs::IncrementCounter("reldb.index_hits",
                          stats_->index_hits - before_.index_hits);
  }

 private:
  const ExecStats* stats_;
  ExecStats before_;
};

// Per-slot execution strategy derived from the WHERE conjuncts.
struct SlotPlan {
  std::vector<const Expr*> filters;      // single-slot, pushed to the scan
  std::optional<EquiJoin> hash_join;     // drives a hash join into the slot
  std::vector<const Expr*> join_checks;  // residual multi-slot conjuncts
};

struct SelectPlan {
  std::vector<Slot> slots;
  std::vector<SlotPlan> per_slot;
};

// Binds FROM entries and classifies conjuncts (shared by execution and
// EXPLAIN).  `q.where` must outlive the plan (conjunct pointers alias it).
Result<SelectPlan> BuildPlan(const SelectQuery& q, Catalog* catalog) {
  if (q.from.empty()) {
    return Status::InvalidArgument("SELECT requires a FROM clause");
  }
  SelectPlan plan;
  for (const TableRef& tr : q.from) {
    Table* t = catalog->GetTable(tr.table);
    if (t == nullptr) {
      return Status::NotFound("table '" + tr.table + "' not found");
    }
    for (const Slot& s : plan.slots) {
      if (s.alias == tr.effective_alias()) {
        return Status::InvalidArgument("duplicate alias '" +
                                       tr.effective_alias() + "'");
      }
    }
    plan.slots.push_back(Slot{tr.effective_alias(), t});
  }
  Binder binder(plan.slots);
  ExprEvaluator eval(plan.slots, binder);
  std::vector<const Expr*> conjuncts;
  if (q.where != nullptr) CollectConjuncts(*q.where, &conjuncts);
  plan.per_slot.resize(plan.slots.size());
  for (const Expr* c : conjuncts) {
    std::vector<size_t> used;
    if (!CollectSlots(*c, binder, &used)) {
      // Re-evaluate to surface the binding error message.
      TupleRows dummy(plan.slots.size(), 0);
      auto st = eval.EvalBool(*c, dummy);
      return st.ok() ? Status::Internal("bad slot binding") : st.status();
    }
    size_t target =
        used.empty() ? 0 : *std::max_element(used.begin(), used.end());
    if (used.size() <= 1) {
      // References at most one slot: pushable scan filter.
      plan.per_slot[target].filters.push_back(c);
      continue;
    }
    auto join = AsEquiJoin(*c, binder);
    if (join.has_value() && join->right.slot == target &&
        !plan.per_slot[target].hash_join.has_value()) {
      plan.per_slot[target].hash_join = join;
    } else {
      // Any other multi-slot conjunct is checked once all its slots are
      // bound (at `target`).
      plan.per_slot[target].join_checks.push_back(c);
    }
  }
  return plan;
}

}  // namespace

std::vector<int64_t> ResultSet::IdColumn() const {
  std::vector<int64_t> out;
  out.reserve(rows.size());
  for (const Row& r : rows) {
    if (!r.empty() && r[0].type() == ValueType::kInt64) {
      out.push_back(r[0].AsInt());
    }
  }
  return out;
}

std::string ResultSet::ToString() const {
  std::string out;
  for (size_t i = 0; i < columns.size(); ++i) {
    if (i > 0) out += " | ";
    out += columns[i];
  }
  out += '\n';
  for (const Row& r : rows) {
    for (size_t i = 0; i < r.size(); ++i) {
      if (i > 0) out += " | ";
      out += r[i].ToString();
    }
    out += '\n';
  }
  return out;
}

Result<ResultSet> Executor::ExecuteSingleSelect(const SelectQuery& q) {
  ++stats_.statements;
  XMLAC_ASSIGN_OR_RETURN(SelectPlan built, BuildPlan(q, catalog_));
  std::vector<Slot>& slots = built.slots;
  std::vector<SlotPlan>& plans = built.per_slot;
  Binder binder(slots);
  ExprEvaluator eval(slots, binder);

  // Seed with slot 0.
  std::vector<TupleRows> tuples;
  {
    Table* t = slots[0].table;
    tuples.reserve(t->AliveCount());
    for (RowIdx i = 0; i < t->Capacity(); ++i) {
      if (!t->IsAlive(i)) continue;
      TupleRows tup = {i};
      bool pass = true;
      for (const Expr* f : plans[0].filters) {
        XMLAC_ASSIGN_OR_RETURN(bool ok, eval.EvalBool(*f, tup));
        if (!ok) {
          pass = false;
          break;
        }
      }
      if (pass) tuples.push_back(std::move(tup));
    }
    stats_.rows_scanned += t->AliveCount();
  }

  // Join in remaining slots.
  for (size_t s = 1; s < slots.size(); ++s) {
    Table* t = slots[s].table;
    const SlotPlan& plan = plans[s];
    // Candidate row list for this slot, after pushed filters.
    std::vector<RowIdx> candidates;
    candidates.reserve(t->AliveCount());
    for (RowIdx i = 0; i < t->Capacity(); ++i) {
      if (!t->IsAlive(i)) continue;
      ++stats_.rows_scanned;
      candidates.push_back(i);
    }
    // Pushed single-slot filters need a tuple with slot `s` bound; evaluate
    // them against a padded tuple.
    if (!plan.filters.empty()) {
      std::vector<RowIdx> filtered;
      filtered.reserve(candidates.size());
      TupleRows padded(s + 1, 0);
      for (RowIdx i : candidates) {
        padded[s] = i;
        bool pass = true;
        for (const Expr* f : plan.filters) {
          // Filters classified to slot s reference only slot s (single-slot
          // conjunct), so the padding rows are never read.
          XMLAC_ASSIGN_OR_RETURN(bool ok, eval.EvalBool(*f, padded));
          if (!ok) {
            pass = false;
            break;
          }
        }
        if (pass) filtered.push_back(i);
      }
      candidates = std::move(filtered);
    }

    std::vector<TupleRows> next;
    if (plan.hash_join.has_value()) {
      const EquiJoin& j = *plan.hash_join;
      // Build on the new table's join column.
      std::unordered_map<Value, std::vector<RowIdx>, ValueHash> hash;
      for (RowIdx i : candidates) {
        Value v = t->GetValue(i, j.right.col);
        if (!v.is_null()) hash[std::move(v)].push_back(i);
      }
      for (const TupleRows& tup : tuples) {
        Value probe =
            slots[j.left.slot].table->GetValue(tup[j.left.slot], j.left.col);
        if (probe.is_null()) continue;
        auto it = hash.find(probe);
        if (it == hash.end()) continue;
        for (RowIdx i : it->second) {
          TupleRows grown = tup;
          grown.push_back(i);
          next.push_back(std::move(grown));
        }
      }
    } else {
      // Nested-loop cross join.
      for (const TupleRows& tup : tuples) {
        for (RowIdx i : candidates) {
          TupleRows grown = tup;
          grown.push_back(i);
          next.push_back(std::move(grown));
        }
      }
    }
    // Apply remaining join checks for this slot.
    if (!plan.join_checks.empty()) {
      std::vector<TupleRows> checked;
      for (TupleRows& tup : next) {
        bool pass = true;
        for (const Expr* c : plan.join_checks) {
          XMLAC_ASSIGN_OR_RETURN(bool ok, eval.EvalBool(*c, tup));
          if (!ok) {
            pass = false;
            break;
          }
        }
        if (pass) checked.push_back(std::move(tup));
      }
      next = std::move(checked);
    }
    tuples = std::move(next);
    if (tuples.empty()) break;
  }

  // COUNT(*): aggregate over the joined tuples.
  if (q.count_star) {
    ResultSet rs;
    rs.columns.push_back("count");
    rs.rows.push_back({Value::Int(static_cast<int64_t>(tuples.size()))});
    ++stats_.rows_output;
    return rs;
  }

  // ORDER BY: sort the full tuples (any bound column may be referenced).
  if (!q.order_by.empty()) {
    std::vector<std::pair<BoundColumn, bool>> keys;
    for (const OrderTerm& term : q.order_by) {
      XMLAC_ASSIGN_OR_RETURN(BoundColumn bc, binder.Bind(term.column));
      keys.emplace_back(bc, term.descending);
    }
    std::stable_sort(
        tuples.begin(), tuples.end(),
        [&](const TupleRows& a, const TupleRows& b) {
          for (const auto& [bc, desc] : keys) {
            Value va = slots[bc.slot].table->GetValue(a[bc.slot], bc.col);
            Value vb = slots[bc.slot].table->GetValue(b[bc.slot], bc.col);
            int cmp = va.TotalCompare(vb);
            if (cmp != 0) return desc ? cmp > 0 : cmp < 0;
          }
          return false;
        });
  }

  // Project.
  ResultSet rs;
  std::vector<BoundColumn> proj;
  for (const ColumnRef& ref : q.select) {
    XMLAC_ASSIGN_OR_RETURN(BoundColumn bc, binder.Bind(ref));
    proj.push_back(bc);
    rs.columns.push_back(ref.column);
  }
  rs.rows.reserve(tuples.size());
  for (const TupleRows& tup : tuples) {
    Row row;
    row.reserve(proj.size());
    for (const BoundColumn& bc : proj) {
      row.push_back(slots[bc.slot].table->GetValue(tup[bc.slot], bc.col));
    }
    rs.rows.push_back(std::move(row));
  }
  // DISTINCT keeps first occurrences, so a sorted input stays sorted.
  if (q.distinct) DedupeRows(&rs);
  if (q.limit.has_value() && rs.rows.size() > *q.limit) {
    rs.rows.resize(*q.limit);
  }
  stats_.rows_output += rs.rows.size();
  return rs;
}

Result<ResultSet> Executor::ExecuteSelect(const CompoundSelect& q) {
  obs::ScopedTimer timer("reldb.select_us");
  StatsDeltaReporter reporter(&stats_);
  return ExecuteCompound(q);
}

Result<ResultSet> Executor::ExecuteCompound(const CompoundSelect& q) {
  XMLAC_ASSIGN_OR_RETURN(ResultSet acc, ExecuteSingleSelect(q.first));
  if (q.rest.empty()) return acc;
  DedupeRows(&acc);
  for (const auto& [op, sub] : q.rest) {
    XMLAC_ASSIGN_OR_RETURN(ResultSet rhs, ExecuteCompound(sub));
    if (rhs.columns.size() != acc.columns.size()) {
      return Status::InvalidArgument(
          "set operation requires equal column counts");
    }
    if (op == CompoundSelect::SetOp::kUnion) {
      RowSet seen(acc.rows.begin(), acc.rows.end());
      for (Row& r : rhs.rows) {
        if (seen.insert(r).second) acc.rows.push_back(std::move(r));
      }
    } else {
      RowSet minus(rhs.rows.begin(), rhs.rows.end());
      std::vector<Row> kept;
      kept.reserve(acc.rows.size());
      for (Row& r : acc.rows) {
        if (minus.find(r) == minus.end()) kept.push_back(std::move(r));
      }
      acc.rows = std::move(kept);
    }
  }
  return acc;
}

Result<size_t> Executor::ExecuteInsert(const InsertStatement& st) {
  obs::ScopedTimer scoped_timer("reldb.insert_us");
  StatsDeltaReporter reporter(&stats_);
  ++stats_.statements;
  Table* t = catalog_->GetTable(st.table);
  if (t == nullptr) {
    return Status::NotFound("table '" + st.table + "' not found");
  }
  const TableSchema& schema = t->schema();
  // Column mapping (positional when st.columns is empty).
  std::vector<size_t> mapping;
  if (!st.columns.empty()) {
    for (const std::string& c : st.columns) {
      auto idx = schema.ColumnIndex(c);
      if (!idx.has_value()) {
        return Status::NotFound("no column '" + c + "' in " + st.table);
      }
      mapping.push_back(*idx);
    }
  }
  size_t inserted = 0;
  for (const Row& src : st.rows) {
    Row row;
    if (mapping.empty()) {
      if (src.size() != schema.num_columns()) {
        return Status::InvalidArgument("VALUES width mismatch for " +
                                       st.table);
      }
      row = src;
    } else {
      if (src.size() != mapping.size()) {
        return Status::InvalidArgument("VALUES width mismatch for " +
                                       st.table);
      }
      row.assign(schema.num_columns(), Value::Null());
      for (size_t i = 0; i < mapping.size(); ++i) row[mapping[i]] = src[i];
    }
    XMLAC_ASSIGN_OR_RETURN(RowIdx idx, t->Insert(std::move(row)));
    (void)idx;
    ++inserted;
  }
  obs::IncrementCounter("reldb.rows_inserted", inserted);
  return inserted;
}

namespace {

// Rows of `t` matching `where` (null = all).  Uses a hash index when the
// WHERE contains an indexed point conjunct.
Result<std::vector<RowIdx>> MatchRows(Table* t, const Expr* where,
                                      ExecStats* stats) {
  std::vector<Slot> slots = {Slot{t->name(), t}};
  Binder binder(slots);
  ExprEvaluator eval(slots, binder);
  std::vector<RowIdx> candidates;
  bool used_index = false;
  if (where != nullptr) {
    std::vector<const Expr*> conjuncts;
    CollectConjuncts(*where, &conjuncts);
    for (const Expr* c : conjuncts) {
      auto point = AsPointFilter(*c, binder);
      if (point.has_value() && t->HasIndex(point->first.col)) {
        candidates = t->IndexLookup(point->first.col, point->second);
        used_index = true;
        ++stats->index_hits;
        break;
      }
    }
  }
  std::vector<RowIdx> out;
  auto filter_row = [&](RowIdx i) -> Result<bool> {
    if (!t->IsAlive(i)) return false;
    ++stats->rows_scanned;
    if (where != nullptr) {
      TupleRows tup = {i};
      return eval.EvalBool(*where, tup);
    }
    return true;
  };
  if (used_index) {
    out.reserve(candidates.size());
    for (RowIdx i : candidates) {
      XMLAC_ASSIGN_OR_RETURN(bool ok, filter_row(i));
      if (ok) out.push_back(i);
    }
  } else {
    // Full scan: filter the arena directly instead of materialising an
    // all-alive candidate vector first (the sign-annotation loop's point
    // updates land here when indexes are disabled, so the copy shows up).
    out.reserve(t->AliveCount());
    for (RowIdx i = 0; i < t->Capacity(); ++i) {
      XMLAC_ASSIGN_OR_RETURN(bool ok, filter_row(i));
      if (ok) out.push_back(i);
    }
  }
  return out;
}

}  // namespace

Result<size_t> Executor::ExecuteUpdate(const UpdateStatement& st) {
  obs::ScopedTimer scoped_timer("reldb.update_us");
  StatsDeltaReporter reporter(&stats_);
  ++stats_.statements;
  Table* t = catalog_->GetTable(st.table);
  if (t == nullptr) {
    return Status::NotFound("table '" + st.table + "' not found");
  }
  std::vector<std::pair<size_t, const Value*>> sets;
  for (const auto& [col, v] : st.assignments) {
    auto idx = t->schema().ColumnIndex(col);
    if (!idx.has_value()) {
      return Status::NotFound("no column '" + col + "' in " + st.table);
    }
    sets.emplace_back(*idx, &v);
  }
  XMLAC_ASSIGN_OR_RETURN(std::vector<RowIdx> rows,
                         MatchRows(t, st.where.get(), &stats_));
  for (RowIdx i : rows) {
    for (const auto& [col, v] : sets) t->SetValue(i, col, *v);
  }
  obs::IncrementCounter("reldb.rows_updated", rows.size());
  return rows.size();
}

Result<size_t> Executor::ExecuteDelete(const DeleteStatement& st) {
  obs::ScopedTimer scoped_timer("reldb.delete_us");
  StatsDeltaReporter reporter(&stats_);
  ++stats_.statements;
  Table* t = catalog_->GetTable(st.table);
  if (t == nullptr) {
    return Status::NotFound("table '" + st.table + "' not found");
  }
  XMLAC_ASSIGN_OR_RETURN(std::vector<RowIdx> rows,
                         MatchRows(t, st.where.get(), &stats_));
  for (RowIdx i : rows) t->DeleteRow(i);
  obs::IncrementCounter("reldb.rows_deleted", rows.size());
  return rows.size();
}

Result<ResultSet> Executor::Execute(const Statement& st) {
  switch (st.kind) {
    case Statement::Kind::kSelect:
      return ExecuteSelect(st.select);
    case Statement::Kind::kInsert: {
      XMLAC_ASSIGN_OR_RETURN(size_t n, ExecuteInsert(st.insert));
      (void)n;
      return ResultSet{};
    }
    case Statement::Kind::kUpdate: {
      XMLAC_ASSIGN_OR_RETURN(size_t n, ExecuteUpdate(st.update));
      (void)n;
      return ResultSet{};
    }
    case Statement::Kind::kDelete: {
      XMLAC_ASSIGN_OR_RETURN(size_t n, ExecuteDelete(st.del));
      (void)n;
      return ResultSet{};
    }
    case Statement::Kind::kCreateTable: {
      ++stats_.statements;
      XMLAC_ASSIGN_OR_RETURN(Table * t,
                             catalog_->CreateTable(st.create.schema));
      (void)t;
      return ResultSet{};
    }
  }
  return Status::Internal("unknown statement kind");
}

Result<std::string> Executor::ExplainSelect(const CompoundSelect& q) {
  std::string out;
  // Leading select, then each set operand, recursively.
  std::function<Status(const CompoundSelect&, int)> explain =
      [&](const CompoundSelect& cq, int depth) -> Status {
    std::string indent(static_cast<size_t>(depth) * 2, ' ');
    XMLAC_ASSIGN_OR_RETURN(SelectPlan plan, BuildPlan(cq.first, catalog_));
    for (size_t s = 0; s < plan.slots.size(); ++s) {
      const Slot& slot = plan.slots[s];
      const SlotPlan& sp = plan.per_slot[s];
      out += indent;
      if (s == 0) {
        out += "SCAN " + slot.table->name() + " AS " + slot.alias;
      } else if (sp.hash_join.has_value()) {
        const EquiJoin& j = *sp.hash_join;
        out += "HASH JOIN " + slot.table->name() + " AS " + slot.alias +
               " ON " + plan.slots[j.left.slot].alias + "." +
               plan.slots[j.left.slot]
                   .table->schema()
                   .columns()[j.left.col]
                   .name +
               " = " + slot.alias + "." +
               slot.table->schema().columns()[j.right.col].name;
      } else {
        out += "NESTED LOOP " + slot.table->name() + " AS " + slot.alias;
      }
      out += " (" + std::to_string(slot.table->AliveCount()) + " rows)";
      for (const Expr* f : sp.filters) {
        out += "\n" + indent + "  FILTER " + f->ToString();
      }
      for (const Expr* c : sp.join_checks) {
        out += "\n" + indent + "  CHECK " + c->ToString();
      }
      out += '\n';
    }
    if (cq.first.distinct) out += indent + "DISTINCT\n";
    for (const auto& [op, sub] : cq.rest) {
      out += indent;
      out += op == CompoundSelect::SetOp::kUnion ? "UNION\n" : "EXCEPT\n";
      XMLAC_RETURN_IF_ERROR(explain(sub, depth + 1));
    }
    return Status::OK();
  };
  XMLAC_RETURN_IF_ERROR(explain(q, 0));
  return out;
}

Result<ResultSet> Executor::Query(std::string_view sql) {
  XMLAC_ASSIGN_OR_RETURN(Statement st, ParseSql(sql));
  return Execute(st);
}

Status Executor::Run(std::string_view script) {
  XMLAC_ASSIGN_OR_RETURN(std::vector<Statement> stmts, ParseSqlScript(script));
  for (const Statement& st : stmts) {
    auto r = Execute(st);
    if (!r.ok()) return r.status();
  }
  return Status::OK();
}

}  // namespace xmlac::reldb
