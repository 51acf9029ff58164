#include "reldb/executor.h"

#include <algorithm>
#include <functional>
#include <iterator>
#include <numeric>
#include <span>
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

// A WHERE expression whose column references are resolved to (slot,
// column) once per statement; `expr` is the source node (kind, operator,
// literal).
struct BoundExpr {
  const Expr* expr = nullptr;
  BoundColumn column;  // kColumnRef
  std::vector<BoundExpr> children;
};

// Binds `e` in a boolean (or, with `scalar`, a value) position and adds the
// slots it references to `slots`.
Result<BoundExpr> BindExpr(const Expr& e, const Binder& binder, bool scalar,
                           std::vector<size_t>* slots) {
  BoundExpr out;
  out.expr = &e;
  bool is_scalar =
      e.kind == ExprKind::kLiteral || e.kind == ExprKind::kColumnRef;
  if (is_scalar != scalar) {
    return Status::InvalidArgument(
        std::string(scalar ? "expected scalar" : "expected boolean") +
        " expression: " + e.ToString());
  }
  if (e.kind == ExprKind::kColumnRef) {
    XMLAC_ASSIGN_OR_RETURN(out.column, binder.Bind(e.column));
    if (std::find(slots->begin(), slots->end(), out.column.slot) ==
        slots->end()) {
      slots->push_back(out.column.slot);
    }
    return out;
  }
  // AND/OR/NOT combine conditions; IS NULL and comparisons take values.
  bool scalar_children =
      e.kind == ExprKind::kIsNull || e.kind == ExprKind::kComparison;
  out.children.reserve(e.children.size());
  for (const ExprPtr& c : e.children) {
    XMLAC_ASSIGN_OR_RETURN(BoundExpr bc,
                           BindExpr(*c, binder, scalar_children, slots));
    out.children.push_back(std::move(bc));
  }
  return out;
}

// Evaluates bound expressions against a tuple: one row index per slot, at
// least up to the highest slot the expression references.
class ExprEvaluator {
 public:
  explicit ExprEvaluator(const std::vector<Slot>& slots) : slots_(slots) {}

  const Value& EvalValue(const BoundExpr& e,
                         std::span<const RowIdx> tuple) const {
    if (e.expr->kind == ExprKind::kLiteral) return e.expr->literal;
    return slots_[e.column.slot].table->GetValue(tuple[e.column.slot],
                                                 e.column.col);
  }

  bool EvalBool(const BoundExpr& e, std::span<const RowIdx> tuple) const {
    switch (e.expr->kind) {
      case ExprKind::kAnd:
        return EvalBool(e.children[0], tuple) &&
               EvalBool(e.children[1], tuple);
      case ExprKind::kOr:
        return EvalBool(e.children[0], tuple) ||
               EvalBool(e.children[1], tuple);
      case ExprKind::kNot:
        return !EvalBool(e.children[0], tuple);
      case ExprKind::kIsNull:
        return EvalValue(e.children[0], tuple).is_null();
      case ExprKind::kComparison: {
        int cmp;
        // NULL / incomparable: false, except `<>` between comparable-but-
        // unequal types which we also leave false (SQL-NULL-ish).
        if (!EvalValue(e.children[0], tuple)
                 .SqlCompare(EvalValue(e.children[1], tuple), &cmp)) {
          return false;
        }
        switch (e.expr->op) {
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
        return false;  // BindExpr admits only the kinds above here
    }
  }

  bool AllTrue(const std::vector<BoundExpr>& conjuncts,
               std::span<const RowIdx> tuple) const {
    for (const BoundExpr& c : conjuncts) {
      if (!EvalBool(c, tuple)) return false;
    }
    return true;
  }

 private:
  const std::vector<Slot>& slots_;
};

// Recognizes `a.x = b.y` between different slots.
struct EquiJoin {
  BoundColumn left;   // lower slot
  BoundColumn right;  // higher slot
};

std::optional<EquiJoin> AsEquiJoin(const BoundExpr& e) {
  if (e.expr->kind != ExprKind::kComparison || e.expr->op != CompareOp::kEq) {
    return std::nullopt;
  }
  const BoundExpr& l = e.children[0];
  const BoundExpr& r = e.children[1];
  if (l.expr->kind != ExprKind::kColumnRef ||
      r.expr->kind != ExprKind::kColumnRef ||
      l.column.slot == r.column.slot) {
    return std::nullopt;
  }
  return l.column.slot < r.column.slot ? EquiJoin{l.column, r.column}
                                       : EquiJoin{r.column, l.column};
}

// Recognizes `col = literal` over a single slot; returns (bound, value).
std::optional<std::pair<BoundColumn, const Value*>> AsPointFilter(
    const BoundExpr& e) {
  if (e.expr->kind != ExprKind::kComparison || e.expr->op != CompareOp::kEq) {
    return std::nullopt;
  }
  const BoundExpr& l = e.children[0];
  const BoundExpr& r = e.children[1];
  if (l.expr->kind == ExprKind::kColumnRef &&
      r.expr->kind == ExprKind::kLiteral) {
    return std::make_pair(l.column, &r.expr->literal);
  }
  if (r.expr->kind == ExprKind::kColumnRef &&
      l.expr->kind == ExprKind::kLiteral) {
    return std::make_pair(r.column, &l.expr->literal);
  }
  return std::nullopt;
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
  std::vector<BoundExpr> filters;  // single-slot, run on the slot's rows
  std::optional<EquiJoin> join;    // the equi-join that brings the slot in
  bool index_join = false;         // `join` probes the slot's index
  std::vector<BoundExpr> checks;   // residual multi-slot conjuncts
};

struct SelectPlan {
  std::vector<Slot> slots;
  std::vector<SlotPlan> per_slot;
};

// Binds FROM entries and classifies conjuncts (shared by execution and
// EXPLAIN).  `q.where` must outlive the plan (bound conjuncts alias it).
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
  std::vector<const Expr*> conjuncts;
  if (q.where != nullptr) CollectConjuncts(*q.where, &conjuncts);
  plan.per_slot.resize(plan.slots.size());
  for (const Expr* c : conjuncts) {
    std::vector<size_t> used;
    XMLAC_ASSIGN_OR_RETURN(BoundExpr bound,
                           BindExpr(*c, binder, /*scalar=*/false, &used));
    size_t target =
        used.empty() ? 0 : *std::max_element(used.begin(), used.end());
    SlotPlan& sp = plan.per_slot[target];
    if (used.size() <= 1) {
      // References at most one slot: filters that slot's rows.
      sp.filters.push_back(std::move(bound));
      continue;
    }
    auto join = AsEquiJoin(bound);
    if (join.has_value() && join->right.slot == target &&
        !sp.join.has_value()) {
      sp.join = join;
      sp.index_join = plan.slots[target].table->HasIndex(join->right.col);
    } else {
      // Any other multi-slot conjunct is checked once all its slots are
      // bound (at `target`).
      sp.checks.push_back(std::move(bound));
    }
  }
  return plan;
}

// The joined tuples of one SELECT in one arena: `stride` row indices per
// tuple, one per slot bound so far.
struct Tuples {
  size_t stride = 1;
  std::vector<RowIdx> rows;

  size_t size() const { return rows.size() / stride; }
  std::span<const RowIdx> operator[](size_t k) const {
    return {rows.data() + k * stride, stride};
  }
};

// The join core behind every SELECT: a left-deep join in FROM order.  Slot 0
// is scanned.  A later slot whose equi-join column has a persistent index is
// probed once per outer tuple (index nested-loop join), so only the probed
// rows are read; any other slot is scanned and filtered once, then hash
// joined on its equi-join or cross joined.  `rows_scanned` counts the rows
// read: every alive row of a scanned slot, every probed row of an indexed
// one.
Tuples Join(const SelectPlan& plan, ExecStats* stats) {
  const std::vector<Slot>& slots = plan.slots;
  ExprEvaluator eval(slots);
  Tuples out;
  {
    const Table* t = slots[0].table;
    const std::vector<BoundExpr>& filters = plan.per_slot[0].filters;
    out.rows.reserve(t->AliveCount());
    for (RowIdx i = 0; i < t->Capacity(); ++i) {
      if (t->IsAlive(i) && eval.AllTrue(filters, {&i, 1})) {
        out.rows.push_back(i);
      }
    }
    stats->rows_scanned += t->AliveCount();
  }
  for (size_t s = 1; s < slots.size() && !out.rows.empty(); ++s) {
    const Table* t = slots[s].table;
    const SlotPlan& sp = plan.per_slot[s];
    Tuples next;
    next.stride = s + 1;
    // Appends outer tuple `k` extended by row `i` of slot s, and keeps it
    // when the slot's filters (unless already applied) and checks hold.
    auto extend = [&](size_t k, RowIdx i, bool filtered) {
      std::span<const RowIdx> outer = out[k];
      next.rows.insert(next.rows.end(), outer.begin(), outer.end());
      next.rows.push_back(i);
      std::span<const RowIdx> tuple = next[next.size() - 1];
      if ((!filtered && !eval.AllTrue(sp.filters, tuple)) ||
          !eval.AllTrue(sp.checks, tuple)) {
        next.rows.resize(next.rows.size() - next.stride);
      }
    };
    if (sp.index_join) {
      const EquiJoin& j = *sp.join;
      const Table* outer_t = slots[j.left.slot].table;
      ++stats->index_hits;
      for (size_t k = 0; k < out.size(); ++k) {
        const Value& probe = outer_t->GetValue(out[k][j.left.slot], j.left.col);
        if (probe.is_null()) continue;
        const std::vector<RowIdx>* bucket = t->IndexProbe(j.right.col, probe);
        if (bucket == nullptr) continue;
        stats->rows_scanned += bucket->size();
        for (RowIdx i : *bucket) extend(k, i, /*filtered=*/false);
      }
    } else {
      // Candidate rows for this slot, after its filters (which reference
      // slot s alone, so the padding rows are never read).
      std::vector<RowIdx> candidates;
      candidates.reserve(t->AliveCount());
      std::vector<RowIdx> padded(s + 1, 0);
      for (RowIdx i = 0; i < t->Capacity(); ++i) {
        if (!t->IsAlive(i)) continue;
        padded[s] = i;
        if (eval.AllTrue(sp.filters, padded)) candidates.push_back(i);
      }
      stats->rows_scanned += t->AliveCount();
      if (sp.join.has_value()) {
        const EquiJoin& j = *sp.join;
        const Table* outer_t = slots[j.left.slot].table;
        // Build on the new table's join column.
        std::unordered_map<Value, std::vector<RowIdx>, ValueHash> hash;
        for (RowIdx i : candidates) {
          const Value& v = t->GetValue(i, j.right.col);
          if (!v.is_null()) hash[v].push_back(i);
        }
        for (size_t k = 0; k < out.size(); ++k) {
          const Value& probe =
              outer_t->GetValue(out[k][j.left.slot], j.left.col);
          if (probe.is_null()) continue;
          auto it = hash.find(probe);
          if (it == hash.end()) continue;
          for (RowIdx i : it->second) extend(k, i, /*filtered=*/true);
        }
      } else {
        // Nested-loop cross join.
        for (size_t k = 0; k < out.size(); ++k) {
          for (RowIdx i : candidates) extend(k, i, /*filtered=*/true);
        }
      }
    }
    out = std::move(next);
  }
  return out;
}

}  // namespace

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
  XMLAC_ASSIGN_OR_RETURN(SelectPlan plan, BuildPlan(q, catalog_));
  const std::vector<Slot>& slots = plan.slots;
  Binder binder(slots);
  Tuples tuples = Join(plan, &stats_);

  // COUNT(*): aggregate over the joined tuples.
  if (q.count_star) {
    ResultSet rs;
    rs.columns.push_back("count");
    rs.rows.push_back({Value::Int(static_cast<int64_t>(tuples.size()))});
    ++stats_.rows_output;
    return rs;
  }

  // ORDER BY: sort the full tuples (any bound column may be referenced).
  std::vector<size_t> order(tuples.size());
  std::iota(order.begin(), order.end(), size_t{0});
  if (!q.order_by.empty()) {
    std::vector<std::pair<BoundColumn, bool>> keys;
    for (const OrderTerm& term : q.order_by) {
      XMLAC_ASSIGN_OR_RETURN(BoundColumn bc, binder.Bind(term.column));
      keys.emplace_back(bc, term.descending);
    }
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      for (const auto& [bc, desc] : keys) {
        const Table* t = slots[bc.slot].table;
        int cmp = t->GetValue(tuples[a][bc.slot], bc.col)
                      .TotalCompare(t->GetValue(tuples[b][bc.slot], bc.col));
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
  for (size_t k : order) {
    Row row;
    row.reserve(proj.size());
    for (const BoundColumn& bc : proj) {
      row.push_back(slots[bc.slot].table->GetValue(tuples[k][bc.slot], bc.col));
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

Result<std::vector<int64_t>> Executor::SelectIds(const CompoundSelect& q) {
  obs::ScopedTimer timer("reldb.select_us");
  StatsDeltaReporter reporter(&stats_);
  return CompoundIds(q);
}

Result<std::vector<int64_t>> Executor::CompoundIds(const CompoundSelect& q) {
  XMLAC_ASSIGN_OR_RETURN(std::vector<int64_t> acc, SingleSelectIds(q.first));
  std::vector<int64_t> merged;
  for (const auto& [op, sub] : q.rest) {
    XMLAC_ASSIGN_OR_RETURN(std::vector<int64_t> rhs, CompoundIds(sub));
    merged.clear();
    if (op == CompoundSelect::SetOp::kUnion) {
      std::set_union(acc.begin(), acc.end(), rhs.begin(), rhs.end(),
                     std::back_inserter(merged));
    } else {
      std::set_difference(acc.begin(), acc.end(), rhs.begin(), rhs.end(),
                          std::back_inserter(merged));
    }
    acc.swap(merged);
  }
  return acc;
}

Result<std::vector<int64_t>> Executor::SingleSelectIds(const SelectQuery& q) {
  ++stats_.statements;
  if (q.count_star || q.select.size() != 1 || !q.order_by.empty() ||
      q.limit.has_value()) {
    return Status::InvalidArgument(
        "SelectIds takes selects of one column without COUNT(*), ORDER BY "
        "or LIMIT: " +
        q.ToSql());
  }
  XMLAC_ASSIGN_OR_RETURN(SelectPlan plan, BuildPlan(q, catalog_));
  XMLAC_ASSIGN_OR_RETURN(BoundColumn id, Binder(plan.slots).Bind(q.select[0]));
  const Table* t = plan.slots[id.slot].table;
  if (t->schema().columns()[id.col].type != ValueType::kInt64) {
    return Status::InvalidArgument("SelectIds takes an INT column, not " +
                                   t->name() + "." + q.select[0].column);
  }
  Tuples tuples = Join(plan, &stats_);
  std::vector<int64_t> ids;
  ids.reserve(tuples.size());
  for (size_t at = id.slot; at < tuples.rows.size(); at += tuples.stride) {
    const Value& v = t->GetValue(tuples.rows[at], id.col);
    if (v.type() != ValueType::kInt64) {
      return Status::InvalidArgument("SelectIds met " + v.ToSqlLiteral() +
                                     " in " + t->name() + "." +
                                     q.select[0].column);
    }
    ids.push_back(v.AsInt());
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  stats_.rows_output += ids.size();
  return ids;
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
  ExprEvaluator eval(slots);
  std::vector<BoundExpr> conjuncts;
  const std::vector<RowIdx>* probed = nullptr;
  bool used_index = false;
  if (where != nullptr) {
    std::vector<const Expr*> parts;
    CollectConjuncts(*where, &parts);
    std::vector<size_t> used;
    for (const Expr* c : parts) {
      XMLAC_ASSIGN_OR_RETURN(BoundExpr bound,
                             BindExpr(*c, binder, /*scalar=*/false, &used));
      auto point = AsPointFilter(bound);
      if (!used_index && point.has_value() && t->HasIndex(point->first.col)) {
        probed = t->IndexProbe(point->first.col, *point->second);
        used_index = true;
        ++stats->index_hits;
      }
      conjuncts.push_back(std::move(bound));
    }
  }
  std::vector<RowIdx> out;
  auto keep = [&](RowIdx i) {
    ++stats->rows_scanned;
    if (eval.AllTrue(conjuncts, {&i, 1})) out.push_back(i);
  };
  if (used_index) {
    if (probed != nullptr) {
      out.reserve(probed->size());
      for (RowIdx i : *probed) keep(i);
    }
  } else {
    // Full scan: filter the arena directly instead of materialising an
    // all-alive candidate vector first (the sign-annotation loop's point
    // updates land here when indexes are disabled, so the copy shows up).
    out.reserve(t->AliveCount());
    for (RowIdx i = 0; i < t->Capacity(); ++i) {
      if (t->IsAlive(i)) keep(i);
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
      } else if (sp.join.has_value()) {
        const EquiJoin& j = *sp.join;
        out += (sp.index_join ? "INDEX JOIN " : "HASH JOIN ") +
               slot.table->name() + " AS " + slot.alias + " ON " +
               plan.slots[j.left.slot].alias + "." +
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
      for (const BoundExpr& f : sp.filters) {
        out += "\n" + indent + "  FILTER " + f.expr->ToString();
      }
      for (const BoundExpr& c : sp.checks) {
        out += "\n" + indent + "  CHECK " + c.expr->ToString();
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
