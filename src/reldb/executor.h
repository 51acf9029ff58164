#ifndef XMLAC_RELDB_EXECUTOR_H_
#define XMLAC_RELDB_EXECUTOR_H_

// Query executor.
//
// SELECT evaluation is a left-deep join in FROM order over one arena of
// flat join tuples.  An equi-join conjunct (a.x = b.y) whose new-side column
// has a persistent index probes that index once per outer tuple (an index
// nested-loop join: `child.pid = parent.id` on every shredded table);
// without an index it drives a per-query hash join.  Single-table conjuncts
// filter that table's rows; everything else is evaluated as a residual
// check.  UNION/EXCEPT apply set semantics.  SelectIds runs the same join
// and projects one integer column straight into a sorted id list.
// UPDATE/DELETE use a table's hash index when the WHERE clause contains an
// indexed `col = literal` conjunct — the fast path for the annotation
// loop's per-tuple sign updates.

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "reldb/catalog.h"
#include "reldb/query.h"
#include "reldb/sql_parser.h"

namespace xmlac::reldb {

struct ResultSet {
  std::vector<std::string> columns;
  std::vector<Row> rows;

  std::string ToString() const;  // aligned debug table
};

struct ExecStats {
  uint64_t rows_scanned = 0;
  uint64_t rows_output = 0;
  uint64_t statements = 0;
  uint64_t index_hits = 0;
};

class Executor {
 public:
  explicit Executor(Catalog* catalog) : catalog_(catalog) {}

  // The four statement entry points below also report per-operator metrics
  // (rows scanned/output, statements, index hits as counters; elapsed time
  // as reldb.{select,insert,update,delete}_us histograms) into the current
  // obs registry, once per top-level call.
  Result<ResultSet> ExecuteSelect(const CompoundSelect& q);
  // The distinct values of a compound whose every operand selects one INT
  // column (the id lists of XPath and annotation queries), ascending:
  // projected from the join tuples with no row per result, UNION/EXCEPT as
  // sorted merges.  Same metrics as ExecuteSelect (reldb.select_us).
  // InvalidArgument for an operand with another projection, COUNT(*),
  // ORDER BY or LIMIT, or one that meets a non-integer value.
  Result<std::vector<int64_t>> SelectIds(const CompoundSelect& q);
  // Returns the number of affected rows.
  Result<size_t> ExecuteInsert(const InsertStatement& st);
  Result<size_t> ExecuteUpdate(const UpdateStatement& st);
  Result<size_t> ExecuteDelete(const DeleteStatement& st);

  // Dispatch; DDL returns an empty result set.
  Result<ResultSet> Execute(const Statement& st);

  // Parse + execute one statement.
  Result<ResultSet> Query(std::string_view sql);

  // Human-readable physical plan of a select, e.g.
  //   SCAN patient AS pat1 (3 rows)
  //   INDEX JOIN treatment AS treat1 ON pat1.id = treat1.pid (2 rows)
  //     FILTER treat1.s = '+'
  //   UNION
  //     SCAN regular AS regular1 (1 rows)
  // (HASH JOIN in place of INDEX JOIN when the join column has no index.)
  Result<std::string> ExplainSelect(const CompoundSelect& q);

  // Parse + execute a ';'-separated script, discarding result sets.
  Status Run(std::string_view script);

  const ExecStats& stats() const { return stats_; }
  void ResetStats() { stats_ = ExecStats(); }

 private:
  // Recursive compound-select evaluation; metrics flush happens only in the
  // public ExecuteSelect / SelectIds wrappers so nested set operands are not
  // double-counted.
  Result<ResultSet> ExecuteCompound(const CompoundSelect& q);
  Result<ResultSet> ExecuteSingleSelect(const SelectQuery& q);
  Result<std::vector<int64_t>> CompoundIds(const CompoundSelect& q);
  Result<std::vector<int64_t>> SingleSelectIds(const SelectQuery& q);

  Catalog* catalog_;
  ExecStats stats_;
};

}  // namespace xmlac::reldb

#endif  // XMLAC_RELDB_EXECUTOR_H_
