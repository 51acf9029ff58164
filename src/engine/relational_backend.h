#ifndef XMLAC_ENGINE_RELATIONAL_BACKEND_H_
#define XMLAC_ENGINE_RELATIONAL_BACKEND_H_

// Relational store (the PostgreSQL / MonetDB-SQL analogs).
//
// The document is shredded à la ShreX into one table per element type;
// queries run through the XPath-to-SQL translator and the reldb executor.
// Sign updates follow Algorithm Annotate (paper Fig. 6): iterate over *all*
// catalog tables, intersect each table's ids with the target set and issue
// one point UPDATE per tuple — the deliberate tuple-at-a-time cost the
// paper measures.
//
// Reading a tuple's sign is one lookup: the backend keeps an id directory,
// universal id → (table, row), built in one scan at Load and maintained by
// InsertUnder/DeleteWhere.  A directory entry that no longer names a live
// row holding that id is an internal error (counted as
// reldb.directory_stale), never a reason to fall back to a scan.

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "engine/backend.h"
#include "reldb/executor.h"
#include "shred/mapping.h"
#include "shred/xpath_to_sql.h"

namespace xmlac::engine {

struct RelationalOptions {
  reldb::StorageKind storage = reldb::StorageKind::kRowStore;
  // Load by emitting and executing the INSERT script through the SQL parser
  // (the paper's loading path) instead of inserting rows directly.
  bool load_via_sql = true;
  // Hash indexes on id/pid.  Disabling forces full scans in the annotation
  // loop's point updates (ablation A3).  GetSign reads through the id
  // directory and works either way; DeleteWhere (whose subtree walk needs
  // the pid index) and InsertUnder return kUnsupported without indexes.
  bool create_indexes = true;
  // Shred (st, en) interval-label columns into every table and compile
  // descendant steps to range predicates instead of schema join chains.
  // This is the only relational configuration that supports recursive DTDs.
  // InsertUnder allocates child intervals from the parent's gap (shared
  // scheme with the native structural index) and returns kUnsupported
  // — before mutating anything — if a gap is exhausted.
  bool interval_columns = false;
};

class RelationalBackend final : public Backend {
 public:
  explicit RelationalBackend(const RelationalOptions& options = {});

  std::string name() const override {
    return options_.storage == reldb::StorageKind::kRowStore ? "reldb/row"
                                                              : "reldb/column";
  }

  Status Load(const xml::Dtd& dtd, const xml::Document& doc) override;
  void Clear() override;
  size_t NodeCount() const override;
  size_t IdBound() const override {
    return static_cast<size_t>(next_id_ < 0 ? 0 : next_id_);
  }
  // The executor accumulates ExecStats on every statement; per-rule scans
  // must stay on one thread.
  bool SupportsParallelEval() const override { return false; }

  // Shard-parallel execution (common/shard.h): SELECT seed scans and the
  // Fig. 6 SetSigns gather loop split into contiguous row ranges merged in
  // scan order.  Applied to the current executor and re-applied on Load.
  void SetShardConfig(const ShardConfig& shard) override;

  Result<std::vector<UniversalId>> EvaluateQuery(
      const xpath::Path& query) override;
  Result<std::vector<UniversalId>> EvaluateAnnotationSet(
      const policy::Policy& policy, const std::vector<size_t>& rule_subset,
      policy::CombineOp combine) override;

  Status SetSigns(const std::vector<UniversalId>& ids, char sign) override;
  Status ResetAllSigns(char default_sign) override;
  Result<char> GetSign(UniversalId id) override;

  Result<size_t> DeleteWhere(const xpath::Path& u) override;
  Result<size_t> InsertUnder(const xpath::Path& target,
                             const xml::Document& fragment) override;

  // Compiles the Fig. 5 annotation SQL for a rule subset without running it
  // (exposed for tests and the examples' --explain output).
  Result<reldb::CompoundSelect> CompileAnnotationSql(
      const policy::Policy& policy, const std::vector<size_t>& rule_subset,
      policy::CombineOp combine) const;

  // Compares the maintained id directory with one rebuilt from a scan of
  // every table's live rows; Internal naming the first differing id.  For
  // tests and the differential harness.
  Status VerifyDirectory() const;

  reldb::Catalog* catalog() { return catalog_.get(); }
  reldb::Executor* executor() { return exec_.get(); }
  const shred::ShredMapping* mapping() const { return mapping_.get(); }

 private:
  // A shredded table with the column positions the directory reads.
  struct TableRef {
    reldb::Table* table = nullptr;
    size_t id_col = 0;
    size_t sign_col = 0;
  };
  // Where tuple `id` lives: row `row` of tables_[table].  table == kNoTable
  // for ids that have no tuple (text nodes, deleted tuples).
  static constexpr uint32_t kNoTable = UINT32_MAX;
  struct DirEntry {
    uint32_t table = kNoTable;
    uint32_t row = 0;
  };

  // The directory a scan of every table's live rows gives; Internal on an
  // id outside [0, IdBound()) or held by two rows.
  Result<std::vector<DirEntry>> ScanDirectory() const;
  // The live directory entry of tuple `id`: NotFound when it has none,
  // Internal (and reldb.directory_stale) when the entry's row is dead or
  // holds another id.
  Result<DirEntry> Locate(UniversalId id) const;
  // Counts reldb.directory_stale and returns the Internal error for it.
  static Status StaleDirectory(UniversalId id, const std::string& detail);
  // Position of table `name` in tables_; `name` must be a mapped table.
  uint32_t TableSlot(std::string_view name) const;

  // Interval bookkeeping for interval_columns mode: each element tuple's
  // (start, end) label plus the anchor (highest label value already used
  // inside it) that InsertUnder's gap allocation continues from.
  struct NodeInterval {
    uint64_t start = 0;
    uint64_t end = 0;
    uint64_t anchor = 0;
  };

  RelationalOptions options_;
  ShardConfig shard_;
  std::unique_ptr<reldb::Catalog> catalog_;
  std::unique_ptr<reldb::Executor> exec_;
  std::unique_ptr<shred::ShredMapping> mapping_;
  // The catalog's tables in name order, captured at Load; DirEntry::table
  // indexes into it.
  std::vector<TableRef> tables_;
  // Indexed by universal id, IdBound() entries.  Ids are never reused, so
  // an entry only ever goes from empty to set (insert) and back (delete).
  std::vector<DirEntry> directory_;
  char default_sign_ = '-';
  // When non-zero, every live tuple's sign column is known to hold this
  // value, so ResetAllSigns to the same sign skips the per-table UPDATEs —
  // the fresh-replica fast path.  Any write that could mix signs zeroes it.
  char uniform_sign_ = 0;
  // Next fresh universal id for inserts.  Seeded with the loaded document's
  // arena size and advanced over text nodes too, so ids assigned by
  // InsertUnder coincide with NativeXmlBackend's for identical call
  // sequences.
  UniversalId next_id_ = 0;
  // Populated at Load in interval_columns mode; tuples deleted later keep
  // their (stale, harmless) entries.
  std::unordered_map<UniversalId, NodeInterval> intervals_;
};

}  // namespace xmlac::engine

#endif  // XMLAC_ENGINE_RELATIONAL_BACKEND_H_
