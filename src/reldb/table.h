#ifndef XMLAC_RELDB_TABLE_H_
#define XMLAC_RELDB_TABLE_H_

// Table storage.  Two physical layouts implement one logical interface:
//
//  * RowStoreTable    — row-major (std::vector of rows); analog of the
//                       paper's PostgreSQL backend.
//  * ColumnStoreTable — column-major (one std::vector per column); analog
//                       of the paper's MonetDB/SQL backend.
//
// Rows are addressed by a stable RowIdx; deletions tombstone.  The layouts
// differ in their real memory-access patterns (single-column scans touch
// contiguous memory in the column store, whole-row access is one indexed
// load in the row store), which is what the loading/annotation benchmarks
// measure.

#include <memory>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "reldb/schema.h"

namespace xmlac::reldb {

using RowIdx = size_t;

enum class StorageKind : uint8_t {
  kRowStore,
  kColumnStore,
};

class Table {
 public:
  explicit Table(TableSchema schema) : schema_(std::move(schema)) {}
  virtual ~Table() = default;

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const TableSchema& schema() const { return schema_; }
  const std::string& name() const { return schema_.name(); }

  virtual StorageKind storage_kind() const = 0;

  // Appends a row; the row must have exactly num_columns values.
  virtual Result<RowIdx> Insert(Row row) = 0;

  // Slots ever allocated (iteration bound), and currently alive rows.
  virtual size_t Capacity() const = 0;
  virtual size_t AliveCount() const = 0;
  virtual bool IsAlive(RowIdx idx) const = 0;

  // The stored value; the reference is valid until the table is mutated.
  virtual const Value& GetValue(RowIdx idx, size_t col) const = 0;
  virtual void SetValue(RowIdx idx, size_t col, Value v) = 0;
  virtual void DeleteRow(RowIdx idx) = 0;

  // Materializes a full row (alive rows only).
  Row GetRow(RowIdx idx) const;

  // --- Hash index support ------------------------------------------------
  // A table may carry persistent equality indexes on single columns,
  // maintained across inserts/updates/deletes.  Used for the point UPDATEs
  // of the annotation loop (WHERE id = ...) and for the SELECT's index
  // joins (child.pid = parent.id).
  Status CreateIndex(std::string_view column);
  bool HasIndex(size_t col) const;
  // The alive rows whose `col` equals `v`, in ascending RowIdx order, or
  // null when none does or `col` has no index (callers check HasIndex
  // first).  The bucket is the index's own: valid until the table is
  // mutated.
  const std::vector<RowIdx>* IndexProbe(size_t col, const Value& v) const;

 protected:
  // Subclasses call these around every mutation to keep indexes fresh.
  void IndexOnInsert(RowIdx idx, const Row& row);
  void IndexOnUpdate(RowIdx idx, size_t col, const Value& old_v,
                     const Value& new_v);
  void IndexOnDelete(RowIdx idx);

  TableSchema schema_;

 private:
  // column -> (value -> row indices)
  std::unordered_map<size_t,
                     std::unordered_map<Value, std::vector<RowIdx>, ValueHash>>
      indexes_;
};

// Row-major layout: tuples live contiguously in one flat arena with stride
// num_columns, so inserting or reading a tuple touches a single memory
// region (the classic heap-file access pattern).
class RowStoreTable final : public Table {
 public:
  explicit RowStoreTable(TableSchema schema)
      : Table(std::move(schema)), stride_(schema_.num_columns()) {}

  StorageKind storage_kind() const override { return StorageKind::kRowStore; }
  Result<RowIdx> Insert(Row row) override;
  size_t Capacity() const override { return valid_.size(); }
  size_t AliveCount() const override { return alive_; }
  bool IsAlive(RowIdx idx) const override {
    return idx < valid_.size() && valid_[idx];
  }
  const Value& GetValue(RowIdx idx, size_t col) const override {
    return flat_[idx * stride_ + col];
  }
  void SetValue(RowIdx idx, size_t col, Value v) override;
  void DeleteRow(RowIdx idx) override;

 private:
  size_t stride_;
  std::vector<Value> flat_;
  std::vector<uint8_t> valid_;
  size_t alive_ = 0;
};

class ColumnStoreTable final : public Table {
 public:
  explicit ColumnStoreTable(TableSchema schema) : Table(std::move(schema)) {
    columns_.resize(schema_.num_columns());
  }

  StorageKind storage_kind() const override {
    return StorageKind::kColumnStore;
  }
  Result<RowIdx> Insert(Row row) override;
  size_t Capacity() const override {
    return columns_.empty() ? 0 : columns_[0].size();
  }
  size_t AliveCount() const override { return alive_; }
  bool IsAlive(RowIdx idx) const override {
    return idx < valid_.size() && valid_[idx];
  }
  const Value& GetValue(RowIdx idx, size_t col) const override {
    return columns_[col][idx];
  }
  void SetValue(RowIdx idx, size_t col, Value v) override;
  void DeleteRow(RowIdx idx) override;

  // Direct read-only access to one column (vectorized scans).
  const std::vector<Value>& column(size_t col) const { return columns_[col]; }

 private:
  std::vector<std::vector<Value>> columns_;
  std::vector<uint8_t> valid_;
  size_t alive_ = 0;
};

// Factory keyed on the storage kind.
std::unique_ptr<Table> MakeTable(TableSchema schema, StorageKind kind);

}  // namespace xmlac::reldb

#endif  // XMLAC_RELDB_TABLE_H_
