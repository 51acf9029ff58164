#include "reldb/table.h"

#include <algorithm>

#include "common/logging.h"

namespace xmlac::reldb {

Row Table::GetRow(RowIdx idx) const {
  Row row;
  row.reserve(schema_.num_columns());
  for (size_t c = 0; c < schema_.num_columns(); ++c) {
    row.push_back(GetValue(idx, c));
  }
  return row;
}

Status Table::CreateIndex(std::string_view column) {
  auto col = schema_.ColumnIndex(column);
  if (!col.has_value()) {
    return Status::NotFound("no column '" + std::string(column) + "' in " +
                            name());
  }
  if (indexes_.count(*col) > 0) {
    return Status::AlreadyExists("index on " + name() + "." +
                                 std::string(column) + " already exists");
  }
  auto& index = indexes_[*col];
  for (RowIdx i = 0; i < Capacity(); ++i) {
    if (IsAlive(i)) index[GetValue(i, *col)].push_back(i);
  }
  return Status::OK();
}

bool Table::HasIndex(size_t col) const { return indexes_.count(col) > 0; }

const std::vector<RowIdx>* Table::IndexProbe(size_t col,
                                             const Value& v) const {
  auto it = indexes_.find(col);
  if (it == indexes_.end()) return nullptr;
  auto vit = it->second.find(v);
  return vit == it->second.end() ? nullptr : &vit->second;
}

namespace {

// Buckets hold ascending row indices, so a probe yields rows in the order a
// scan meets them.
void BucketErase(std::vector<RowIdx>* bucket, RowIdx idx) {
  auto it = std::lower_bound(bucket->begin(), bucket->end(), idx);
  if (it != bucket->end() && *it == idx) bucket->erase(it);
}

}  // namespace

void Table::IndexOnInsert(RowIdx idx, const Row& row) {
  // `idx` is past every existing row, so appending keeps buckets sorted.
  for (auto& [col, index] : indexes_) {
    index[row[col]].push_back(idx);
  }
}

void Table::IndexOnUpdate(RowIdx idx, size_t col, const Value& old_v,
                          const Value& new_v) {
  auto it = indexes_.find(col);
  if (it == indexes_.end()) return;
  auto& index = it->second;
  auto old_it = index.find(old_v);
  if (old_it != index.end()) {
    BucketErase(&old_it->second, idx);
    if (old_it->second.empty()) index.erase(old_it);
  }
  std::vector<RowIdx>& bucket = index[new_v];
  bucket.insert(std::lower_bound(bucket.begin(), bucket.end(), idx), idx);
}

void Table::IndexOnDelete(RowIdx idx) {
  for (auto& [col, index] : indexes_) {
    auto vit = index.find(GetValue(idx, col));
    if (vit != index.end()) {
      BucketErase(&vit->second, idx);
      if (vit->second.empty()) index.erase(vit);
    }
  }
}

// --- RowStoreTable ---------------------------------------------------------

Result<RowIdx> RowStoreTable::Insert(Row row) {
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument(
        "row width " + std::to_string(row.size()) + " != schema width " +
        std::to_string(schema_.num_columns()) + " for table " + name());
  }
  RowIdx idx = valid_.size();
  IndexOnInsert(idx, row);
  for (Value& v : row) flat_.push_back(std::move(v));
  valid_.push_back(1);
  ++alive_;
  return idx;
}

void RowStoreTable::SetValue(RowIdx idx, size_t col, Value v) {
  XMLAC_DCHECK(IsAlive(idx));
  IndexOnUpdate(idx, col, flat_[idx * stride_ + col], v);
  flat_[idx * stride_ + col] = std::move(v);
}

void RowStoreTable::DeleteRow(RowIdx idx) {
  if (!IsAlive(idx)) return;
  IndexOnDelete(idx);
  valid_[idx] = 0;
  --alive_;
}

// --- ColumnStoreTable -------------------------------------------------------

Result<RowIdx> ColumnStoreTable::Insert(Row row) {
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument(
        "row width " + std::to_string(row.size()) + " != schema width " +
        std::to_string(schema_.num_columns()) + " for table " + name());
  }
  RowIdx idx = valid_.size();
  IndexOnInsert(idx, row);
  for (size_t c = 0; c < row.size(); ++c) {
    columns_[c].push_back(std::move(row[c]));
  }
  valid_.push_back(1);
  ++alive_;
  return idx;
}

void ColumnStoreTable::SetValue(RowIdx idx, size_t col, Value v) {
  XMLAC_DCHECK(IsAlive(idx));
  IndexOnUpdate(idx, col, columns_[col][idx], v);
  columns_[col][idx] = std::move(v);
}

void ColumnStoreTable::DeleteRow(RowIdx idx) {
  if (!IsAlive(idx)) return;
  IndexOnDelete(idx);
  valid_[idx] = 0;
  --alive_;
}

std::unique_ptr<Table> MakeTable(TableSchema schema, StorageKind kind) {
  if (kind == StorageKind::kRowStore) {
    return std::make_unique<RowStoreTable>(std::move(schema));
  }
  return std::make_unique<ColumnStoreTable>(std::move(schema));
}

}  // namespace xmlac::reldb
