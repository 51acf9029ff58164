#include "engine/relational_backend.h"

#include <algorithm>
#include <unordered_set>

#include "common/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "shred/shredder.h"
#include "xpath/structural_index.h"

namespace xmlac::engine {

using reldb::CompoundSelect;
using reldb::Value;

namespace {
// The SetSigns gather loop visits every row slot with a hash probe each; a
// smaller floor than the executor's scan because the probe dominates.
constexpr size_t kGatherShardMinRows = 4096;

// The id column of a SELECT result in ascending id (document) order.  A
// span of its own: on large answers converting the result rows and freeing
// them (inside the span, hence the explicit reset) is a visible share of a
// read next to the O(1)-per-node sign check.
std::vector<UniversalId> SortedIds(reldb::ResultSet rs) {
  obs::ScopedSpan span("reldb.result_ids");
  std::vector<UniversalId> ids = rs.IdColumn();
  rs = reldb::ResultSet();
  std::sort(ids.begin(), ids.end());
  return ids;
}
}  // namespace

RelationalBackend::RelationalBackend(const RelationalOptions& options)
    : options_(options) {}

void RelationalBackend::SetShardConfig(const ShardConfig& shard) {
  shard_ = shard;
  if (exec_ != nullptr) exec_->set_shard_config(shard_);
}

Status RelationalBackend::Load(const xml::Dtd& dtd,
                               const xml::Document& doc) {
  catalog_ = std::make_unique<reldb::Catalog>(options_.storage);
  exec_ = std::make_unique<reldb::Executor>(catalog_.get());
  exec_->set_shard_config(shard_);
  mapping_ =
      std::make_unique<shred::ShredMapping>(dtd, options_.interval_columns);
  tables_.clear();
  directory_.clear();
  XMLAC_RETURN_IF_ERROR(
      mapping_->CreateTables(catalog_.get(), options_.create_indexes));
  for (const std::string& table_name : catalog_->TableNames()) {
    reldb::Table* t = catalog_->GetTable(table_name);
    tables_.push_back({t, *t->schema().ColumnIndex(shred::kIdColumn),
                       *t->schema().ColumnIndex(shred::kSignColumn)});
  }
  next_id_ = static_cast<UniversalId>(doc.size());
  intervals_.clear();
  if (options_.interval_columns && !doc.empty()) {
    // Same labels the shredder writes into the st/en columns, kept here so
    // InsertUnder can continue the gap allocation scheme.
    std::vector<xpath::IntervalLabel> labels =
        xpath::ComputeIntervalLabels(doc, shard_);
    doc.Visit(doc.root(), [&](xml::NodeId id) {
      const xml::Node& n = doc.node(id);
      if (n.kind != xml::NodeKind::kElement) return;
      const xpath::IntervalLabel& l = labels[id];
      intervals_[id] = NodeInterval{l.start, l.end, l.start};
      if (n.parent != xml::kInvalidNode) {
        NodeInterval& p = intervals_[n.parent];
        if (l.end > p.anchor) p.anchor = l.end;
      }
    });
  }
  if (options_.load_via_sql) {
    XMLAC_ASSIGN_OR_RETURN(std::string script,
                           shred::ShredToSqlScript(doc, *mapping_,
                                                   default_sign_));
    XMLAC_RETURN_IF_ERROR(exec_->Run(script));
  } else {
    auto stats =
        shred::ShredToCatalog(doc, *mapping_, catalog_.get(), default_sign_);
    if (!stats.ok()) return stats.status();
  }
  uniform_sign_ = default_sign_;
  XMLAC_ASSIGN_OR_RETURN(directory_, ScanDirectory());
  return Status::OK();
}

void RelationalBackend::Clear() {
  exec_.reset();
  catalog_.reset();
  mapping_.reset();
  tables_.clear();
  directory_ = std::vector<DirEntry>();
  uniform_sign_ = 0;
  intervals_.clear();
}

size_t RelationalBackend::NodeCount() const {
  return catalog_ == nullptr ? 0 : catalog_->TotalRows();
}

Result<std::vector<UniversalId>> RelationalBackend::EvaluateQuery(
    const xpath::Path& query) {
  if (catalog_ == nullptr) return Status::Internal("backend not loaded");
  XMLAC_ASSIGN_OR_RETURN(shred::SqlTranslation tr,
                         shred::TranslateXPath(query, *mapping_));
  if (tr.empty) return std::vector<UniversalId>{};
  XMLAC_ASSIGN_OR_RETURN(reldb::ResultSet rs, exec_->ExecuteSelect(tr.query));
  return SortedIds(std::move(rs));
}

Result<CompoundSelect> RelationalBackend::CompileAnnotationSql(
    const policy::Policy& policy, const std::vector<size_t>& rule_subset,
    policy::CombineOp combine) const {
  if (mapping_ == nullptr) return Status::Internal("backend not loaded");
  // Per-rule SELECTs, unioned by effect; combined per Fig. 5.
  std::vector<CompoundSelect> grants;
  std::vector<CompoundSelect> denies;
  for (size_t i : rule_subset) {
    const policy::Rule& r = policy.rules()[i];
    XMLAC_ASSIGN_OR_RETURN(shred::SqlTranslation tr,
                           shred::TranslateXPath(r.resource, *mapping_));
    if (tr.empty) continue;
    (r.effect == policy::Effect::kAllow ? grants : denies)
        .push_back(std::move(tr.query));
  }
  auto union_all = [](std::vector<CompoundSelect> parts)
      -> std::optional<CompoundSelect> {
    if (parts.empty()) return std::nullopt;
    CompoundSelect acc = std::move(parts[0]);
    for (size_t i = 1; i < parts.size(); ++i) {
      acc.rest.emplace_back(CompoundSelect::SetOp::kUnion,
                            std::move(parts[i]));
    }
    return acc;
  };
  std::optional<CompoundSelect> grant_q = union_all(std::move(grants));
  std::optional<CompoundSelect> deny_q = union_all(std::move(denies));

  bool want_grants = combine == policy::CombineOp::kGrants ||
                     combine == policy::CombineOp::kGrantsExceptDenies;
  std::optional<CompoundSelect> base =
      want_grants ? std::move(grant_q) : std::move(deny_q);
  std::optional<CompoundSelect> minus =
      want_grants ? std::move(deny_q) : std::move(grant_q);
  bool subtract = combine == policy::CombineOp::kGrantsExceptDenies ||
                  combine == policy::CombineOp::kDeniesExceptGrants;
  if (!base.has_value()) {
    return Status::NotFound("annotation set is empty by construction");
  }
  if (subtract && minus.has_value()) {
    base->rest.emplace_back(CompoundSelect::SetOp::kExcept,
                            std::move(*minus));
  }
  return std::move(*base);
}

Result<std::vector<UniversalId>> RelationalBackend::EvaluateAnnotationSet(
    const policy::Policy& policy, const std::vector<size_t>& rule_subset,
    policy::CombineOp combine) {
  if (catalog_ == nullptr) return Status::Internal("backend not loaded");
  auto compiled = CompileAnnotationSql(policy, rule_subset, combine);
  if (!compiled.ok()) {
    if (compiled.status().code() == StatusCode::kNotFound) {
      return std::vector<UniversalId>{};  // no contributing rules
    }
    return compiled.status();
  }
  XMLAC_ASSIGN_OR_RETURN(reldb::ResultSet rs, exec_->ExecuteSelect(*compiled));
  return SortedIds(std::move(rs));
}

Status RelationalBackend::SetSigns(const std::vector<UniversalId>& ids,
                                   char sign) {
  if (catalog_ == nullptr) return Status::Internal("backend not loaded");
  obs::ScopedSpan span("reldb.set_signs");
  // Algorithm Annotate (Fig. 6): for every table, intersect the target ids
  // with the table's ids, then issue one UPDATE per matching tuple.
  std::unordered_set<UniversalId> target(ids.begin(), ids.end());
  if (!ids.empty() && sign != uniform_sign_) uniform_sign_ = 0;
  std::string set_sql(1, sign);
  size_t sign_updates = 0;
  for (const std::string& table_name : catalog_->TableNames()) {
    reldb::Table* t = catalog_->GetTable(table_name);
    size_t id_col = *t->schema().ColumnIndex(shred::kIdColumn);
    std::vector<UniversalId> upids;
    // The gather half of Fig. 6 splits into row ranges (const reads of an
    // immutable-during-gather table); concatenating the per-range matches
    // in range order reproduces the serial ascending-row order.  The point
    // UPDATEs below stay serial — they are the cost the paper measures.
    std::vector<ShardRange> ranges =
        PlanShards(t->Capacity(), shard_, kGatherShardMinRows);
    if (ranges.size() <= 1) {
      for (reldb::RowIdx i = 0; i < t->Capacity(); ++i) {
        if (!t->IsAlive(i)) continue;
        UniversalId id = t->GetValue(i, id_col).AsInt();
        if (target.count(id) > 0) upids.push_back(id);
      }
    } else {
      std::vector<std::vector<UniversalId>> parts(ranges.size());
      ParallelFor(ranges.size(), shard_.ResolvedThreads(), 1, [&](size_t k) {
        for (reldb::RowIdx i = ranges[k].begin; i < ranges[k].end; ++i) {
          if (!t->IsAlive(i)) continue;
          UniversalId id = t->GetValue(i, id_col).AsInt();
          if (target.count(id) > 0) parts[k].push_back(id);
        }
      });
      for (const std::vector<UniversalId>& part : parts) {
        upids.insert(upids.end(), part.begin(), part.end());
      }
    }
    for (UniversalId id : upids) {
      auto n = exec_->Query("UPDATE " + table_name + " SET " +
                            shred::kSignColumn + " = '" + set_sql +
                            "' WHERE " + shred::kIdColumn + " = " +
                            std::to_string(id));
      if (!n.ok()) return n.status();
      ++sign_updates;
    }
  }
  obs::IncrementCounter("reldb.sign_updates", sign_updates);
  if (span.active()) {
    span.AddCount("updates", static_cast<int64_t>(sign_updates));
  }
  return Status::OK();
}

Status RelationalBackend::ResetAllSigns(char default_sign) {
  if (catalog_ == nullptr) return Status::Internal("backend not loaded");
  default_sign_ = default_sign;
  // Every tuple already carries this sign (e.g. a freshly shredded replica
  // on its first annotation): the per-table UPDATEs would be no-ops.
  if (uniform_sign_ == default_sign) return Status::OK();
  for (const std::string& table_name : catalog_->TableNames()) {
    auto n = exec_->Query("UPDATE " + table_name + " SET " +
                          shred::kSignColumn + " = '" +
                          std::string(1, default_sign) + "'");
    if (!n.ok()) return n.status();
  }
  uniform_sign_ = default_sign;
  return Status::OK();
}

Result<std::vector<RelationalBackend::DirEntry>>
RelationalBackend::ScanDirectory() const {
  std::vector<DirEntry> dir(IdBound());
  for (uint32_t k = 0; k < tables_.size(); ++k) {
    const TableRef& ref = tables_[k];
    if (ref.table->Capacity() > UINT32_MAX) {
      return Status::Unsupported("table " + ref.table->name() +
                                 " has too many rows for the id directory");
    }
    for (reldb::RowIdx i = 0; i < ref.table->Capacity(); ++i) {
      if (!ref.table->IsAlive(i)) continue;
      Value held = ref.table->GetValue(i, ref.id_col);
      auto where = [&] {
        return ref.table->name() + " row " + std::to_string(i) + " holds id " +
               held.ToString();
      };
      if (held.type() != reldb::ValueType::kInt64 || held.AsInt() < 0 ||
          static_cast<size_t>(held.AsInt()) >= dir.size()) {
        return Status::Internal(where() + " outside [0, " +
                                std::to_string(dir.size()) + ")");
      }
      DirEntry& e = dir[static_cast<size_t>(held.AsInt())];
      if (e.table != kNoTable) {
        return Status::Internal(where() + ", already held by " +
                                tables_[e.table].table->name() + " row " +
                                std::to_string(e.row));
      }
      e = DirEntry{k, static_cast<uint32_t>(i)};
    }
  }
  return dir;
}

Status RelationalBackend::VerifyDirectory() const {
  if (catalog_ == nullptr) return Status::Internal("backend not loaded");
  XMLAC_ASSIGN_OR_RETURN(std::vector<DirEntry> rebuilt, ScanDirectory());
  if (rebuilt.size() != directory_.size()) {
    return Status::Internal("id directory has " +
                            std::to_string(directory_.size()) +
                            " entries, a rebuild " +
                            std::to_string(rebuilt.size()));
  }
  auto describe = [&](const DirEntry& e) {
    return e.table == kNoTable ? std::string("no tuple")
                               : tables_[e.table].table->name() + " row " +
                                     std::to_string(e.row);
  };
  for (size_t id = 0; id < rebuilt.size(); ++id) {
    const DirEntry& kept = directory_[id];
    const DirEntry& want = rebuilt[id];
    if (kept.table != want.table ||
        (kept.table != kNoTable && kept.row != want.row)) {
      return Status::Internal("id directory differs from a rebuild at tuple " +
                              std::to_string(id) + ": maintained " +
                              describe(kept) + ", rebuilt " + describe(want));
    }
  }
  return Status::OK();
}

Status RelationalBackend::StaleDirectory(UniversalId id,
                                         const std::string& detail) {
  obs::IncrementCounter("reldb.directory_stale");
  return Status::Internal("id directory is stale at tuple " +
                          std::to_string(id) + ": " + detail);
}

Result<RelationalBackend::DirEntry> RelationalBackend::Locate(
    UniversalId id) const {
  if (id < 0 || static_cast<size_t>(id) >= directory_.size() ||
      directory_[static_cast<size_t>(id)].table == kNoTable) {
    return Status::NotFound("tuple " + std::to_string(id) + " not found");
  }
  const DirEntry& e = directory_[static_cast<size_t>(id)];
  const TableRef& ref = tables_[e.table];
  if (ref.table->IsAlive(e.row)) {
    Value held = ref.table->GetValue(e.row, ref.id_col);
    if (held.type() == reldb::ValueType::kInt64 && held.AsInt() == id) return e;
  }
  return StaleDirectory(id, ref.table->name() + " row " +
                                std::to_string(e.row) +
                                " is deleted or holds another id");
}

uint32_t RelationalBackend::TableSlot(std::string_view name) const {
  auto it = std::lower_bound(
      tables_.begin(), tables_.end(), name,
      [](const TableRef& ref, std::string_view n) {
        return ref.table->name() < n;
      });
  return static_cast<uint32_t>(it - tables_.begin());
}

Result<char> RelationalBackend::GetSign(UniversalId id) {
  if (catalog_ == nullptr) return Status::Internal("backend not loaded");
  XMLAC_ASSIGN_OR_RETURN(DirEntry e, Locate(id));
  const TableRef& ref = tables_[e.table];
  return ref.table->GetValue(e.row, ref.sign_col).AsString()[0];
}

Result<size_t> RelationalBackend::DeleteWhere(const xpath::Path& u) {
  if (catalog_ == nullptr) return Status::Internal("backend not loaded");
  if (!options_.create_indexes) {
    // The pid-closure walk below silently finds no children without the
    // hash indexes; refuse instead of corrupting the store.
    return Status::Unsupported("DeleteWhere requires id/pid indexes");
  }
  XMLAC_ASSIGN_OR_RETURN(std::vector<UniversalId> roots, EvaluateQuery(u));
  // BFS over pid links to take the subtrees with the selected nodes.
  std::unordered_set<UniversalId> doomed(roots.begin(), roots.end());
  std::vector<UniversalId> frontier = roots;
  while (!frontier.empty()) {
    std::vector<UniversalId> next;
    for (const TableRef& ref : tables_) {
      const reldb::Table* t = ref.table;
      size_t pid_col = *t->schema().ColumnIndex(shred::kPidColumn);
      for (UniversalId parent : frontier) {
        for (reldb::RowIdx i :
             t->IndexLookup(pid_col, Value::Int(parent))) {
          UniversalId child = t->GetValue(i, ref.id_col).AsInt();
          if (doomed.insert(child).second) next.push_back(child);
        }
      }
    }
    frontier = std::move(next);
  }
  // Resolve every doomed tuple through the directory before deleting any,
  // so a stale directory fails the delete as a whole.  Each was just found
  // live by the query or the pid index, so one without an entry is stale.
  std::vector<UniversalId> victims(doomed.begin(), doomed.end());
  std::sort(victims.begin(), victims.end());
  std::vector<DirEntry> entries;
  entries.reserve(victims.size());
  for (UniversalId id : victims) {
    auto e = Locate(id);
    if (e.status().code() == StatusCode::kNotFound) {
      return StaleDirectory(id, "a live tuple has no directory entry");
    }
    if (!e.ok()) return e.status();
    entries.push_back(*e);
  }
  // One point delete per tuple through the executor, on its own table
  // (indexed on id).
  size_t deleted = 0;
  for (size_t k = 0; k < victims.size(); ++k) {
    XMLAC_ASSIGN_OR_RETURN(
        size_t n, exec_->ExecuteDelete([&] {
          reldb::DeleteStatement st;
          st.table = tables_[entries[k].table].table->name();
          st.where = reldb::Expr::Compare(
              reldb::CompareOp::kEq, reldb::Expr::Column("", shred::kIdColumn),
              reldb::Expr::Literal(Value::Int(victims[k])));
          return st;
        }()));
    directory_[static_cast<size_t>(victims[k])] = DirEntry{};
    deleted += n;
  }
  return deleted;
}

Result<size_t> RelationalBackend::InsertUnder(const xpath::Path& target,
                                              const xml::Document& fragment) {
  if (catalog_ == nullptr) return Status::Internal("backend not loaded");
  if (!options_.create_indexes) {
    return Status::Unsupported("InsertUnder requires id/pid indexes");
  }
  if (fragment.empty() || !fragment.IsAlive(fragment.root())) {
    return Status::InvalidArgument("empty insert fragment");
  }
  // New tuples arrive with default_sign_; if the store was uniform at some
  // other sign the mix breaks uniformity.
  if (uniform_sign_ != 0 && uniform_sign_ != default_sign_) uniform_sign_ = 0;
  // Validate fragment labels up front so a failure cannot leave a
  // half-inserted subtree.
  Status label_check;
  fragment.Visit(fragment.root(), [&](xml::NodeId id) {
    const xml::Node& n = fragment.node(id);
    if (label_check.ok() && n.kind == xml::NodeKind::kElement &&
        !mapping_->HasTable(n.label)) {
      label_check = Status::InvalidArgument("element '" + n.label +
                                            "' has no mapped table");
    }
  });
  XMLAC_RETURN_IF_ERROR(label_check);

  XMLAC_ASSIGN_OR_RETURN(std::vector<UniversalId> parents,
                         EvaluateQuery(target));
  // Plan all tuples first (ids and, in interval mode, st/en labels) so a
  // failed interval allocation can bail before any table is touched.
  struct PlannedRow {
    xml::NodeId src;
    UniversalId id;
    UniversalId pid;
    uint64_t st;
    uint64_t en;
  };
  std::vector<PlannedRow> plan;
  // Planned interval state: copies of touched intervals_ entries plus the
  // fragment's freshly allocated ones; merged back only on success.
  std::unordered_map<UniversalId, NodeInterval> scratch;
  auto interval_of = [&](UniversalId id) -> NodeInterval* {
    auto it = scratch.find(id);
    if (it != scratch.end()) return &it->second;
    auto base = intervals_.find(id);
    if (base == intervals_.end()) return nullptr;
    return &scratch.emplace(id, base->second).first->second;
  };
  UniversalId planned_next = next_id_;
  for (UniversalId parent : parents) {
    // Mirror NativeXmlBackend::InsertUnder's traversal exactly (including
    // id allocation over text nodes) so both backends assign the same
    // universal ids for the same call sequence.
    std::vector<std::pair<xml::NodeId, UniversalId>> stack;
    stack.emplace_back(fragment.root(), parent);
    while (!stack.empty()) {
      auto [src, dst_parent] = stack.back();
      stack.pop_back();
      const xml::Node& n = fragment.node(src);
      if (!n.alive) continue;
      UniversalId id = planned_next++;
      if (n.kind != xml::NodeKind::kElement) continue;
      uint64_t st = 0;
      uint64_t en = 0;
      if (options_.interval_columns) {
        NodeInterval* p = interval_of(dst_parent);
        if (p == nullptr) {
          return Status::Unsupported("no interval recorded for tuple " +
                                     std::to_string(dst_parent));
        }
        if (!xpath::AllocateChildInterval(p->start, p->end, p->anchor, &st,
                                          &en)) {
          return Status::Unsupported("interval gap exhausted under tuple " +
                                     std::to_string(dst_parent));
        }
        p->anchor = en;
        scratch.emplace(id, NodeInterval{st, en, st});
      }
      plan.push_back({src, id, dst_parent, st, en});
      for (auto it = n.children.rbegin(); it != n.children.rend(); ++it) {
        stack.emplace_back(*it, id);
      }
    }
  }
  std::string sign(1, default_sign_);
  directory_.resize(static_cast<size_t>(planned_next));
  for (const PlannedRow& pr : plan) {
    const xml::Node& n = fragment.node(pr.src);
    uint32_t slot = TableSlot(n.label);
    reldb::Table* table = tables_[slot].table;
    reldb::Row row;
    row.reserve(table->schema().num_columns());
    row.push_back(Value::Int(pr.id));
    row.push_back(Value::Int(pr.pid));
    if (mapping_->HasValueColumn(n.label)) {
      row.push_back(Value::Str(fragment.DirectText(pr.src)));
    }
    if (options_.interval_columns) {
      row.push_back(Value::Int(static_cast<int64_t>(pr.st)));
      row.push_back(Value::Int(static_cast<int64_t>(pr.en)));
    }
    row.push_back(Value::Str(sign));
    XMLAC_ASSIGN_OR_RETURN(reldb::RowIdx at, table->Insert(std::move(row)));
    if (at > UINT32_MAX) {
      return Status::Unsupported("table " + n.label +
                                 " has too many rows for the id directory");
    }
    directory_[static_cast<size_t>(pr.id)] =
        DirEntry{slot, static_cast<uint32_t>(at)};
  }
  next_id_ = planned_next;
  for (auto& [id, iv] : scratch) intervals_[id] = iv;
  return plan.size();
}

}  // namespace xmlac::engine
