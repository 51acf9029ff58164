#include "xml/document.h"

#include <algorithm>
#include <atomic>

#include "common/binary.h"
#include "common/logging.h"

namespace xmlac::xml {
namespace {

// Retained journal window.  Large enough that any realistic batch of
// updates between two index syncs replays incrementally; a full document
// build overflows it immediately, which is fine — a consumer created after
// the build does one full rebuild anyway.
constexpr size_t kJournalCap = 1 << 16;

}  // namespace

uint64_t Document::NextLineage() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void Document::Journal(Mutation::Kind kind, NodeId node) {
  ++version_;
  if (journal_.size() >= kJournalCap) {
    size_t drop = journal_.size() / 2;
    journal_.erase(journal_.begin(),
                   journal_.begin() + static_cast<ptrdiff_t>(drop));
    journal_base_ += drop;
  }
  journal_.push_back(Mutation{kind, node});
}

bool Document::MutationsSince(uint64_t since, std::vector<Mutation>* out) const {
  if (since > version_) return false;
  if (since < journal_base_) return false;
  out->insert(out->end(),
              journal_.begin() + static_cast<ptrdiff_t>(since - journal_base_),
              journal_.end());
  return true;
}

NodeId Document::NewNode(NodeKind kind, std::string_view label,
                         NodeId parent) {
  NodeId id = static_cast<NodeId>(nodes_.size());
  Node n;
  n.kind = kind;
  n.label = std::string(label);
  n.parent = parent;
  nodes_.push_back(std::move(n));
  ++alive_count_;
  Journal(Mutation::Kind::kCreate, id);
  return id;
}

Document Document::Clone() const {
  Document copy;
  copy.nodes_ = nodes_;
  copy.lineage_ = lineage_;
  copy.alive_count_ = alive_count_;
  copy.version_ = version_;
  copy.journal_ = journal_;
  copy.journal_base_ = journal_base_;
  return copy;
}

void Document::CatchUpFrom(const Document& store,
                           const std::vector<Mutation>& delta) {
  XMLAC_CHECK_MSG(lineage_ == store.lineage_,
                  "catch-up from a document of another lineage");
  for (const Mutation& m : delta) {
    if (m.kind == Mutation::Kind::kDelete) {
      DeleteSubtree(m.node);
      continue;
    }
    // Ids are arena indices handed out in creation order, so a past state
    // replaying the store's creations allocates exactly the store's ids.
    XMLAC_CHECK_MSG(m.node == nodes_.size(), "catch-up out of order");
    const Node& src = store.nodes_[m.node];
    NewNode(src.kind, src.label, src.parent);
    nodes_.back().attributes = src.attributes;
    if (src.parent != kInvalidNode) {
      nodes_[src.parent].children.push_back(m.node);
    }
  }
}

NodeId Document::CreateRoot(std::string_view label) {
  XMLAC_CHECK_MSG(nodes_.empty(), "root already exists");
  return NewNode(NodeKind::kElement, label, kInvalidNode);
}

NodeId Document::CreateElement(NodeId parent, std::string_view label) {
  XMLAC_CHECK(IsAlive(parent));
  NodeId id = NewNode(NodeKind::kElement, label, parent);
  nodes_[parent].children.push_back(id);
  return id;
}

NodeId Document::CreateText(NodeId parent, std::string_view value) {
  XMLAC_CHECK(IsAlive(parent));
  NodeId id = NewNode(NodeKind::kText, value, parent);
  nodes_[parent].children.push_back(id);
  return id;
}

void Document::DeleteSubtree(NodeId id) {
  if (!IsAlive(id)) return;
  Journal(Mutation::Kind::kDelete, id);
  NodeId parent = nodes_[id].parent;
  if (parent != kInvalidNode) {
    auto& siblings = nodes_[parent].children;
    siblings.erase(std::remove(siblings.begin(), siblings.end(), id),
                   siblings.end());
  }
  // Iterative DFS kill.
  std::vector<NodeId> stack = {id};
  while (!stack.empty()) {
    NodeId cur = stack.back();
    stack.pop_back();
    if (!nodes_[cur].alive) continue;
    nodes_[cur].alive = false;
    --alive_count_;
    for (NodeId c : nodes_[cur].children) stack.push_back(c);
  }
}

std::optional<std::string_view> Document::GetAttribute(
    NodeId id, std::string_view name) const {
  for (const Attribute& a : nodes_[id].attributes) {
    if (a.name == name) return std::string_view(a.value);
  }
  return std::nullopt;
}

void Document::SetAttribute(NodeId id, std::string_view name,
                            std::string_view value) {
  for (Attribute& a : nodes_[id].attributes) {
    if (a.name == name) {
      a.value = std::string(value);
      return;
    }
  }
  nodes_[id].attributes.push_back(
      Attribute{std::string(name), std::string(value)});
}

bool Document::RemoveAttribute(NodeId id, std::string_view name) {
  auto& attrs = nodes_[id].attributes;
  for (auto it = attrs.begin(); it != attrs.end(); ++it) {
    if (it->name == name) {
      attrs.erase(it);
      return true;
    }
  }
  return false;
}

std::string Document::DirectText(NodeId id) const {
  std::string out;
  for (NodeId c : nodes_[id].children) {
    if (nodes_[c].alive && nodes_[c].kind == NodeKind::kText) {
      out += nodes_[c].label;
    }
  }
  return out;
}

void Document::Visit(NodeId start,
                     const std::function<void(NodeId)>& fn) const {
  if (!IsAlive(start)) return;
  // Explicit stack; pushed in reverse so visitation is document order.
  std::vector<NodeId> stack = {start};
  while (!stack.empty()) {
    NodeId cur = stack.back();
    stack.pop_back();
    if (!nodes_[cur].alive) continue;
    fn(cur);
    const auto& kids = nodes_[cur].children;
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) stack.push_back(*it);
  }
}

std::vector<NodeId> Document::AllElements() const {
  std::vector<NodeId> out;
  if (nodes_.empty()) return out;
  Visit(root(), [&](NodeId id) {
    if (nodes_[id].kind == NodeKind::kElement) out.push_back(id);
  });
  return out;
}

std::string Document::PathOf(NodeId id) const {
  std::vector<std::string_view> labels;
  for (NodeId cur = id; cur != kInvalidNode; cur = nodes_[cur].parent) {
    labels.push_back(nodes_[cur].label);
  }
  std::string out;
  for (auto it = labels.rbegin(); it != labels.rend(); ++it) {
    out += '/';
    out += *it;
  }
  return out;
}

int Document::DepthOf(NodeId id) const {
  int d = 0;
  for (NodeId cur = nodes_[id].parent; cur != kInvalidNode;
       cur = nodes_[cur].parent) {
    ++d;
  }
  return d;
}

int Document::Height() const {
  int h = 0;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (nodes_[id].alive && nodes_[id].kind == NodeKind::kElement) {
      h = std::max(h, DepthOf(id));
    }
  }
  return h;
}

namespace {

// Arena dump format version; bumped on any incompatible layout change so
// recovery can reject dumps it does not understand.
constexpr uint32_t kArenaFormatVersion = 1;

}  // namespace

void AppendMutations(const std::vector<Mutation>& mutations,
                     std::string* out) {
  PutU32(out, static_cast<uint32_t>(mutations.size()));
  for (const Mutation& m : mutations) {
    PutU8(out, static_cast<uint8_t>(m.kind));
    PutU32(out, m.node);
  }
}

Result<std::vector<Mutation>> ParseMutations(std::string_view data) {
  BinaryCursor cur(data);
  uint32_t count = cur.GetU32();
  std::vector<Mutation> out;
  out.reserve(cur.ok ? count : 0);
  for (uint32_t i = 0; i < count && cur.ok; ++i) {
    uint8_t kind = cur.GetU8();
    NodeId node = cur.GetU32();
    if (kind > static_cast<uint8_t>(Mutation::Kind::kDelete)) {
      return Status::InvalidArgument("bad mutation kind in wire encoding");
    }
    out.push_back(Mutation{static_cast<Mutation::Kind>(kind), node});
  }
  if (!cur.ok || !cur.AtEnd()) {
    return Status::InvalidArgument("truncated mutation list");
  }
  return out;
}

void Document::AppendBinary(std::string* out) const {
  PutU32(out, kArenaFormatVersion);
  PutU64(out, version_);
  PutU32(out, static_cast<uint32_t>(nodes_.size()));
  for (const Node& n : nodes_) {
    PutU8(out, static_cast<uint8_t>(n.kind));
    PutU8(out, n.alive ? 1 : 0);
    PutString(out, n.label);
    PutU32(out, n.parent);
    PutU32(out, static_cast<uint32_t>(n.children.size()));
    for (NodeId c : n.children) PutU32(out, c);
    PutU32(out, static_cast<uint32_t>(n.attributes.size()));
    for (const Attribute& a : n.attributes) {
      PutString(out, a.name);
      PutString(out, a.value);
    }
  }
}

Result<Document> Document::FromBinary(std::string_view data) {
  BinaryCursor cur(data);
  uint32_t format = cur.GetU32();
  if (cur.ok && format != kArenaFormatVersion) {
    return Status::InvalidArgument("unsupported document dump format");
  }
  uint64_t version = cur.GetU64();
  uint32_t count = cur.GetU32();
  Document doc;
  if (cur.ok) doc.nodes_.reserve(count);
  for (uint32_t i = 0; i < count && cur.ok; ++i) {
    Node n;
    uint8_t kind = cur.GetU8();
    if (kind > static_cast<uint8_t>(NodeKind::kText)) {
      return Status::InvalidArgument("bad node kind in document dump");
    }
    n.kind = static_cast<NodeKind>(kind);
    n.alive = cur.GetU8() != 0;
    n.label = cur.GetString();
    n.parent = cur.GetU32();
    uint32_t kids = cur.GetU32();
    for (uint32_t k = 0; k < kids && cur.ok; ++k) {
      n.children.push_back(cur.GetU32());
    }
    uint32_t attrs = cur.GetU32();
    for (uint32_t a = 0; a < attrs && cur.ok; ++a) {
      std::string name = cur.GetString();
      std::string value = cur.GetString();
      n.attributes.push_back(Attribute{std::move(name), std::move(value)});
    }
    if (n.alive) ++doc.alive_count_;
    doc.nodes_.push_back(std::move(n));
  }
  if (!cur.ok || !cur.AtEnd()) {
    return Status::InvalidArgument("truncated document dump");
  }
  // Sanity: parent/child ids must be in-arena so downstream traversals
  // can't index out of bounds on a corrupt (but CRC-valid) dump.
  for (const Node& n : doc.nodes_) {
    if (n.parent != kInvalidNode && n.parent >= doc.nodes_.size()) {
      return Status::InvalidArgument("document dump: parent out of range");
    }
    for (NodeId c : n.children) {
      if (c >= doc.nodes_.size()) {
        return Status::InvalidArgument("document dump: child out of range");
      }
    }
  }
  doc.version_ = version;
  doc.journal_base_ = version;  // empty journal window at the restored version
  return doc;
}

}  // namespace xmlac::xml
