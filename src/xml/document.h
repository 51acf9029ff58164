#ifndef XMLAC_XML_DOCUMENT_H_
#define XMLAC_XML_DOCUMENT_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "xml/node.h"

namespace xmlac::xml {

// A structural mutation, as recorded in the document's journal: a node was
// created (kCreate) or a subtree was unlinked and killed (kDelete names the
// subtree root; the dead subtree's children lists stay intact, so a journal
// consumer can still walk it).  Attribute writes are deliberately not
// journaled — they carry no structure, and the annotation pipeline rewrites
// sign attributes constantly.
struct Mutation {
  enum class Kind : uint8_t { kCreate, kDelete };
  Kind kind;
  NodeId node;
};

// Wire encoding of a mutation list (5 bytes each: kind + little-endian
// NodeId), used by WAL batch records.
void AppendMutations(const std::vector<Mutation>& mutations, std::string* out);
Result<std::vector<Mutation>> ParseMutations(std::string_view data);

// An XML document: an arena of nodes plus a distinguished root.
//
// Invariants:
//  * node 0, once created, is the root element;
//  * children lists only contain alive nodes (Delete unlinks);
//  * a node's parent is kInvalidNode iff it is the root.
class Document {
 public:
  Document() = default;

  Document(const Document&) = delete;
  Document& operator=(const Document&) = delete;
  Document(Document&&) = default;
  Document& operator=(Document&&) = default;

  // Deep copy (explicit; the copy constructor is deleted so accidental
  // copies of multi-megabyte documents can't happen silently).  The copy
  // shares this document's lineage().
  Document Clone() const;

  // Which document this one descends from: fresh for every constructed or
  // FromBinary-restored document, inherited by Clone().  Equal lineage is
  // the precondition of CatchUpFrom.
  uint64_t lineage() const { return lineage_; }

  // Brings this document forward to `store`'s structure by replaying
  // `delta`, which must be `store.MutationsSince(version())`: a kCreate
  // appends a copy of the store node (kind, label, parent, attributes) at
  // the same id, a kDelete runs DeleteSubtree.  This document must be a
  // past state of `store` — a Clone() of the same lineage changed since
  // only by CatchUpFrom and attribute writes — so afterwards its version()
  // and size() equal the store's and every alive node has the store's
  // structure.  Attributes of nodes that already existed are left alone.
  void CatchUpFrom(const Document& store, const std::vector<Mutation>& delta);

  // Creates the root element.  Must be called exactly once, first.
  NodeId CreateRoot(std::string_view label);

  // Appends a child element / text node under `parent`.
  NodeId CreateElement(NodeId parent, std::string_view label);
  NodeId CreateText(NodeId parent, std::string_view value);

  // Marks `id` and its entire subtree dead and unlinks `id` from its parent.
  // NodeIds of deleted nodes are never reused.
  void DeleteSubtree(NodeId id);

  bool empty() const { return nodes_.empty(); }
  NodeId root() const { return nodes_.empty() ? kInvalidNode : NodeId{0}; }

  const Node& node(NodeId id) const { return nodes_[id]; }
  Node& node(NodeId id) { return nodes_[id]; }

  // Total slots in the arena, including tombstones.
  size_t size() const { return nodes_.size(); }
  // Number of alive nodes.
  size_t alive_count() const { return alive_count_; }

  bool IsAlive(NodeId id) const {
    return id < nodes_.size() && nodes_[id].alive;
  }

  // Attribute access (element nodes only).
  std::optional<std::string_view> GetAttribute(NodeId id,
                                               std::string_view name) const;
  void SetAttribute(NodeId id, std::string_view name, std::string_view value);
  bool RemoveAttribute(NodeId id, std::string_view name);

  // Concatenated text content of the node's direct text children.
  std::string DirectText(NodeId id) const;

  // Pre-order traversal over alive nodes of the subtree rooted at `start`.
  void Visit(NodeId start, const std::function<void(NodeId)>& fn) const;

  // All alive element nodes, in pre-order from the root.
  std::vector<NodeId> AllElements() const;

  // Path of labels from root to `id`, e.g. "/hospital/dept/patients".
  std::string PathOf(NodeId id) const;

  // Depth of `id` (root has depth 0).
  int DepthOf(NodeId id) const;

  // Maximum element depth over the whole document (height of the tree).
  int Height() const;

  // Structural version: bumped once per CreateRoot/CreateElement/CreateText/
  // DeleteSubtree (attribute writes don't count).  Derived structures (the
  // structural index) stamp themselves with this and catch up via the
  // journal.
  uint64_t version() const { return version_; }

  // Appends the mutations in version range (since, version()] to `out`.
  // Returns false when `since` predates the journal's retained window (the
  // journal is bounded; old entries are discarded) — the caller must rebuild
  // from scratch instead of replaying.
  bool MutationsSince(uint64_t since, std::vector<Mutation>* out) const;

  // Binary arena dump for the durable formats (WAL install records and
  // checkpoints).  Unlike XML serialization this preserves NodeIds exactly
  // — tombstones, arena order, and the structural version all round-trip —
  // which is what makes logical WAL replay deterministic: replaying the
  // same mutation sequence against a restored arena allocates the same ids
  // the original run allocated.  The journal is NOT dumped; a restored
  // document starts with an empty journal window at its version.
  void AppendBinary(std::string* out) const;
  static Result<Document> FromBinary(std::string_view data);

 private:
  static uint64_t NextLineage();
  NodeId NewNode(NodeKind kind, std::string_view label, NodeId parent);
  void Journal(Mutation::Kind kind, NodeId node);

  std::vector<Node> nodes_;
  uint64_t lineage_ = NextLineage();
  size_t alive_count_ = 0;
  uint64_t version_ = 0;
  // Journal of the last mutations; journal_[i] took the document from
  // version journal_base_ + i to journal_base_ + i + 1.  Bounded: when it
  // overflows, the oldest half is dropped and journal_base_ advances.
  std::vector<Mutation> journal_;
  uint64_t journal_base_ = 0;
};

}  // namespace xmlac::xml

#endif  // XMLAC_XML_DOCUMENT_H_
