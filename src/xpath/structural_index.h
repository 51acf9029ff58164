#ifndef XMLAC_XPATH_STRUCTURAL_INDEX_H_
#define XMLAC_XPATH_STRUCTURAL_INDEX_H_

// Multi-version structural index: interval labels + tag streams + a
// per-tag value index, published as immutable, shared-owned versions
// (docs/concurrency.md).
//
// Every alive element gets an interval label (start, end, level) from one
// pre/post-order pass; `d` is a descendant of `a` iff
// a.start < d.start && d.end < a.end, and labels within one document never
// partially overlap, so d.start alone decides containment.  Labels are
// *gapped*: consecutive build-time labels leave kBuildGap unused values, so
// an inserted subtree can usually be labeled inside its parent's remaining
// gap without relabeling the document.  When the gap runs out the publisher
// falls back to a full rebuild (counted separately, see the obs counters).
//
// Tag streams partition the alive elements by tag, each stream sorted by
// start (= document order).  The structural-join evaluator
// (structural_eval.h) merges context lists against these streams instead of
// re-walking subtrees.  Deleted nodes are filtered lazily at scan time
// (Document keeps tombstones); when too many tombstones accumulate the next
// Publish() compacts by rebuilding.
//
// Concurrency model (single writer, shared ownership):
//
//   * IndexVersion is deeply immutable.  The writer catches up through the
//     document's mutation journal and publishes a new version by replacing
//     its head pointer; unchanged parts — the label vector, the "*" element
//     stream, and every untouched per-tag stream and value-bucket map — are
//     shared with the prior version by refcounted pointers (delete-only
//     batches share everything).
//   * current() is writer-side: the writer itself, or a fan-out the writer
//     joins before its next mutation, reads through it.  No rebuild ever
//     runs outside Publish().
//   * Holders off the writer thread (serve snapshots) take CurrentShared()
//     on the writer thread.  A version lives exactly as long as the head
//     pointer or some holder's shared_ptr owns it.
//
// Versions stamp themselves with Document::version(); the writer's catch-up
// replays the journal:
//   * created elements get an interval carved from the parent's gap and are
//     spliced into (copies of) their streams;
//   * deleted subtrees only bump the tombstone estimate;
//   * text changes stop the enclosing tag's value buckets from carrying
//     forward into the new version.
// Journal truncation, gap exhaustion, or anything unexpected triggers a
// full rebuild — incremental maintenance is an optimization, never a
// correctness requirement.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/shard.h"
#include "xml/document.h"

namespace xmlac::xpath {

struct IntervalLabel {
  uint64_t start = 0;
  uint64_t end = 0;  // 0 = unlabeled (text node, tombstone, or stale slot)
  uint32_t level = 0;  // element depth; root = 0
};

// One-shot gapped interval labeling of a document's alive elements (also
// used by the relational shredder to fill (st, en) columns).  The result is
// indexed by NodeId and only meaningful for alive elements; other slots
// keep end == 0.
std::vector<IntervalLabel> ComputeIntervalLabels(const xml::Document& doc);

// Shard-parallel variant: labels each top-level subtree on a ParallelFor
// worker.  The enter/leave scheme consumes exactly two kBuildGap slots per
// alive element, so each subtree's base offset is precomputable and the
// label vector is byte-identical to the serial one for any thread count.
std::vector<IntervalLabel> ComputeIntervalLabels(const xml::Document& doc,
                                                 const ShardConfig& shard);

// Carves an interval for a new last child out of `parent`'s remaining gap.
// `anchor` is the highest label value already used inside the parent (the
// last labeled child's end, or parent.start when childless).  Returns false
// when the gap is exhausted; on success *start/*end hold the new interval
// and the caller's anchor for the parent becomes *end.  Shared between the
// native index and the relational backend so both stores assign compatible
// labels.
bool AllocateChildInterval(uint64_t parent_start, uint64_t parent_end,
                           uint64_t anchor, uint64_t* start, uint64_t* end);

// One immutable published state of the index.  The writer reads it through
// StructuralIndex::current(); other threads hold it by shared ownership
// (serve snapshots).  Every accessor below is lock-free and safe against
// the publication of newer versions.
//
// A version is document-object independent: it matches any Document whose
// version counter and slot count agree (clones preserve both), so one
// version built on the fleet's shared store serves all its snapshot
// clones.
class IndexVersion {
 public:
  using Stream = std::vector<xml::NodeId>;
  using ValueBuckets = std::map<std::string, Stream>;

  IndexVersion(const IndexVersion&) = delete;
  IndexVersion& operator=(const IndexVersion&) = delete;

  // True when this version reflects `doc`'s current content.  The
  // evaluator dispatch checks this before structural evaluation; with the
  // writer publishing eagerly at every mutation point it never fails in
  // steady state (the serve layer counts any miss as
  // `serve.read.index_stale`).
  bool Matches(const xml::Document& doc) const {
    return doc.version() == doc_version_ && doc.size() == labels_->size();
  }

  // The Document::version() this index version was built at.
  uint64_t doc_version() const { return doc_version_; }

  const IntervalLabel& label(xml::NodeId id) const { return (*labels_)[id]; }

  // All alive-at-last-compaction elements with tag `tag`, sorted by start.
  // May contain tombstones (filter with doc.IsAlive).  Empty stream for
  // unknown tags.
  const Stream& TagStream(std::string_view tag) const;

  // Every element, sorted by start (the "*" stream).
  const Stream& ElementStream() const { return *element_stream_; }

  // Elements with tag `tag` whose direct text compares equal to `value`
  // under the evaluator's =const semantics (numeric when both sides parse
  // as numbers), sorted by start; nullptr when no element matches.  `doc`
  // supplies the text (any document this version Matches / was built for).
  // Buckets build lazily per tag behind a double-checked atomic publish:
  // the first probe of a tag takes a build lock, every later probe is
  // wait-free.  Like TagStream, buckets may contain tombstones.
  const Stream* ValueMatches(std::string_view tag, const std::string& value,
                             const xml::Document& doc) const;

  // The canonical form under which values are bucketed: numeric strings
  // normalize so "01" and "1" share a bucket, mirroring CompareValues.
  static std::string CanonicalValue(const std::string& text);

 private:
  friend class StructuralIndex;

  using Labels = std::vector<IntervalLabel>;

  // Per-tag value-bucket slot: created at version construction (the slot
  // map itself is immutable), contents built lazily and published with an
  // atomic store so readers after the first probe never take the lock.
  struct ValueSlot {
    mutable std::mutex build_mu;
    mutable std::shared_ptr<const ValueBuckets> owned;
    mutable std::atomic<const ValueBuckets*> published{nullptr};
  };

  IndexVersion() = default;

  // Creates one (empty) value slot per tag stream.  Called once by the
  // publisher before the version escapes to readers.
  void InitValueSlots();

  uint64_t doc_version_ = 0;
  // COW parts — shared with neighbor versions when unchanged.
  std::shared_ptr<const Labels> labels_;
  std::shared_ptr<const Stream> element_stream_;
  std::map<std::string, std::shared_ptr<const Stream>, std::less<>>
      tag_streams_;
  // Tombstones sitting in the streams since the last full rebuild; when
  // they exceed half the stream entries the publisher compacts.
  size_t dead_in_streams_ = 0;
  std::map<std::string, ValueSlot, std::less<>> value_slots_;
};

// The per-document publisher: owns the current IndexVersion and builds the
// next one from the mutation journal.  Every member is writer-side and must
// be externally serialized with document mutations — the engine's single
// writer already guarantees this.  A version outlives its publisher for as
// long as a CurrentShared() holder keeps it.
class StructuralIndex {
 public:
  // `doc` is not owned and must outlive the index.  The index starts
  // empty; the writer calls Publish() after every mutation batch.
  explicit StructuralIndex(const xml::Document* doc) : doc_(doc) {}

  StructuralIndex(const StructuralIndex&) = delete;
  StructuralIndex& operator=(const StructuralIndex&) = delete;

  // Builds and publishes a version for the document's current state (no-op
  // when the published version is already current).  The displaced version
  // is freed when its last shared_ptr holder lets go.  Journal window
  // misses force a full rebuild *here*, on the writer — a reader can never
  // pay one.
  void Publish();

  // Drops the published version; the next Publish() rebuilds from
  // scratch.  Call after the backing document object is replaced
  // wholesale (its version counter restarts).
  void Invalidate() { head_.reset(); }

  // The current version, or nullptr before the first Publish().  Writer
  // side only: the pointer is valid until the next Publish() or
  // Invalidate(), so a fan-out reading through it must be joined before
  // the writer's next mutation.
  const IndexVersion* current() const { return head_.get(); }

  // Shared ownership of the current version for holders that outlive the
  // next Publish() (serve snapshots).  Writer-thread only.
  std::shared_ptr<const IndexVersion> CurrentShared() const { return head_; }

  // True when the published version reflects `doc`'s current content.
  bool ReadyFor(const xml::Document& doc) const {
    const IndexVersion* v = current();
    return doc_ == &doc && v != nullptr && v->Matches(doc);
  }

  // Conveniences delegating to the current version (tests, writer-side
  // probes).  Empty/null results before the first Publish().
  const IntervalLabel& label(xml::NodeId id) const {
    return current()->label(id);
  }
  const IndexVersion::Stream& TagStream(std::string_view tag) const;
  const IndexVersion::Stream& ElementStream() const;
  const IndexVersion::Stream* ValueMatches(std::string_view tag,
                                           const std::string& value) const {
    const IndexVersion* v = current();
    return v == nullptr ? nullptr : v->ValueMatches(tag, value, *doc_);
  }
  static std::string CanonicalValue(const std::string& text) {
    return IndexVersion::CanonicalValue(text);
  }

  uint64_t builds() const { return builds_; }
  uint64_t incremental_updates() const { return incremental_updates_; }

  // Sharding for full rebuilds (labeling + stream construction run
  // per-top-level-subtree on ParallelFor workers).  Streams and labels are
  // identical either way; takes effect at the next rebuild.
  void set_shard_config(const ShardConfig& shard) { shard_ = shard; }

 private:
  std::shared_ptr<IndexVersion> BuildFull();
  // Builds the next version from `parent` + journaled mutations, sharing
  // untouched parts; nullptr means the journal couldn't be applied (gap
  // exhausted / unexpected shape) and the caller must BuildFull.
  std::shared_ptr<IndexVersion> BuildIncremental(
      const IndexVersion& parent, const std::vector<xml::Mutation>& mutations);

  const xml::Document* doc_;
  std::shared_ptr<const IndexVersion> head_;

  uint64_t builds_ = 0;
  uint64_t incremental_updates_ = 0;
  ShardConfig shard_;
};

}  // namespace xmlac::xpath

#endif  // XMLAC_XPATH_STRUCTURAL_INDEX_H_
