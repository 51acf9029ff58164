#include "xpath/structural_index.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <unordered_map>
#include <utility>

#include "common/shard.h"
#include "obs/metrics.h"

namespace xmlac::xpath {
namespace {

using xml::Document;
using xml::Mutation;
using xml::NodeId;
using xml::NodeKind;

// Label values consumed per enter/leave event at build time.  The trailing
// gap this leaves inside every parent is what incremental inserts allocate
// from; 4096 per event supports thousands of appended children per parent
// before a rebuild.
constexpr uint64_t kBuildGap = 4096;

// Interval width handed to an incrementally inserted child: small enough
// that appends don't drain the parent's gap geometrically, large enough
// that the new node can itself host a few levels of nested inserts.
constexpr uint64_t kInsertSlot = 64;

const std::vector<NodeId> kEmptyStream;

// Below this many document slots a rebuild stays serial: per-node labeling
// work is tens of nanoseconds, so small documents cannot amortize the
// fan-out's fork-join round trip.
constexpr size_t kLabelShardMinNodes = 4096;

// Labels the subtree rooted at `root` with the enter/leave counter scheme,
// starting at label value `counter`; returns the counter after the
// subtree's leave event.  A subtree holding n alive elements consumes
// exactly 2*n kBuildGap slots — the invariant that lets the parallel
// builder precompute every top-level subtree's base offset.
uint64_t LabelSubtree(const Document& doc, NodeId root, uint32_t level,
                      uint64_t counter, std::vector<IntervalLabel>* labels) {
  struct Frame {
    NodeId id;
    size_t next_child;
  };
  (*labels)[root].start = counter;
  (*labels)[root].level = level;
  counter += kBuildGap;
  std::vector<Frame> stack;
  stack.push_back({root, 0});
  while (!stack.empty()) {
    Frame& f = stack.back();
    const xml::Node& n = doc.node(f.id);
    bool descended = false;
    while (f.next_child < n.children.size()) {
      NodeId c = n.children[f.next_child++];
      const xml::Node& cn = doc.node(c);
      if (!cn.alive || cn.kind != NodeKind::kElement) continue;
      (*labels)[c].start = counter;
      (*labels)[c].level = (*labels)[f.id].level + 1;
      counter += kBuildGap;
      stack.push_back({c, 0});
      descended = true;
      break;
    }
    if (descended) continue;
    (*labels)[f.id].end = counter;
    counter += kBuildGap;
    stack.pop_back();
  }
  return counter;
}

// Alive elements in the subtree (descending only through alive elements,
// mirroring LabelSubtree's descend condition).
size_t CountSubtreeElements(const Document& doc, NodeId root) {
  size_t n = 0;
  std::vector<NodeId> stack = {root};
  while (!stack.empty()) {
    NodeId cur = stack.back();
    stack.pop_back();
    const xml::Node& cn = doc.node(cur);
    if (!cn.alive || cn.kind != NodeKind::kElement) continue;
    ++n;
    for (NodeId c : cn.children) stack.push_back(c);
  }
  return n;
}

// The root's alive element children: the unit of the per-subtree fan-out.
std::vector<NodeId> TopLevelSubtrees(const Document& doc) {
  std::vector<NodeId> tops;
  for (NodeId c : doc.node(doc.root()).children) {
    const xml::Node& cn = doc.node(c);
    if (cn.alive && cn.kind == NodeKind::kElement) tops.push_back(c);
  }
  return tops;
}

// Partitions the top-level subtrees into labeling ranges, at least one (a
// root without element children gets an empty range).  The work is the
// document size, so small documents stay one range.  A sharded plan gives
// every subtree its own range: subtree sizes are skewed (XMark's regions
// holds a third of the elements), and the runner's participants balance
// single subtrees as they finish, where k contiguous runs of them would not.
std::vector<ShardRange> PlanSubtreeRanges(const Document& doc,
                                          const std::vector<NodeId>& tops,
                                          const ShardConfig& shard) {
  ShardConfig per_subtree = shard;
  if (shard.ResolvedThreads() > 1) per_subtree.threads = tops.size();
  std::vector<ShardRange> ranges =
      PlanShards(tops.size(), doc.size(), per_subtree, kLabelShardMinNodes);
  if (ranges.empty()) ranges.push_back({});
  return ranges;
}

constexpr ShardSite kLabelSite{"xpath.labeling"};

// Appends `part` to `stream`, moving it when `stream` is still empty.
void AppendStream(IndexVersion::Stream* stream, IndexVersion::Stream* part) {
  if (stream->empty()) {
    *stream = std::move(*part);
  } else {
    stream->insert(stream->end(), part->begin(), part->end());
  }
}

}  // namespace

std::vector<IntervalLabel> ComputeIntervalLabels(const Document& doc) {
  ShardConfig serial;
  serial.enabled = false;
  return ComputeIntervalLabels(doc, serial);
}

// Each range of top-level subtrees labels from its own base offset, the
// label value after every earlier range.  A range's span is 2 * (alive
// elements) * kBuildGap, so the bases come from counting every range but
// the last; with one range nothing is counted, and the range labels the
// whole document in one pass.  Ranges own disjoint label ranges and
// disjoint NodeId slots, so they never touch the same data.
std::vector<IntervalLabel> ComputeIntervalLabels(const Document& doc,
                                                 const ShardConfig& shard) {
  std::vector<IntervalLabel> labels(doc.size());
  if (doc.empty() || !doc.IsAlive(doc.root())) return labels;
  std::vector<NodeId> tops = TopLevelSubtrees(doc);
  std::vector<ShardRange> ranges = PlanSubtreeRanges(doc, tops, shard);
  std::vector<ShardRange> counted(ranges.begin(), ranges.end() - 1);
  std::vector<uint64_t> spans =
      RunShards(counted, shard, kLabelSite, [&](size_t k) {
        uint64_t n = 0;
        for (size_t i = counted[k].begin; i < counted[k].end; ++i) {
          n += CountSubtreeElements(doc, tops[i]);
        }
        return std::vector<uint64_t>{2 * n * kBuildGap};
      });
  labels[doc.root()].start = kBuildGap;
  labels[doc.root()].level = 0;
  std::vector<uint64_t> bases = {2 * kBuildGap};
  for (uint64_t span : spans) bases.push_back(bases.back() + span);
  std::vector<uint64_t> ends =
      RunShards(ranges, shard, kLabelSite, [&](size_t k) {
        uint64_t counter = bases[k];
        for (size_t i = ranges[k].begin; i < ranges[k].end; ++i) {
          counter = LabelSubtree(doc, tops[i], 1, counter, &labels);
        }
        return std::vector<uint64_t>{counter};
      });
  labels[doc.root()].end = ends.back();
  return labels;
}

bool AllocateChildInterval(uint64_t parent_start, uint64_t parent_end,
                           uint64_t anchor, uint64_t* start, uint64_t* end) {
  if (anchor < parent_start) anchor = parent_start;
  if (parent_end <= anchor + 4) return false;  // gap exhausted
  uint64_t gap = parent_end - anchor - 1;
  uint64_t slot = std::min<uint64_t>(kInsertSlot, gap / 2);
  *start = anchor + 1;
  *end = anchor + slot;
  return true;
}

// ----- IndexVersion ------------------------------------------------------

void IndexVersion::InitValueSlots() {
  for (const auto& [tag, stream] : tag_streams_) {
    (void)stream;
    value_slots_.try_emplace(tag);
  }
}

const IndexVersion::Stream& IndexVersion::TagStream(
    std::string_view tag) const {
  auto it = tag_streams_.find(tag);
  return it == tag_streams_.end() ? kEmptyStream : *it->second;
}

std::string IndexVersion::CanonicalValue(const std::string& text) {
  if (text.empty()) return text;
  // Mirrors CompareValues: a side is numeric iff strtod consumes the whole
  // string.  Numeric values bucket by their double ("01" and "1" collide,
  // as =const demands); everything else buckets verbatim.
  char* end = nullptr;
  double v = std::strtod(text.c_str(), &end);
  if (*end != '\0') return text;
  if (v == 0) v = 0;  // collapse -0.0 into +0.0 (they compare equal)
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

const IndexVersion::Stream* IndexVersion::ValueMatches(
    std::string_view tag, const std::string& value,
    const xml::Document& doc) const {
  auto it = value_slots_.find(tag);
  if (it == value_slots_.end()) return nullptr;  // no such tag stream
  const ValueSlot& slot = it->second;
  const ValueBuckets* buckets = slot.published.load(std::memory_order_acquire);
  if (buckets == nullptr) {
    // First probe of this tag in this version: build once behind the slot
    // lock, publish with an atomic store.  Every later probe — including
    // concurrent ones racing this build — is wait-free after the load
    // above succeeds.
    std::lock_guard<std::mutex> lock(slot.build_mu);
    buckets = slot.published.load(std::memory_order_relaxed);
    if (buckets == nullptr) {
      auto built = std::make_shared<ValueBuckets>();
      for (NodeId id : TagStream(tag)) {
        if (!doc.IsAlive(id)) continue;
        std::string text = doc.DirectText(id);
        if (text.empty()) continue;  // no value: every comparison is false
        (*built)[CanonicalValue(text)].push_back(id);
      }
      slot.owned = std::move(built);
      slot.published.store(slot.owned.get(), std::memory_order_release);
      buckets = slot.owned.get();
    }
  }
  auto bucket = buckets->find(CanonicalValue(value));
  if (bucket == buckets->end() || bucket->second.empty()) return nullptr;
  return &bucket->second;
}

// ----- StructuralIndex (publisher) ---------------------------------------

const IndexVersion::Stream& StructuralIndex::TagStream(
    std::string_view tag) const {
  const IndexVersion* v = current();
  return v == nullptr ? kEmptyStream : v->TagStream(tag);
}

const IndexVersion::Stream& StructuralIndex::ElementStream() const {
  const IndexVersion* v = current();
  return v == nullptr ? kEmptyStream : v->ElementStream();
}

std::shared_ptr<IndexVersion> StructuralIndex::BuildFull() {
  auto next = std::shared_ptr<IndexVersion>(new IndexVersion());
  next->doc_version_ = doc_->version();
  next->labels_ = std::make_shared<const IndexVersion::Labels>(
      ComputeIntervalLabels(*doc_, shard_));
  // Streams build per range of top-level subtrees (the first range leads
  // with the root) and concatenate in range order: [root] + subtree
  // pre-orders in sibling order IS the document pre-order, which matches
  // ascending start labels, so the streams come out sorted.
  struct SubtreeStreams {
    IndexVersion::Stream elements;
    std::unordered_map<std::string, IndexVersion::Stream> tags;
  };
  std::vector<SubtreeStreams> parts;
  if (!doc_->empty() && doc_->IsAlive(doc_->root())) {
    std::vector<NodeId> tops = TopLevelSubtrees(*doc_);
    std::vector<ShardRange> ranges = PlanSubtreeRanges(*doc_, tops, shard_);
    parts = RunShards(ranges, shard_, kLabelSite, [&](size_t k) {
      SubtreeStreams part;
      auto add = [&](NodeId id) {
        if (doc_->node(id).kind != NodeKind::kElement) return;
        part.elements.push_back(id);
        part.tags[doc_->node(id).label].push_back(id);
      };
      if (k == 0) add(doc_->root());
      for (size_t i = ranges[k].begin; i < ranges[k].end; ++i) {
        doc_->Visit(tops[i], add);
      }
      return std::vector<SubtreeStreams>{std::move(part)};
    });
  }
  auto elements = std::make_shared<IndexVersion::Stream>();
  std::unordered_map<std::string, IndexVersion::Stream> tags;
  for (SubtreeStreams& part : parts) {
    AppendStream(elements.get(), &part.elements);
    for (auto& [tag, ids] : part.tags) AppendStream(&tags[tag], &ids);
  }
  next->element_stream_ = std::move(elements);
  for (auto& [tag, ids] : tags) {
    next->tag_streams_.emplace(
        tag, std::make_shared<const IndexVersion::Stream>(std::move(ids)));
  }
  next->InitValueSlots();
  ++builds_;
  obs::IncrementCounter("xpath.structural.index_builds");
  return next;
}

std::shared_ptr<IndexVersion> StructuralIndex::BuildIncremental(
    const IndexVersion& parent, const std::vector<Mutation>& mutations) {
  auto next = std::shared_ptr<IndexVersion>(new IndexVersion());
  next->doc_version_ = doc_->version();
  // Start fully shared with the parent; parts clone lazily on first touch,
  // so a delete-only batch shares labels, the "*" stream, and every tag
  // stream (the common case for serve workloads).
  next->labels_ = parent.labels_;
  next->element_stream_ = parent.element_stream_;
  next->tag_streams_ = parent.tag_streams_;
  next->dead_in_streams_ = parent.dead_in_streams_;

  IndexVersion::Labels* labels = nullptr;
  IndexVersion::Stream* elements = nullptr;
  std::map<std::string, IndexVersion::Stream*, std::less<>> cloned_tags;
  // Tags whose direct text changed: their value buckets must not carry
  // forward into the new version.
  std::set<std::string, std::less<>> dirty_values;

  auto mutable_labels = [&]() -> IndexVersion::Labels* {
    if (labels == nullptr) {
      auto clone = std::make_shared<IndexVersion::Labels>(*next->labels_);
      labels = clone.get();
      next->labels_ = std::move(clone);
    }
    return labels;
  };
  auto mutable_elements = [&]() -> IndexVersion::Stream* {
    if (elements == nullptr) {
      auto clone =
          std::make_shared<IndexVersion::Stream>(*next->element_stream_);
      elements = clone.get();
      next->element_stream_ = std::move(clone);
    }
    return elements;
  };
  auto mutable_tag = [&](const std::string& tag) -> IndexVersion::Stream* {
    auto it = cloned_tags.find(tag);
    if (it != cloned_tags.end()) return it->second;
    auto sit = next->tag_streams_.find(tag);
    auto clone = sit == next->tag_streams_.end()
                     ? std::make_shared<IndexVersion::Stream>()
                     : std::make_shared<IndexVersion::Stream>(*sit->second);
    IndexVersion::Stream* raw = clone.get();
    next->tag_streams_.insert_or_assign(tag, std::move(clone));
    cloned_tags.emplace(tag, raw);
    return raw;
  };
  auto insert_into = [&](IndexVersion::Stream* stream, NodeId id) {
    const IndexVersion::Labels& all = *next->labels_;
    uint64_t start = all[id].start;
    auto pos = std::upper_bound(stream->begin(), stream->end(), start,
                                [&](uint64_t s, NodeId other) {
                                  return s < all[other].start;
                                });
    stream->insert(pos, id);
  };
  auto label_new_element = [&](NodeId id) -> bool {
    const xml::Node& n = doc_->node(id);
    if (n.parent == xml::kInvalidNode) return false;  // new root: rebuild
    IndexVersion::Labels& all = *mutable_labels();
    const IntervalLabel pl = all[n.parent];
    if (pl.end == 0) return false;  // parent unlabeled (shouldn't happen)
    // The anchor is the highest label used inside the parent so far;
    // children append, so scanning the (short) child list keeps alive
    // intervals disjoint.  Later-created siblings are still unlabeled
    // (end == 0) at this point in the replay and don't contribute.
    uint64_t anchor = pl.start;
    for (NodeId c : doc_->node(n.parent).children) {
      if (c == id) continue;
      if (all[c].end != 0) anchor = std::max(anchor, all[c].end);
    }
    uint64_t start = 0;
    uint64_t end = 0;
    if (!AllocateChildInterval(pl.start, pl.end, anchor, &start, &end)) {
      return false;
    }
    all[id] = IntervalLabel{start, end, pl.level + 1};
    insert_into(mutable_elements(), id);
    insert_into(mutable_tag(n.label), id);
    return true;
  };

  // Matches() requires labels_->size() == doc.size(); text/element
  // creations grow the document, so the slot table clones and resizes
  // up front when it has to.
  if (next->labels_->size() != doc_->size()) {
    mutable_labels()->resize(doc_->size());
  }

  for (const Mutation& m : mutations) {
    if (m.node >= doc_->size()) return nullptr;
    const xml::Node& n = doc_->node(m.node);
    if (m.kind == Mutation::Kind::kCreate) {
      if (n.kind == NodeKind::kText) {
        // The parent element's direct text changed: its tag's value buckets
        // (if materialized in the parent version) are stale.
        if (n.parent != xml::kInvalidNode && doc_->IsAlive(n.parent)) {
          dirty_values.insert(doc_->node(n.parent).label);
        }
        continue;
      }
      // Created-then-deleted within the same window: never entered the
      // streams, nothing to do.
      if (!doc_->IsAlive(m.node)) continue;
      if (!label_new_element(m.node)) return nullptr;
    } else {
      if (n.kind == NodeKind::kText) {
        if (n.parent != xml::kInvalidNode && doc_->IsAlive(n.parent)) {
          dirty_values.insert(doc_->node(n.parent).label);
        }
        continue;
      }
      // Dead subtrees keep their children lists, so the tombstones now
      // sitting in the streams can be counted for the compaction heuristic.
      std::vector<NodeId> stack = {m.node};
      while (!stack.empty()) {
        NodeId cur = stack.back();
        stack.pop_back();
        const xml::Node& cn = doc_->node(cur);
        if (cn.kind == NodeKind::kElement && cur < next->labels_->size() &&
            (*next->labels_)[cur].end != 0) {
          ++next->dead_in_streams_;
        }
        for (NodeId c : cn.children) stack.push_back(c);
      }
    }
  }

  // Value buckets carry forward for every tag whose stream is still the
  // parent's array (pointer-shared ⇒ structurally untouched) and whose
  // text didn't change — a delete-only batch keeps them all warm.
  next->InitValueSlots();
  for (auto& [tag, slot] : next->value_slots_) {
    if (dirty_values.count(tag) != 0) continue;
    auto pstream = parent.tag_streams_.find(tag);
    auto nstream = next->tag_streams_.find(tag);
    if (pstream == parent.tag_streams_.end() ||
        pstream->second != nstream->second) {
      continue;
    }
    auto pslot = parent.value_slots_.find(tag);
    if (pslot == parent.value_slots_.end()) continue;
    std::shared_ptr<const IndexVersion::ValueBuckets> carried;
    {
      // The parent stays readable while we publish: a concurrent reader
      // may be building this very slot, so take its build lock to copy.
      std::lock_guard<std::mutex> lock(pslot->second.build_mu);
      carried = pslot->second.owned;
    }
    if (carried != nullptr) {
      slot.owned = std::move(carried);
      slot.published.store(slot.owned.get(), std::memory_order_release);
    }
  }
  return next;
}

void StructuralIndex::Publish() {
  if (doc_ == nullptr) return;
  if (head_ != nullptr && head_->Matches(*doc_)) return;
  obs::ScopedTimer timer("xpath.structural.version_publish_us");
  std::shared_ptr<IndexVersion> next;
  if (head_ != nullptr) {
    std::vector<Mutation> mutations;
    if (doc_->MutationsSince(head_->doc_version_, &mutations)) {
      next = BuildIncremental(*head_, mutations);
      // Compaction: once tombstones dominate, scans pay more for skipping
      // dead entries than a rebuild costs.
      if (next != nullptr &&
          next->dead_in_streams_ * 2 > next->element_stream_->size()) {
        next = nullptr;
      }
    } else {
      // The bounded journal dropped the window we needed — a full rebuild
      // is forced below, *on this writer thread*.  Surface it: a workload
      // hitting this repeatedly is silently paying rebuild cost for every
      // batch.  (Readers can never hit this path; they only ever load the
      // published pointer.)
      obs::IncrementCounter("xml.journal.window_misses");
    }
  }
  if (next != nullptr) {
    ++incremental_updates_;
    obs::IncrementCounter("xpath.structural.incremental_updates");
  } else {
    next = BuildFull();
  }
  head_ = std::move(next);
}

}  // namespace xmlac::xpath
