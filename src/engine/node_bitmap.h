#ifndef XMLAC_ENGINE_NODE_BITMAP_H_
#define XMLAC_ENGINE_NODE_BITMAP_H_

// Dense bitmap over UniversalId.
//
// Rule scopes and sign states are sets of node ids drawn from a compact
// range (ids are arena indices), so a plain word vector beats sorted-vector
// merges: the Table 2 / Fig. 5 UNION and EXCEPT combinations become
// word-wise OR and AND-NOT, and "which signs changed" is a word-wise diff.
// Ids of deleted nodes may linger as set bits; that is harmless everywhere
// bitmaps are consumed (SetSigns skips dead nodes) and keeps all set
// operations O(words) with no liveness checks.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "engine/backend.h"

namespace xmlac::engine {

class NodeBitmap {
 public:
  NodeBitmap() = default;

  // Pre-sizes for ids in [0, bound); the bitmap still grows on demand.
  explicit NodeBitmap(size_t bound) : words_((bound + 63) / 64, 0) {}

  static NodeBitmap FromIds(const std::vector<UniversalId>& ids) {
    NodeBitmap bm;
    for (UniversalId id : ids) bm.Set(id);
    return bm;
  }

  void Set(UniversalId id) {
    XMLAC_DCHECK(id >= 0);
    size_t word = static_cast<size_t>(id) >> 6;
    if (word >= words_.size()) words_.resize(word + 1, 0);
    words_[word] |= uint64_t{1} << (id & 63);
  }

  bool Test(UniversalId id) const {
    if (id < 0) return false;
    size_t word = static_cast<size_t>(id) >> 6;
    if (word >= words_.size()) return false;
    return (words_[word] >> (id & 63)) & 1;
  }

  void Unset(UniversalId id) {
    if (id < 0) return;
    size_t word = static_cast<size_t>(id) >> 6;
    if (word >= words_.size()) return;
    words_[word] &= ~(uint64_t{1} << (id & 63));
  }

  void Clear() { words_.clear(); }

  bool Empty() const {
    for (uint64_t w : words_) {
      if (w != 0) return false;
    }
    return true;
  }

  size_t Count() const {
    size_t n = 0;
    for (uint64_t w : words_) n += static_cast<size_t>(__builtin_popcountll(w));
    return n;
  }

  // this |= other  (Fig. 5 UNION).
  void Union(const NodeBitmap& other) {
    if (other.words_.size() > words_.size()) {
      words_.resize(other.words_.size(), 0);
    }
    for (size_t i = 0; i < other.words_.size(); ++i) {
      words_[i] |= other.words_[i];
    }
  }

  // this &= ~other  (Fig. 5 EXCEPT).
  void Subtract(const NodeBitmap& other) {
    size_t n = std::min(words_.size(), other.words_.size());
    for (size_t i = 0; i < n; ++i) words_[i] &= ~other.words_[i];
  }

  // this &= other.
  void Intersect(const NodeBitmap& other) {
    if (words_.size() > other.words_.size()) {
      words_.resize(other.words_.size());
    }
    for (size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
  }

  // Appends the ids set in *this but clear in `other` (ascending).  This is
  // the sign diff: exactly the nodes whose sign must change.
  void DifferenceInto(const NodeBitmap& other,
                      std::vector<UniversalId>* out) const {
    for (size_t i = 0; i < words_.size(); ++i) {
      uint64_t w = words_[i];
      if (i < other.words_.size()) w &= ~other.words_[i];
      while (w != 0) {
        int bit = __builtin_ctzll(w);
        out->push_back(static_cast<UniversalId>((i << 6) + bit));
        w &= w - 1;
      }
    }
  }

  std::vector<UniversalId> ToIds() const {
    std::vector<UniversalId> out;
    out.reserve(Count());
    DifferenceInto(NodeBitmap(), &out);
    return out;
  }

  size_t word_count() const { return words_.size(); }

 private:
  std::vector<uint64_t> words_;
};

}  // namespace xmlac::engine

#endif  // XMLAC_ENGINE_NODE_BITMAP_H_
