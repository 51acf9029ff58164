#include "obs/ring.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <mutex>

namespace xmlac::obs {

const char* RequestClassName(RequestClass klass) {
  switch (klass) {
    case RequestClass::kQueryNative: return "query.native";
    case RequestClass::kQueryRelational: return "query.relational";
    case RequestClass::kUpdateNative: return "update.native";
    case RequestClass::kUpdateRelational: return "update.relational";
    case RequestClass::kReannotateNative: return "reannotate.native";
    case RequestClass::kReannotateRelational: return "reannotate.relational";
  }
  return "?";
}

namespace {

// Process-wide name table.  The instrumentation vocabulary warms up within
// the first few requests and is then read on every ScopedSpan construction,
// so the lookup path must be wait-free: an open-addressed probe array of
// atomic pointers to immutable (leaked) entries.  Buckets only ever
// transition null -> entry, writers are serialized by `mu`, and at most
// 65536 ids fit in a 2^17 table, so linear probing always terminates with
// load factor <= 1/2.
struct NameEntry {
  std::string name;
  uint16_t id;
};

constexpr size_t kNameBuckets = 1 << 17;

struct NameTable {
  std::mutex mu;  // writers (and the cold id->name path) only
  std::vector<std::string> names{""};  // id 0 reserved: "unnamed"
  std::unique_ptr<std::atomic<NameEntry*>[]> buckets{
      new std::atomic<NameEntry*>[kNameBuckets]{}};
};

NameTable& Names() {
  static NameTable* table = new NameTable();  // leaked: outlives all threads
  return *table;
}

}  // namespace

uint16_t InternName(std::string_view name) {
  NameTable& t = Names();
  const size_t hash = std::hash<std::string_view>{}(name);
  size_t bucket = hash & (kNameBuckets - 1);
  // Fast path: no lock, no allocation.
  while (true) {
    NameEntry* e = t.buckets[bucket].load(std::memory_order_acquire);
    if (e == nullptr) break;  // first null ends the probe chain
    if (e->name == name) return e->id;
    bucket = (bucket + 1) & (kNameBuckets - 1);
  }
  // Slow path: serialize writers, re-probe (someone may have inserted while
  // we raced here), then publish a new immutable entry.
  std::lock_guard<std::mutex> lock(t.mu);
  bucket = hash & (kNameBuckets - 1);
  while (true) {
    NameEntry* e = t.buckets[bucket].load(std::memory_order_relaxed);
    if (e == nullptr) break;
    if (e->name == name) return e->id;
    bucket = (bucket + 1) & (kNameBuckets - 1);
  }
  if (t.names.size() > UINT16_MAX) {
    // Saturated: report as "unnamed" rather than growing without bound.
    return 0;
  }
  auto* entry = new NameEntry{std::string(name),
                              static_cast<uint16_t>(t.names.size())};
  t.names.emplace_back(entry->name);
  t.buckets[bucket].store(entry, std::memory_order_release);
  return entry->id;
}

std::string NameOf(uint16_t id) {
  NameTable& t = Names();
  std::lock_guard<std::mutex> lock(t.mu);
  if (id >= t.names.size()) return "?";
  return t.names[id];
}

EventRing::EventRing(size_t capacity) {
  size_t cap = 8;
  while (cap < capacity) cap <<= 1;
  mask_ = cap - 1;
  slots_ = std::make_unique<Slot[]>(cap);
}

uint64_t EventRing::Drain(std::vector<Event>* out) {
  const uint64_t cap = mask_ + 1;
  uint64_t head = head_.load(std::memory_order_acquire);
  uint64_t lost = 0;
  if (head - tail_ > cap) {
    // The producer lapped us before we even started: everything older than
    // one full ring is gone.
    lost = head - cap - tail_;
    tail_ = head - cap;
  }
  const size_t base = out->size();
  const uint64_t read_from = tail_;
  for (uint64_t i = tail_; i != head; ++i) {
    const Slot& s = slots_[i & mask_];
    Event e;
    e.ts_ns = s.w0.load(std::memory_order_acquire);
    e.arg = s.w1.load(std::memory_order_acquire);
    uint64_t w2 = s.w2.load(std::memory_order_acquire);
    e.name = static_cast<uint16_t>(w2 & 0xFFFF);
    e.type = static_cast<EventType>((w2 >> 16) & 0xFFFF);
    e.klass = static_cast<uint8_t>((w2 >> 32) & 0xFF);
    out->push_back(e);
  }
  // Overwrite detection: any slot the producer could have reached while we
  // were copying may hold a torn mix of two events.  The producer announces
  // index j in claimed_ before it touches j's slot (that of index j - cap),
  // and the acquire loads above make any new slot word we read carry that
  // claim, so indices below claimed - cap are suspect — discard that
  // (oldest-first) prefix and count it as dropped instead of surfacing
  // garbage.  Re-reading head_ instead misses the slot of a write still in
  // progress.
  uint64_t claimed = claimed_.load(std::memory_order_relaxed);
  if (claimed > cap && claimed - cap > read_from) {
    uint64_t torn = std::min(claimed - cap, head) - read_from;
    out->erase(out->begin() + static_cast<ptrdiff_t>(base),
               out->begin() + static_cast<ptrdiff_t>(base + torn));
    lost += torn;
  }
  tail_ = head;
  dropped_ += lost;
  return lost;
}

namespace {
thread_local EventRing* tls_current_ring = nullptr;
}  // namespace

EventRing* CurrentRing() { return tls_current_ring; }

ScopedRing::ScopedRing(EventRing* ring) : previous_(tls_current_ring) {
  tls_current_ring = ring;
}

ScopedRing::~ScopedRing() { tls_current_ring = previous_; }

void WorkerRingPool::Add(EventRing* ring) {
  auto entry = std::make_unique<Entry>();
  entry->ring = ring;
  entries_.push_back(std::move(entry));
}

EventRing* WorkerRingPool::TryAcquire() {
  for (auto& entry : entries_) {
    bool expected = false;
    if (entry->busy.compare_exchange_strong(expected, true,
                                            std::memory_order_acq_rel)) {
      return entry->ring;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return nullptr;
}

void WorkerRingPool::Release(EventRing* ring) {
  if (ring == nullptr) return;
  for (auto& entry : entries_) {
    if (entry->ring == ring) {
      entry->busy.store(false, std::memory_order_release);
      return;
    }
  }
}

namespace {
thread_local WorkerRingPool* tls_current_pool = nullptr;
}  // namespace

WorkerRingPool* CurrentWorkerRingPool() { return tls_current_pool; }

ScopedWorkerRingPool::ScopedWorkerRingPool(WorkerRingPool* pool)
    : previous_(tls_current_pool) {
  tls_current_pool = pool;
}

ScopedWorkerRingPool::~ScopedWorkerRingPool() { tls_current_pool = previous_; }

ScopedWorkerRing::ScopedWorkerRing(WorkerRingPool* pool) : pool_(pool) {
  if (pool_ == nullptr) return;
  previous_pool_ = tls_current_pool;
  previous_ring_ = tls_current_ring;
  tls_current_pool = pool_;
  ring_ = pool_->TryAcquire();
  if (ring_ != nullptr) tls_current_ring = ring_;
}

ScopedWorkerRing::~ScopedWorkerRing() {
  if (pool_ == nullptr) return;
  tls_current_ring = previous_ring_;
  tls_current_pool = previous_pool_;
  pool_->Release(ring_);
}

}  // namespace xmlac::obs
