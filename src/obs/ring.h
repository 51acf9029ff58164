#ifndef XMLAC_OBS_RING_H_
#define XMLAC_OBS_RING_H_

// Per-thread lock-free SPSC event rings: the ingestion side of the
// always-on flight recorder (docs/observability.md, "Flight recorder").
//
// Instrumented code appends compact binary events — span begin/end,
// counter deltas, request begin/end, epoch publishes, queue depths — into
// the thread's current ring with one clock read and no allocation.  A
// background drainer (obs::FlightRecorder) periodically moves events out.
//
// Design:
//   - One ring per producer thread (SPSC).  The producer writes slots and
//     advances `head_` with a release store; it NEVER blocks and NEVER
//     waits for the consumer.  When the consumer falls behind, the
//     producer simply laps it: overwrite-oldest semantics, with the loss
//     accounted exactly by the consumer at drain time (obs.ring.dropped).
//   - Slots are three relaxed-atomic 64-bit words, so concurrent
//     producer/drainer access is race-free by construction (TSan-clean)
//     at plain-store cost on x86/ARM.
//   - The drainer detects mid-read overwrites by re-reading `head_` after
//     copying: any slot the producer could have reached is discarded and
//     counted as dropped instead of surfacing torn events.
//   - Event names are interned once into stable uint16 ids (InternName);
//     hot call sites pay one read-locked hash lookup the first time a name
//     is seen per call and nothing after the table warms up.
//
// Event record (24 bytes):
//   word0  timestamp, nanoseconds on the steady clock (one clock read)
//   word1  payload (counter delta, latency_us, epoch, queue depth)
//   word2  packed [ name:16 | type:16 | class:8 | reserved:24 ]

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace xmlac::obs {

enum class EventType : uint16_t {
  kNone = 0,
  kSpanBegin = 1,     // name = span name id
  kSpanEnd = 2,       // name = span name id
  kCounter = 3,       // name = counter name id, arg = delta
  kRequestBegin = 4,  // klass = RequestClass
  kRequestEnd = 5,    // klass = RequestClass, arg = end-to-end latency_us
  kEpochPublish = 6,  // arg = published epoch
  kQueueDepth = 7,    // name = queue name id, arg = depth
  kInstant = 8,       // name = label id, arg free-form
};

// Request classes the flight recorder keeps separate latency distributions
// for: the paper's workload axes (query/update/re-annotation cost) crossed
// with the storage backend.
enum class RequestClass : uint8_t {
  kQueryNative = 0,
  kQueryRelational = 1,
  kUpdateNative = 2,
  kUpdateRelational = 3,
  kReannotateNative = 4,
  kReannotateRelational = 5,
};
inline constexpr size_t kRequestClassCount = 6;
const char* RequestClassName(RequestClass klass);

// A drained event, unpacked into plain values.
struct Event {
  uint64_t ts_ns = 0;
  uint64_t arg = 0;
  uint16_t name = 0;
  EventType type = EventType::kNone;
  uint8_t klass = 0;
};

// Interns `name` into a process-wide table of stable uint16 ids (0 is
// reserved for "unnamed").  Idempotent; safe from any thread.  The table
// holds at most 65535 distinct names — far beyond the instrumentation
// vocabulary — and saturates to id 0 rather than growing unboundedly.
uint16_t InternName(std::string_view name);

// Reverse lookup; "?" for ids never interned.
std::string NameOf(uint16_t id);

// Nanoseconds on the steady clock (the single timestamp read per event).
inline uint64_t EventClockNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class EventRing {
 public:
  // Capacity is rounded up to a power of two, minimum 8 slots.
  explicit EventRing(size_t capacity = 1 << 12);
  EventRing(const EventRing&) = delete;
  EventRing& operator=(const EventRing&) = delete;

  // Producer side.  Wait-free: one relaxed store and four release stores
  // (plain stores on x86).
  void Append(EventType type, uint16_t name, uint64_t arg, uint8_t klass = 0) {
    uint64_t h = head_.load(std::memory_order_relaxed);
    // Announce the overwrite before touching the slot: a drainer that reads
    // any of the new slot words also sees the claim (see Drain).
    claimed_.store(h + 1, std::memory_order_relaxed);
    Slot& s = slots_[h & mask_];
    s.w0.store(EventClockNs(), std::memory_order_release);
    s.w1.store(arg, std::memory_order_release);
    s.w2.store(Pack(type, name, klass), std::memory_order_release);
    head_.store(h + 1, std::memory_order_release);
  }

  // Consumer side (single drainer).  Appends every event published since
  // the previous Drain to *out, oldest first, and returns how many events
  // were lost since then (overwritten before they could be read).
  uint64_t Drain(std::vector<Event>* out);

  size_t capacity() const { return mask_ + 1; }
  // Total events ever appended (approximate from another thread).
  uint64_t appended() const { return head_.load(std::memory_order_relaxed); }
  // Total events lost to overwrite, accounted at drain time.
  uint64_t dropped() const { return dropped_; }

 private:
  struct Slot {
    std::atomic<uint64_t> w0{0};
    std::atomic<uint64_t> w1{0};
    std::atomic<uint64_t> w2{0};
  };

  static uint64_t Pack(EventType type, uint16_t name, uint8_t klass) {
    return static_cast<uint64_t>(name) |
           (static_cast<uint64_t>(static_cast<uint16_t>(type)) << 16) |
           (static_cast<uint64_t>(klass) << 32);
  }

  std::unique_ptr<Slot[]> slots_;
  uint64_t mask_;
  std::atomic<uint64_t> head_{0};  // next write index (producer-owned)
  // One past the index the producer is writing or last wrote.
  std::atomic<uint64_t> claimed_{0};
  uint64_t tail_ = 0;              // next read index (consumer-owned)
  uint64_t dropped_ = 0;           // consumer-side loss accounting
};

// --- Thread-local current ring ----------------------------------------------
// Mirrors CurrentMetrics()/CurrentTracer(): deep layers emit through the
// thread's installed ring, or skip in one TLS load + branch when none is.

EventRing* CurrentRing();

class ScopedRing {
 public:
  explicit ScopedRing(EventRing* ring);
  ~ScopedRing();
  ScopedRing(const ScopedRing&) = delete;
  ScopedRing& operator=(const ScopedRing&) = delete;

 private:
  EventRing* previous_;
};

// Emit-if-enabled helper.
inline void EmitEvent(EventType type, uint16_t name, uint64_t arg,
                      uint8_t klass = 0) {
  EventRing* ring = CurrentRing();
  if (ring != nullptr) ring->Append(type, name, arg, klass);
}

// --- Worker ring pool -------------------------------------------------------
// ParallelFor runs tickets on persistent pool workers that have no ring of
// their own, and SPSC rings admit exactly one producer — workers must never
// share the caller's ring.  A WorkerRingPool holds pre-created rings
// (typically FlightRecorder::AddRing "parallel-N" rings) that a pool worker
// claims atomically for the duration of one ticket and releases after it.
// Each pool worker holds at most one ring at a time, so a pool with one ring
// per ParallelPoolWorkers() never runs dry; if it does, the extra worker
// runs ring-less (its spans are not recorded) and the pool counts the miss.
// Rings are registered before any worker runs and never removed, so
// iteration is lock-free.

class WorkerRingPool {
 public:
  // Registers a ring (non-owning; the ring must outlive all claimants).
  // Not thread-safe: call before the pool is published to workers.
  void Add(EventRing* ring);

  // Claims an idle ring, or nullptr (counted in misses()) when all are
  // busy.  Thread-safe.
  EventRing* TryAcquire();

  // Returns a ring obtained from TryAcquire.  nullptr is a no-op.
  void Release(EventRing* ring);

  size_t size() const { return entries_.size(); }

  // TryAcquire calls that found every ring busy: workers whose spans the
  // recorder never saw.
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }

 private:
  struct Entry {
    EventRing* ring = nullptr;
    std::atomic<bool> busy{false};
  };
  std::vector<std::unique_ptr<Entry>> entries_;
  std::atomic<uint64_t> misses_{0};
};

// The thread's installed pool (or nullptr), mirroring CurrentRing().
// ParallelFor reads this to decide whether worker spans can be recorded.
WorkerRingPool* CurrentWorkerRingPool();

// Installs `pool` for the current thread, restoring the previous pool on
// destruction.  Server worker/writer loops install the recorder's pool once
// at thread start so every ParallelFor beneath them propagates spans.
class ScopedWorkerRingPool {
 public:
  explicit ScopedWorkerRingPool(WorkerRingPool* pool);
  ~ScopedWorkerRingPool();
  ScopedWorkerRingPool(const ScopedWorkerRingPool&) = delete;
  ScopedWorkerRingPool& operator=(const ScopedWorkerRingPool&) = delete;

 private:
  WorkerRingPool* previous_;
};

// ParallelFor pool-worker guard: claims a ring from `pool` (if one is
// free), installs it as the thread's current ring, and re-installs `pool` so
// nested fan-outs can claim rings too.  A null pool is a complete no-op —
// the participating caller (and a thread helping while it waits) passes
// null to keep its own ring.
class ScopedWorkerRing {
 public:
  explicit ScopedWorkerRing(WorkerRingPool* pool);
  ~ScopedWorkerRing();
  ScopedWorkerRing(const ScopedWorkerRing&) = delete;
  ScopedWorkerRing& operator=(const ScopedWorkerRing&) = delete;

 private:
  WorkerRingPool* pool_ = nullptr;
  EventRing* ring_ = nullptr;
  WorkerRingPool* previous_pool_ = nullptr;
  EventRing* previous_ring_ = nullptr;
};

}  // namespace xmlac::obs

#endif  // XMLAC_OBS_RING_H_
