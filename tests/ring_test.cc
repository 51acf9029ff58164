#include "obs/ring.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace xmlac::obs {
namespace {

TEST(InternNameTest, StableAndIdempotent) {
  uint16_t a = InternName("ring_test.alpha");
  uint16_t b = InternName("ring_test.beta");
  EXPECT_NE(a, b);
  EXPECT_NE(a, 0);  // 0 is reserved
  EXPECT_EQ(a, InternName("ring_test.alpha"));
  EXPECT_EQ(NameOf(a), "ring_test.alpha");
  EXPECT_EQ(NameOf(b), "ring_test.beta");
}

TEST(InternNameTest, UnknownIdResolvesToQuestionMark) {
  EXPECT_EQ(NameOf(65535), "?");
}

TEST(EventRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(EventRing(1).capacity(), 8u);   // minimum
  EXPECT_EQ(EventRing(8).capacity(), 8u);
  EXPECT_EQ(EventRing(9).capacity(), 16u);
  EXPECT_EQ(EventRing(1000).capacity(), 1024u);
}

TEST(EventRingTest, DrainReturnsEventsInOrder) {
  EventRing ring(16);
  uint16_t name = InternName("ring_test.span");
  ring.Append(EventType::kSpanBegin, name, 0);
  ring.Append(EventType::kCounter, name, 7);
  ring.Append(EventType::kSpanEnd, name, 0);
  std::vector<Event> out;
  EXPECT_EQ(ring.Drain(&out), 0u);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].type, EventType::kSpanBegin);
  EXPECT_EQ(out[1].type, EventType::kCounter);
  EXPECT_EQ(out[1].arg, 7u);
  EXPECT_EQ(out[2].type, EventType::kSpanEnd);
  EXPECT_EQ(out[0].name, name);
  // Timestamps are monotone within one producer.
  EXPECT_LE(out[0].ts_ns, out[1].ts_ns);
  EXPECT_LE(out[1].ts_ns, out[2].ts_ns);
  // Drained means drained.
  out.clear();
  EXPECT_EQ(ring.Drain(&out), 0u);
  EXPECT_TRUE(out.empty());
}

TEST(EventRingTest, PayloadFieldsRoundTrip) {
  EventRing ring(8);
  ring.Append(EventType::kRequestEnd, 123, 456789, 5);
  std::vector<Event> out;
  ring.Drain(&out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].name, 123);
  EXPECT_EQ(out[0].arg, 456789u);
  EXPECT_EQ(out[0].type, EventType::kRequestEnd);
  EXPECT_EQ(out[0].klass, 5);
}

TEST(EventRingTest, WrapAroundKeepsNewestAndCountsDrops) {
  EventRing ring(8);
  ASSERT_EQ(ring.capacity(), 8u);
  // 20 appends into 8 slots: the 12 oldest are overwritten.
  for (uint64_t i = 0; i < 20; ++i) {
    ring.Append(EventType::kCounter, 1, i);
  }
  std::vector<Event> out;
  uint64_t lost = ring.Drain(&out);
  EXPECT_EQ(lost, 12u);
  EXPECT_EQ(ring.dropped(), 12u);
  ASSERT_EQ(out.size(), 8u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].arg, 12 + i) << "oldest surviving event is #12";
  }
  EXPECT_EQ(ring.appended(), 20u);
}

TEST(EventRingTest, DropAccountingAccumulatesAcrossDrains) {
  EventRing ring(8);
  std::vector<Event> out;
  for (uint64_t i = 0; i < 10; ++i) ring.Append(EventType::kCounter, 1, i);
  EXPECT_EQ(ring.Drain(&out), 2u);
  for (uint64_t i = 0; i < 13; ++i) ring.Append(EventType::kCounter, 1, i);
  EXPECT_EQ(ring.Drain(&out), 5u);
  EXPECT_EQ(ring.dropped(), 7u);
}

// The TSan-relevant test: one producer appending flat out while a drainer
// consumes.  Every event must either surface exactly once or be counted as
// dropped — no duplicates, no losses, no torn reads.
TEST(EventRingTest, ConcurrentProducerAndDrainer) {
  EventRing ring(1 << 8);
  constexpr uint64_t kEvents = 200000;
  std::atomic<bool> done{false};
  std::thread producer([&] {
    for (uint64_t i = 0; i < kEvents; ++i) {
      ring.Append(EventType::kCounter, 1, i);
    }
    done.store(true, std::memory_order_release);
  });
  std::vector<Event> out;
  uint64_t lost = 0;
  while (!done.load(std::memory_order_acquire)) {
    lost += ring.Drain(&out);
  }
  lost += ring.Drain(&out);
  producer.join();
  lost += ring.Drain(&out);
  EXPECT_EQ(out.size() + lost, kEvents);
  // Surfaced args must be strictly increasing — a torn or duplicated slot
  // would violate this.
  for (size_t i = 1; i < out.size(); ++i) {
    ASSERT_LT(out[i - 1].arg, out[i].arg) << "at index " << i;
  }
}

TEST(ScopedRingTest, InstallsAndRestores) {
  EXPECT_EQ(CurrentRing(), nullptr);
  EventRing outer(8), inner(8);
  {
    ScopedRing a(&outer);
    EXPECT_EQ(CurrentRing(), &outer);
    {
      ScopedRing b(&inner);
      EXPECT_EQ(CurrentRing(), &inner);
    }
    EXPECT_EQ(CurrentRing(), &outer);
  }
  EXPECT_EQ(CurrentRing(), nullptr);
}

TEST(ScopedRingTest, EmitEventRoutesToCurrentRing) {
  EmitEvent(EventType::kInstant, 1, 2);  // no ring: must not crash
  EventRing ring(8);
  {
    ScopedRing context(&ring);
    EmitEvent(EventType::kInstant, 1, 2);
  }
  EmitEvent(EventType::kInstant, 1, 3);  // after restore: dropped again
  std::vector<Event> out;
  ring.Drain(&out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].arg, 2u);
}

// A worker that finds every pooled ring busy runs unrecorded; the pool
// counts each such miss so the loss shows in the server's health.
TEST(WorkerRingPoolTest, ExhaustedPoolCountsMisses) {
  EventRing ring(8);
  WorkerRingPool pool;
  pool.Add(&ring);
  EventRing* claimed = pool.TryAcquire();
  EXPECT_EQ(claimed, &ring);
  EXPECT_EQ(pool.TryAcquire(), nullptr);
  EXPECT_EQ(pool.misses(), 1u);
  pool.Release(claimed);
  EXPECT_EQ(pool.TryAcquire(), &ring);
  EXPECT_EQ(pool.misses(), 1u);
}

}  // namespace
}  // namespace xmlac::obs
