#include "util/queues.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace mado {
namespace {

TEST(SpscRing, RejectsNonPowerOfTwo) {
  EXPECT_THROW(SpscRing<int>(3), CheckError);
  EXPECT_THROW(SpscRing<int>(0), CheckError);
  EXPECT_THROW(SpscRing<int>(1), CheckError);
  EXPECT_NO_THROW(SpscRing<int>(2));
}

TEST(SpscRing, FifoOrder) {
  SpscRing<int> q(8);
  for (int i = 0; i < 7; ++i) EXPECT_TRUE(q.try_push(i));
  EXPECT_FALSE(q.try_push(7));  // capacity-1 elements
  for (int i = 0; i < 7; ++i) {
    auto v = q.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(SpscRing, SizeTracksOccupancy) {
  SpscRing<int> q(4);
  EXPECT_TRUE(q.empty());
  q.try_push(1);
  q.try_push(2);
  EXPECT_EQ(q.size(), 2u);
  q.try_pop();
  EXPECT_EQ(q.size(), 1u);
}

// Instrumented element type whose move behaves like an element-wise /
// copy-on-move type (e.g. an inline small-vector or a shared handle): the
// moved-from source still counts as holding its resource until it is
// destroyed or reassigned. `live` counts resource-holding instances.
struct StickyResource {
  static inline int live = 0;
  int value = 0;
  bool active = false;
  StickyResource() = default;
  explicit StickyResource(int v) : value(v), active(true) { ++live; }
  StickyResource(StickyResource&& o) noexcept
      : value(o.value), active(o.active) {
    if (active) ++live;  // source stays active — the sticky part
  }
  StickyResource& operator=(StickyResource&& o) noexcept {
    if (this == &o) return *this;
    if (active) --live;
    value = o.value;
    active = o.active;
    if (active) ++live;
    return *this;
  }
  StickyResource(const StickyResource&) = delete;
  StickyResource& operator=(const StickyResource&) = delete;
  ~StickyResource() {
    if (active) --live;
  }
};

TEST(SpscRing, PopResetsSlotSoNoResourceIsPinned) {
  // Regression: try_pop used to leave the moved-from element in its slot.
  // For element types whose move does not empty the source, a quiet ring
  // then pinned the last popped element's resources until the slot was
  // overwritten a full lap later. try_pop must reset the slot to a
  // default-constructed T.
  StickyResource::live = 0;
  {
    SpscRing<StickyResource> q(8);
    EXPECT_TRUE(q.try_push(StickyResource(7)));
    EXPECT_EQ(StickyResource::live, 1);  // held by the ring slot only
    {
      auto v = q.try_pop();
      ASSERT_TRUE(v.has_value());
      EXPECT_EQ(v->value, 7);
      // Only the popped copy remains live; the ring slot was reset.
      EXPECT_EQ(StickyResource::live, 1);
    }
    EXPECT_EQ(StickyResource::live, 0);  // nothing pinned in the idle ring
  }
  EXPECT_EQ(StickyResource::live, 0);
}

TEST(SpscRing, WrapAround) {
  SpscRing<int> q(4);
  for (int round = 0; round < 100; ++round) {
    EXPECT_TRUE(q.try_push(round));
    auto v = q.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, round);
  }
}

TEST(SpscRing, TwoThreadStress) {
  SpscRing<std::uint64_t> q(1024);
  constexpr std::uint64_t kN = 200000;
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kN;) {
      if (q.try_push(i)) ++i;
    }
  });
  std::uint64_t expect = 0;
  while (expect < kN) {
    if (auto v = q.try_pop()) {
      ASSERT_EQ(*v, expect);
      ++expect;
    }
  }
  producer.join();
  EXPECT_TRUE(q.empty());
}

// push() never fails: past the ring's capacity it spills, and order holds
// across the spill, also for pushes that land while the spill is pending
// and the consumer has begun to drain.
TEST(SpscRing, FifoAcrossSpill) {
  SpscRing<int> q(8);
  int next_in = 0, next_out = 0;
  for (; next_in < 3 * 8; ++next_in) q.push(next_in);  // 7 ring, 17 spill
  EXPECT_EQ(q.size(), 24u);
  EXPECT_FALSE(q.try_push(-1)) << "a ring push may not pass the spill";
  for (int i = 0; i < 10; ++i) {
    auto v = q.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, next_out++);
  }
  // The ring has room again, but the spill is pending: these must queue
  // behind it.
  for (int i = 0; i < 12; ++i) q.push(next_in++);
  while (auto v = q.try_pop()) EXPECT_EQ(*v, next_out++);
  EXPECT_EQ(next_out, next_in);
  EXPECT_TRUE(q.empty());
  // Drained: the ring takes pushes again.
  EXPECT_TRUE(q.try_push(next_in));
  EXPECT_EQ(q.try_pop().value(), next_in);
}

TEST(SpscRing, SpilledPopLeavesNoResourcePinned) {
  StickyResource::live = 0;
  {
    SpscRing<StickyResource> q(2);  // one ring slot: the rest spill
    for (int i = 0; i < 4; ++i) q.push(StickyResource(i));
    EXPECT_EQ(StickyResource::live, 4);
    for (int i = 0; i < 3; ++i) {
      auto v = q.try_pop();
      ASSERT_TRUE(v.has_value());
      EXPECT_EQ(v->value, i);
    }
    EXPECT_EQ(StickyResource::live, 1);  // only the one still queued
    q.try_pop();
    EXPECT_EQ(StickyResource::live, 0);
  }
  EXPECT_EQ(StickyResource::live, 0);
}

// One producer and one consumer thread, with bursts that run past the
// ring's capacity so the spill fills and drains while both sides race:
// every item arrives once, in order. The consumer stalls now and then
// until the producer has spilled, so the spill is certain to be used.
TEST(SpscRing, OneProducerOneConsumerBurstsPastCapacity) {
  constexpr std::size_t kSlots = 16;
  constexpr std::uint64_t kN = 1u << 20;
  SpscRing<std::uint64_t> q(kSlots);
  std::atomic<bool> produced{false};
  std::thread producer([&] {
    std::uint64_t i = 0;
    for (std::uint64_t burst = 1; i < kN; burst = burst % 97 + 1) {
      for (std::uint64_t b = 0; b < burst && i < kN; ++b) q.push(i++);
      if (burst % 5 == 0) std::this_thread::yield();
    }
    produced.store(true, std::memory_order_release);
  });
  std::uint64_t popped = 0, out_of_order = 0, stalls_past_ring = 0;
  while (popped < kN) {
    if ((popped & 0xffff) == 0) {
      while (q.size() < 3 * kSlots &&
             !produced.load(std::memory_order_acquire))
        std::this_thread::yield();
      if (q.size() >= kSlots) ++stalls_past_ring;
    }
    if (auto v = q.try_pop()) {
      if (*v != popped) ++out_of_order;
      ++popped;
    }
  }
  producer.join();
  EXPECT_EQ(out_of_order, 0u);
  EXPECT_GT(stalls_past_ring, 0u) << "the burst never reached the spill";
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(MpscQueue, PushPop) {
  MpscQueue<int> q;
  EXPECT_TRUE(q.empty());
  q.push(1);
  q.push(2);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.try_pop().value(), 1);
  EXPECT_EQ(q.try_pop().value(), 2);
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(MpscQueue, PopWaitTimesOut) {
  MpscQueue<int> q;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(q.pop_wait(std::chrono::milliseconds(20)).has_value());
  EXPECT_GE(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(15));
}

TEST(MpscQueue, PopWaitWakesOnPush) {
  MpscQueue<int> q;
  std::thread t([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    q.push(42);
  });
  auto v = q.pop_wait(std::chrono::seconds(5));
  t.join();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 42);
}

TEST(MpscQueue, DrainTakesEverything) {
  MpscQueue<int> q;
  for (int i = 0; i < 5; ++i) q.push(i);
  std::vector<int> out;
  EXPECT_EQ(q.drain(out), 5u);
  EXPECT_EQ(out.size(), 5u);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.drain(out), 0u);
}

TEST(MpscQueue, MultiProducerCountsMatch) {
  MpscQueue<int> q;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> producers;
  for (int t = 0; t < 4; ++t)
    producers.emplace_back([&q] {
      for (int i = 0; i < kPerThread; ++i) q.push(i);
    });
  for (auto& t : producers) t.join();
  std::vector<int> out;
  q.drain(out);
  EXPECT_EQ(out.size(), 4u * kPerThread);
}

}  // namespace
}  // namespace mado
