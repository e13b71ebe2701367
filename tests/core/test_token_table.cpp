// TokenTable / TokenSet property tests (ISSUE 7): randomized operation
// parity against std::map / std::set, backward-shift deletion correctness
// under heavy collision load, growth/shrink hysteresis with wired counters,
// value lifetime accounting across rehashes, and move semantics.
#include "core/token_table.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace mado::core {
namespace {

TEST(TokenTable, BasicInsertFindErase) {
  TokenTable<int> t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.find(42), nullptr);
  auto [v, inserted] = t.emplace(42, 7);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(*v, 7);
  EXPECT_EQ(t.size(), 1u);
  ASSERT_NE(t.find(42), nullptr);
  EXPECT_EQ(*t.find(42), 7);
  // Duplicate emplace: try_emplace semantics, existing value untouched.
  auto [v2, inserted2] = t.emplace(42, 99);
  EXPECT_FALSE(inserted2);
  EXPECT_EQ(*v2, 7);
  EXPECT_TRUE(t.erase(42));
  EXPECT_FALSE(t.erase(42));
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.find(42), nullptr);
}

TEST(TokenTable, InsertOrAssignOverwrites) {
  TokenTable<std::string> t;
  t.insert_or_assign(5, "one");
  EXPECT_EQ(*t.find(5), "one");
  t.insert_or_assign(5, "two");
  EXPECT_EQ(*t.find(5), "two");
  EXPECT_EQ(t.size(), 1u);
}

TEST(TokenTable, ZeroKeyIsAnOrdinaryKey) {
  // Sequence numbers start at 0, so key 0 must not collide with any "empty"
  // sentinel (the state byte array exists for exactly this).
  TokenTable<int> t;
  EXPECT_TRUE(t.emplace(0, 10).second);
  ASSERT_NE(t.find(0), nullptr);
  EXPECT_EQ(*t.find(0), 10);
  EXPECT_TRUE(t.erase(0));
  EXPECT_EQ(t.find(0), nullptr);
}

TEST(TokenTable, RandomizedParityAgainstStdMap) {
  // Small key universe forces dense collision chains and repeated
  // insert/erase of the same keys — the regime backward-shift deletion has
  // to get right (tombstone-free tables corrupt probe chains when the shift
  // condition is off by one).
  for (int seed = 0; seed < 50; ++seed) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(seed));
    TokenTable<std::uint64_t> t;
    std::map<std::uint64_t, std::uint64_t> ref;
    for (int op = 0; op < 2000; ++op) {
      const std::uint64_t key = rng() % 128;
      switch (rng() % 3) {
        case 0: {
          const std::uint64_t val = rng();
          const bool inserted = t.emplace(key, val).second;
          EXPECT_EQ(inserted, ref.emplace(key, val).second)
              << "seed " << seed << " op " << op;
          break;
        }
        case 1: {
          EXPECT_EQ(t.erase(key), ref.erase(key) != 0)
              << "seed " << seed << " op " << op;
          break;
        }
        case 2: {
          auto it = ref.find(key);
          std::uint64_t* p = t.find(key);
          ASSERT_EQ(p != nullptr, it != ref.end())
              << "seed " << seed << " op " << op;
          if (p) {
            EXPECT_EQ(*p, it->second);
          }
          break;
        }
      }
      ASSERT_EQ(t.size(), ref.size()) << "seed " << seed << " op " << op;
    }
    // Full-content parity via for_each.
    std::map<std::uint64_t, std::uint64_t> dumped;
    t.for_each([&](std::uint64_t k, const std::uint64_t& v) {
      EXPECT_TRUE(dumped.emplace(k, v).second) << "duplicate visit, seed "
                                               << seed;
    });
    EXPECT_EQ(dumped, ref) << "seed " << seed;
  }
}

TEST(TokenTable, SequentialKeysStayFast) {
  // Tokens are often sequential; the mix function must spread them so the
  // table neither clusters nor loses entries at scale.
  TokenTable<std::uint64_t> t;
  constexpr std::uint64_t kN = 100'000;
  for (std::uint64_t k = 0; k < kN; ++k) EXPECT_TRUE(t.emplace(k, k * 3).second);
  EXPECT_EQ(t.size(), kN);
  for (std::uint64_t k = 0; k < kN; ++k) {
    auto* p = t.find(k);
    ASSERT_NE(p, nullptr) << "lost key " << k;
    EXPECT_EQ(*p, k * 3);
  }
  // Load factor stays within the 0.75 growth bound.
  EXPECT_GE(t.capacity() * 3, t.size() * 4);
}

TEST(TokenTable, BurstDrainsBackToMinCapacity) {
  StatsRegistry registry;
  EngineStats stats(registry);
  TokenTableOpts opts;
  opts.min_capacity = 16;
  opts.shrink = true;
  opts.stats = &stats;
  TokenTable<std::uint64_t> t(opts);
  constexpr std::uint64_t kBurst = 10'000;
  for (std::uint64_t k = 0; k < kBurst; ++k) t.emplace(k, k);
  EXPECT_GE(t.capacity(), kBurst);
  EXPECT_GT(registry.counter("cap.table_growths"), 0u);
  const std::size_t peak = t.capacity();
  for (std::uint64_t k = 0; k < kBurst; ++k) EXPECT_TRUE(t.erase(k));
  // The burst drained: the slot array must have shrunk back toward the
  // floor — a peer that once saw an incast must not pin the peak RAM.
  EXPECT_TRUE(t.empty());
  EXPECT_LT(t.capacity(), peak / 8);
  EXPECT_LE(t.capacity(), 16u * 4);  // within hysteresis of the floor
  EXPECT_GT(registry.counter("cap.table_shrinks"), 0u);
  // And the table still works after the round trip.
  EXPECT_TRUE(t.emplace(7, 7).second);
  EXPECT_NE(t.find(7), nullptr);
}

TEST(TokenTable, ShrinkDisabledKeepsCapacity) {
  TokenTableOpts opts;
  opts.min_capacity = 16;
  opts.shrink = false;
  TokenTable<std::uint64_t> t(opts);
  for (std::uint64_t k = 0; k < 1000; ++k) t.emplace(k, k);
  const std::size_t peak = t.capacity();
  for (std::uint64_t k = 0; k < 1000; ++k) t.erase(k);
  EXPECT_EQ(t.capacity(), peak);
}

TEST(TokenTable, ClearReleasesAllMemory) {
  TokenTable<std::uint64_t> t;
  for (std::uint64_t k = 0; k < 1000; ++k) t.emplace(k, k);
  t.clear();
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.capacity(), 0u);  // a cleared table holds no slot array
  EXPECT_EQ(t.find(3), nullptr);
  EXPECT_TRUE(t.emplace(3, 9).second);  // and re-grows on demand
  EXPECT_EQ(*t.find(3), 9u);
}

/// Value type that counts live instances: catches double-destroy /
/// leaked-slot bugs across rehash, backshift, clear and table destruction.
struct Counted {
  static std::atomic<int> live;
  int v;
  explicit Counted(int x) : v(x) { live.fetch_add(1); }
  Counted(Counted&& o) noexcept : v(o.v) { live.fetch_add(1); }
  Counted& operator=(Counted&& o) noexcept {
    v = o.v;
    return *this;
  }
  Counted(const Counted&) = delete;
  Counted& operator=(const Counted&) = delete;
  ~Counted() { live.fetch_sub(1); }
};
std::atomic<int> Counted::live{0};

TEST(TokenTable, ValueLifetimesBalanceAcrossRehashes) {
  Counted::live.store(0);
  {
    TokenTable<Counted> t;
    std::mt19937_64 rng(1234);
    std::set<std::uint64_t> present;
    for (int op = 0; op < 20'000; ++op) {
      const std::uint64_t key = rng() % 512;
      if (rng() % 2 == 0) {
        if (t.emplace(key, static_cast<int>(key)).second)
          present.insert(key);
      } else {
        EXPECT_EQ(t.erase(key), present.erase(key) != 0);
      }
      ASSERT_EQ(Counted::live.load(), static_cast<int>(present.size()))
          << "op " << op;
    }
    t.clear();
    EXPECT_EQ(Counted::live.load(), 0);
    for (std::uint64_t k = 0; k < 100; ++k) t.emplace(k, 1);
    EXPECT_EQ(Counted::live.load(), 100);
  }  // destructor path
  EXPECT_EQ(Counted::live.load(), 0);
}

TEST(TokenTable, MoveTransfersContents) {
  TokenTable<std::uint64_t> a;
  for (std::uint64_t k = 0; k < 100; ++k) a.emplace(k, k + 1);
  TokenTable<std::uint64_t> b(std::move(a));
  EXPECT_EQ(a.size(), 0u);
  EXPECT_EQ(a.capacity(), 0u);
  EXPECT_EQ(b.size(), 100u);
  for (std::uint64_t k = 0; k < 100; ++k) {
    ASSERT_NE(b.find(k), nullptr);
    EXPECT_EQ(*b.find(k), k + 1);
  }
  TokenTable<std::uint64_t> c;
  c.emplace(999, 0);
  c = std::move(b);
  EXPECT_EQ(c.size(), 100u);
  EXPECT_EQ(c.find(999), nullptr);
  EXPECT_NE(c.find(50), nullptr);
}

TEST(TokenSet, RandomizedParityAgainstStdSet) {
  for (int seed = 0; seed < 20; ++seed) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(seed + 7000));
    TokenSet s;
    std::set<std::uint64_t> ref;
    for (int op = 0; op < 2000; ++op) {
      const std::uint64_t key = rng() % 96;
      switch (rng() % 3) {
        case 0:
          EXPECT_EQ(s.insert(key), ref.insert(key).second)
              << "seed " << seed << " op " << op;
          break;
        case 1:
          EXPECT_EQ(s.erase(key), ref.erase(key) != 0)
              << "seed " << seed << " op " << op;
          break;
        case 2:
          EXPECT_EQ(s.contains(key), ref.count(key) != 0)
              << "seed " << seed << " op " << op;
          break;
      }
      ASSERT_EQ(s.size(), ref.size());
    }
    std::set<std::uint64_t> dumped;
    s.for_each([&](std::uint64_t k) { dumped.insert(k); });
    EXPECT_EQ(dumped, ref) << "seed " << seed;
    s.clear();
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.capacity(), 0u);
  }
}

TEST(TokenSet, StripeReassemblyShape) {
  // The engine's seen_offsets usage: chunk offsets inserted once, duplicates
  // reported via the insert() bool, table dropped wholesale at completion.
  TokenSet s;
  for (std::uint64_t off = 0; off < 1 << 20; off += 64 * 1024)
    EXPECT_TRUE(s.insert(off));
  for (std::uint64_t off = 0; off < 1 << 20; off += 64 * 1024)
    EXPECT_FALSE(s.insert(off));  // replayed chunk
  EXPECT_EQ(s.size(), 16u);
  s.clear();
  EXPECT_EQ(s.capacity(), 0u);
}

}  // namespace
}  // namespace mado::core
