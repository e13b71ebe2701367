// Open-addressing hash tables keyed by 64-bit tokens.
//
// The engine's hot per-peer state (inflight packets, rendezvous transfers,
// pending gets, stripe reassembly offsets) was originally std::map: every
// insert is a node allocation, every lookup a pointer chase through a
// red-black tree, and a peer that once held a burst of flows keeps the
// allocator churn forever. At the million-flow scale the per-decision cost
// of those trees dominates the optimizer itself (cf. Ros-Giralt et al. on
// line-rate network analysis structures).
//
// TokenTable is the replacement: linear-probe open addressing over a flat
// slot array, power-of-two capacity, separate one-byte state array (keys
// are arbitrary u64s — sequence numbers start at 0 — so no key value can
// double as the empty sentinel), backward-shift deletion (no tombstones, so
// load never degrades), and automatic shrink when a burst drains (bounded
// per-peer memory is the point; a table that grew to 64k slots for one
// incast must not pin that RAM for the connection's lifetime).
//
// NOT thread-safe; every instance lives under its peer's shard lock.
// Values are MOVED on rehash and backward-shift, so no pointer or reference
// into the table survives a mutating call on the same table. The engine's
// call sites are audited for this (values held across calls are only ever
// used before the next same-table mutation).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>

#include "core/counters.hpp"
#include "util/assert.hpp"

namespace mado::core {

/// Shared sizing/telemetry knobs, wired once per PeerState.
struct TokenTableOpts {
  /// Smallest capacity (power of two) the table keeps when shrinking.
  std::size_t min_capacity = 16;
  /// Shrink the slot array when load falls to <= capacity/8 (down to
  /// min_capacity). Disable for tables that oscillate around a boundary.
  bool shrink = true;
  /// Optional: rehashes are counted as cap.table_growths / _shrinks.
  EngineStats* stats = nullptr;
};

namespace detail {

/// splitmix64 finalizer: tokens are often sequential (packet seq, message
/// ids), and linear probing needs their hashes spread across the table.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace detail

template <typename V>
class TokenTable {
 public:
  TokenTable() = default;
  explicit TokenTable(TokenTableOpts opts) : opts_(opts) {
    if (opts_.min_capacity < 2) opts_.min_capacity = 2;
    // Round min_capacity up to a power of two.
    while ((opts_.min_capacity & (opts_.min_capacity - 1)) != 0)
      ++opts_.min_capacity;
  }
  ~TokenTable() { clear(); }
  TokenTable(const TokenTable&) = delete;
  TokenTable& operator=(const TokenTable&) = delete;
  TokenTable(TokenTable&& o) noexcept
      : opts_(o.opts_),
        slots_(std::move(o.slots_)),
        state_(std::move(o.state_)),
        cap_(o.cap_),
        size_(o.size_) {
    o.cap_ = o.size_ = 0;
  }
  TokenTable& operator=(TokenTable&& o) noexcept {
    if (this != &o) {
      clear();
      opts_ = o.opts_;
      slots_ = std::move(o.slots_);
      state_ = std::move(o.state_);
      cap_ = o.cap_;
      size_ = o.size_;
      o.cap_ = o.size_ = 0;
    }
    return *this;
  }

  /// Late option wiring (PeerState members cannot pass ctor args inline).
  /// Only valid before the first insert.
  void set_opts(TokenTableOpts opts) {
    MADO_ASSERT(cap_ == 0 && size_ == 0);
    opts_ = opts;
    if (opts_.min_capacity < 2) opts_.min_capacity = 2;
    while ((opts_.min_capacity & (opts_.min_capacity - 1)) != 0)
      ++opts_.min_capacity;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return cap_; }

  V* find(std::uint64_t key) {
    if (size_ == 0) return nullptr;
    const std::size_t mask = cap_ - 1;
    for (std::size_t i = detail::mix64(key) & mask;; i = (i + 1) & mask) {
      if (state_[i] == kEmpty) return nullptr;
      if (slots_[i].key == key) return std::addressof(slots_[i].value);
    }
  }
  const V* find(std::uint64_t key) const {
    return const_cast<TokenTable*>(this)->find(key);
  }
  bool contains(std::uint64_t key) const { return find(key) != nullptr; }

  /// Insert {key, value} if absent. Returns {slot value, inserted}; on a
  /// hit the existing value is returned untouched (try_emplace semantics)
  /// and `value`'s pieces are not consumed.
  template <typename... Args>
  std::pair<V*, bool> emplace(std::uint64_t key, Args&&... args) {
    if (cap_ == 0 || (size_ + 1) * 4 > cap_ * 3) grow();
    const std::size_t mask = cap_ - 1;
    std::size_t i = detail::mix64(key) & mask;
    for (; state_[i] != kEmpty; i = (i + 1) & mask) {
      if (slots_[i].key == key) return {std::addressof(slots_[i].value), false};
    }
    ::new (static_cast<void*>(&slots_[i]))
        Slot{key, V(std::forward<Args>(args)...)};
    state_[i] = kFull;
    ++size_;
    return {std::addressof(slots_[i].value), true};
  }

  /// Insert or overwrite (std::map operator[]= equivalent).
  V* insert_or_assign(std::uint64_t key, V&& value) {
    auto [slot, inserted] = emplace(key, std::move(value));
    if (!inserted) *slot = std::move(value);
    return slot;
  }

  bool erase(std::uint64_t key) {
    if (size_ == 0) return false;
    const std::size_t mask = cap_ - 1;
    std::size_t i = detail::mix64(key) & mask;
    for (; state_[i] != kEmpty; i = (i + 1) & mask) {
      if (slots_[i].key == key) break;
    }
    if (state_[i] == kEmpty) return false;
    slots_[i].~Slot();
    state_[i] = kEmpty;
    --size_;
    backshift(i);
    maybe_shrink();
    return true;
  }

  /// Visit every entry as f(key, value&). The table must not be mutated
  /// from inside `f` (backward-shift would skip or repeat entries).
  template <typename F>
  void for_each(F&& f) {
    for (std::size_t i = 0; i < cap_; ++i)
      if (state_[i] == kFull) f(slots_[i].key, slots_[i].value);
  }
  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t i = 0; i < cap_; ++i)
      if (state_[i] == kFull) f(slots_[i].key, slots_[i].value);
  }

  /// Destroy every entry and release the slot arrays (maximal shrink —
  /// a cleared table holds no memory at all).
  void clear() {
    for (std::size_t i = 0; i < cap_ && size_ > 0; ++i) {
      if (state_[i] == kFull) {
        slots_[i].~Slot();
        state_[i] = kEmpty;
        --size_;
      }
    }
    size_ = 0;
    cap_ = 0;
    slots_.reset();
    state_.reset();
  }

 private:
  struct Slot {
    std::uint64_t key;
    V value;
  };
  static constexpr std::uint8_t kEmpty = 0;
  static constexpr std::uint8_t kFull = 1;

  void grow() { rehash(cap_ == 0 ? opts_.min_capacity : cap_ * 2, true); }

  void maybe_shrink() {
    if (!opts_.shrink || cap_ <= opts_.min_capacity) return;
    if (size_ * 8 > cap_) return;
    std::size_t target = cap_;
    while (target > opts_.min_capacity && size_ * 4 <= target) target /= 2;
    if (target != cap_) rehash(target, false);
  }

  void rehash(std::size_t new_cap, bool growing) {
    auto old_slots = std::move(slots_);
    auto old_state = std::move(state_);
    const std::size_t old_cap = cap_;
    slots_.reset(static_cast<Slot*>(
        ::operator new(new_cap * sizeof(Slot), std::align_val_t{alignof(Slot)})));
    state_ = std::make_unique<std::uint8_t[]>(new_cap);
    for (std::size_t i = 0; i < new_cap; ++i) state_[i] = kEmpty;
    cap_ = new_cap;
    const std::size_t mask = new_cap - 1;
    for (std::size_t i = 0; i < old_cap; ++i) {
      if (old_state[i] != kFull) continue;
      std::size_t j = detail::mix64(old_slots[i].key) & mask;
      while (state_[j] != kEmpty) j = (j + 1) & mask;
      ::new (static_cast<void*>(&slots_[j])) Slot{std::move(old_slots[i])};
      state_[j] = kFull;
      old_slots[i].~Slot();
    }
    if (opts_.stats)
      opts_.stats->inc(growing ? Ctr::CapTableGrowths : Ctr::CapTableShrinks);
  }

  /// Backward-shift deletion: walk the probe chain after the freed slot and
  /// move back every entry whose home position does not lie strictly after
  /// the hole (classic Robin-Hood-without-tombstones compaction).
  void backshift(std::size_t hole) {
    const std::size_t mask = cap_ - 1;
    std::size_t j = (hole + 1) & mask;
    while (state_[j] == kFull) {
      const std::size_t home = detail::mix64(slots_[j].key) & mask;
      // Move j back iff the hole lies within [home, j] in probe order.
      if (((j - home) & mask) >= ((j - hole) & mask)) {
        ::new (static_cast<void*>(&slots_[hole])) Slot{std::move(slots_[j])};
        state_[hole] = kFull;
        slots_[j].~Slot();
        state_[j] = kEmpty;
        hole = j;
      }
      j = (j + 1) & mask;
    }
  }

  struct SlotDeleter {
    void operator()(Slot* p) const {
      // Entries are destroyed individually before release.
      ::operator delete(p, std::align_val_t{alignof(Slot)});
    }
  };

  TokenTableOpts opts_{};
  std::unique_ptr<Slot[], SlotDeleter> slots_;
  std::unique_ptr<std::uint8_t[]> state_;
  std::size_t cap_ = 0;
  std::size_t size_ = 0;
};

/// Set of 64-bit tokens (stripe reassembly offsets, rendezvous done-dedup).
class TokenSet {
 public:
  TokenSet() = default;
  explicit TokenSet(TokenTableOpts opts) : t_(opts) {}
  TokenSet(TokenSet&&) noexcept = default;
  TokenSet& operator=(TokenSet&&) noexcept = default;

  void set_opts(TokenTableOpts opts) { t_.set_opts(opts); }

  std::size_t size() const { return t_.size(); }
  bool empty() const { return t_.empty(); }
  std::size_t capacity() const { return t_.capacity(); }
  bool contains(std::uint64_t key) const { return t_.contains(key); }
  /// Returns true if newly inserted.
  bool insert(std::uint64_t key) { return t_.emplace(key).second; }
  bool erase(std::uint64_t key) { return t_.erase(key); }
  void clear() { t_.clear(); }
  template <typename F>
  void for_each(F&& f) const {
    t_.for_each([&f](std::uint64_t k, const Unit&) { f(k); });
  }

 private:
  struct Unit {};
  TokenTable<Unit> t_;
};

}  // namespace mado::core
