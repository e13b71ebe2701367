// Queues used at the driver/engine boundary.
//
// SpscRing<T>:  single-producer single-consumer queue: a lock-free
//               power-of-two ring, plus a locked spill list that takes
//               pushes only while the ring is full or the spill still holds
//               items, so push() never fails and never blocks on the
//               consumer. The shm driver hands frames and completions over
//               through it; a steady-state push or pop takes no lock.
// MpmcRing<T>:  lock-free bounded multi-producer multi-consumer ring
//               (Vyukov's sequence-stamped design); used as the per-peer
//               submit ring so application threads can enqueue messages
//               without ever contending with the progressor's peer lock.
// MpscQueue<T>: mutex-protected multi-producer single-consumer queue with
//               optional blocking pop; used by the socket and UDP drivers,
//               whose IO threads feed one progress loop.
#pragma once

#include <atomic>
#include <condition_variable>
#include <chrono>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace mado {

/// One producer thread and one consumer thread at a time (callers
/// serialize each side; the shm driver relies on driver contract clause 8
/// for that). FIFO holds across the spill: the producer uses the ring only
/// while the spill is empty, so every spilled item is newer than every
/// ring item, and the consumer, once it sees the spill flag, drains the
/// ring again under the spill lock before it takes a spilled item.
///
/// A push publishes with a seq_cst store and a pop looks with a seq_cst
/// load. A producer that pushes and then checks whether the consumer went
/// to sleep (a seq_cst load of the sleeper's flag, as the engine's
/// progress threads arm with a seq_cst store before their last look at
/// their queues) is then seen by that last look, or sees the flag.
template <typename T>
class SpscRing {
 public:
  /// capacity must be a power of two; the ring holds capacity-1 elements.
  explicit SpscRing(std::size_t capacity) : buf_(capacity), mask_(capacity - 1) {
    MADO_CHECK_MSG(capacity >= 2 && (capacity & (capacity - 1)) == 0,
                   "capacity must be a power of two");
  }

  /// Producer side, ring only. Returns false if the ring is full or the
  /// spill holds items (a ring item must not pass them).
  bool try_push(T v) { return ring_push(v); }

  /// Producer side. Never fails: into the ring when it can, else onto the
  /// spill, the one path that locks.
  void push(T v) {
    if (ring_push(v)) return;
    std::lock_guard<std::mutex> lk(spill_mu_);
    spill_.push_back(std::move(v));
    spilled_.store(true, std::memory_order_seq_cst);
  }

  /// Consumer side. Returns nullopt if empty.
  std::optional<T> try_pop() {
    if (auto v = ring_pop()) return v;
    if (!spilled_.load(std::memory_order_seq_cst)) return std::nullopt;
    std::lock_guard<std::mutex> lk(spill_mu_);
    // Items the producer put in the ring before it spilled are older than
    // every spilled item; under the lock its ring writes are visible.
    if (auto v = ring_pop()) return v;
    T v = std::move(spill_[spill_head_]);
    spill_[spill_head_] = T();  // see ring_pop for why moved-from slots reset
    if (++spill_head_ == spill_.size()) {
      spill_.clear();
      spill_head_ = 0;
      spilled_.store(false, std::memory_order_release);
    }
    return v;
  }

  bool empty() const {
    return tail_.load(std::memory_order_acquire) ==
               head_.load(std::memory_order_acquire) &&
           !spilled_.load(std::memory_order_acquire);
  }

  std::size_t size() const {
    const std::size_t h = head_.load(std::memory_order_acquire);
    const std::size_t t = tail_.load(std::memory_order_acquire);
    std::size_t n = (h - t) & mask_;
    if (spilled_.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> lk(spill_mu_);
      n += spill_.size() - spill_head_;
    }
    return n;
  }

 private:
  /// Moves from `v` only on success.
  bool ring_push(T& v) {
    if (spilled_.load(std::memory_order_acquire)) return false;
    const std::size_t head = head_.load(std::memory_order_relaxed);
    const std::size_t next = (head + 1) & mask_;
    if (next == tail_.load(std::memory_order_acquire)) return false;
    buf_[head] = std::move(v);
    head_.store(next, std::memory_order_seq_cst);
    return true;
  }

  std::optional<T> ring_pop() {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail == head_.load(std::memory_order_seq_cst)) return std::nullopt;
    T v = std::move(buf_[tail]);
    // Reset the slot: a moved-from T may still own resources (e.g. a Bytes
    // payload whose buffer the move left behind, or a shared_ptr a given
    // type's move merely copied). Without this, a quiet ring pins the last
    // popped element's resources until the slot is overwritten — a
    // lifetime leak the consumer cannot see.
    buf_[tail] = T();
    tail_.store((tail + 1) & mask_, std::memory_order_release);
    return v;
  }

  std::vector<T> buf_;
  std::size_t mask_;
  alignas(64) std::atomic<std::size_t> head_{0};
  alignas(64) std::atomic<std::size_t> tail_{0};
  /// True while the spill holds items: set by the producer, cleared by the
  /// consumer when it takes the last one, both under spill_mu_.
  alignas(64) std::atomic<bool> spilled_{false};
  mutable std::mutex spill_mu_;
  std::vector<T> spill_;          ///< guarded by spill_mu_
  std::size_t spill_head_ = 0;    ///< consumer's next spill index
};

/// Bounded lock-free MPMC ring after Dmitry Vyukov's design: every slot
/// carries a sequence stamp so producers and consumers claim slots with one
/// CAS on their own cursor and never touch the other side's cacheline on the
/// fast path. try_push fails (rather than blocks) when the ring is full, so
/// callers always have a graceful locked fallback.
///
/// In mado this is the engine's per-peer *submit ring*: any number of
/// application threads push SubmitOps, and whichever thread happens to hold
/// that peer's lock (the progressor, or a submitter flat-combining) drains
/// it. Drain order is the ring order, so per-channel FIFO submit semantics
/// are preserved as long as each channel is used from one thread — the same
/// contract the locked path has.
template <typename T>
class MpmcRing {
 public:
  /// capacity must be a power of two; the ring holds `capacity` elements.
  explicit MpmcRing(std::size_t capacity)
      : slots_(capacity), mask_(capacity - 1) {
    MADO_CHECK_MSG(capacity >= 2 && (capacity & (capacity - 1)) == 0,
                   "capacity must be a power of two");
    for (std::size_t i = 0; i < capacity; ++i)
      slots_[i].seq.store(i, std::memory_order_relaxed);
  }

  /// Any thread. Returns false if the ring is full (caller falls back to the
  /// locked path; never spins). Takes an rvalue and moves from it only on
  /// success, so a failed push leaves the caller's object intact for the
  /// fallback path.
  bool try_push(T&& v) {
    std::size_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      Slot& s = slots_[pos & mask_];
      const std::size_t seq = s.seq.load(std::memory_order_acquire);
      const std::ptrdiff_t dif = static_cast<std::ptrdiff_t>(seq) -
                                 static_cast<std::ptrdiff_t>(pos);
      if (dif == 0) {
        if (head_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed))
          break;
      } else if (dif < 0) {
        return false;  // full
      } else {
        pos = head_.load(std::memory_order_relaxed);
      }
    }
    Slot& s = slots_[pos & mask_];
    s.value = std::move(v);
    s.seq.store(pos + 1, std::memory_order_release);
    return true;
  }

  /// Any thread. Returns nullopt if empty.
  std::optional<T> try_pop() {
    std::size_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      Slot& s = slots_[pos & mask_];
      const std::size_t seq = s.seq.load(std::memory_order_acquire);
      const std::ptrdiff_t dif = static_cast<std::ptrdiff_t>(seq) -
                                 static_cast<std::ptrdiff_t>(pos + 1);
      if (dif == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed))
          break;
      } else if (dif < 0) {
        return std::nullopt;  // empty
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
    Slot& s = slots_[pos & mask_];
    T v = std::move(s.value);
    s.value = T();  // see SpscRing::ring_pop for why moved-from slots reset
    s.seq.store(pos + mask_ + 1, std::memory_order_release);
    return v;
  }

  bool empty() const {
    // Conservative: between the two loads a racing producer may push, but a
    // `true` result is exact at the moment of the tail load, which is all
    // the drain loops need.
    return tail_.load(std::memory_order_acquire) ==
           head_.load(std::memory_order_acquire);
  }

  std::size_t capacity() const { return slots_.size(); }

 private:
  struct Slot {
    std::atomic<std::size_t> seq{0};
    T value{};
  };
  std::vector<Slot> slots_;
  std::size_t mask_;
  alignas(64) std::atomic<std::size_t> head_{0};  // producer cursor
  alignas(64) std::atomic<std::size_t> tail_{0};  // consumer cursor
};

template <typename T>
class MpscQueue {
 public:
  void push(T v) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      q_.push_back(std::move(v));
    }
    cv_.notify_one();
  }

  std::optional<T> try_pop() {
    std::lock_guard<std::mutex> lk(mu_);
    if (q_.empty()) return std::nullopt;
    T v = std::move(q_.front());
    q_.pop_front();
    return v;
  }

  /// Pop, waiting up to `timeout`. Returns nullopt on timeout.
  std::optional<T> pop_wait(std::chrono::nanoseconds timeout) {
    std::unique_lock<std::mutex> lk(mu_);
    if (!cv_.wait_for(lk, timeout, [&] { return !q_.empty(); }))
      return std::nullopt;
    T v = std::move(q_.front());
    q_.pop_front();
    return v;
  }

  /// Pop, sleeping indefinitely until an item arrives. Consumers that use
  /// this MUST have a wake protocol (a sentinel item pushed at shutdown) —
  /// there is no timeout to fall out of. This is what lets an idle IO
  /// thread cost zero wakeups instead of polling a timed wait.
  T pop_blocking() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return !q_.empty(); });
    T v = std::move(q_.front());
    q_.pop_front();
    return v;
  }

  /// Drain everything currently queued into `out`; returns count.
  std::size_t drain(std::vector<T>& out) {
    std::lock_guard<std::mutex> lk(mu_);
    const std::size_t n = q_.size();
    for (auto& v : q_) out.push_back(std::move(v));
    q_.clear();
    return n;
  }

  bool empty() const {
    std::lock_guard<std::mutex> lk(mu_);
    return q_.empty();
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lk(mu_);
    return q_.size();
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<T> q_;
};

}  // namespace mado
