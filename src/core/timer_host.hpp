// Timer facility abstraction.
//
// The optimizer needs timers (Nagle-style artificial delays, retransmit
// timeouts, periodic class rebalancing). In simulation, timers are fabric
// events in virtual time; in real (socket) mode they live in a hierarchical
// timing wheel polled from the progress loop. Engine code only sees
// TimerHost.
//
// Two scheduling APIs coexist:
//
//   schedule_at(t, fn)   — fire-and-forget one-shots (rebalance tick, stats
//                          sampler). Cannot be cancelled.
//   arm(handle, t) /     — cancellable, re-armable timers backed by a
//   cancel(handle)         persistent TimerHandle. This is the engine's
//                          per-rail nagle / per-stream RTO protocol: the
//                          callback is installed once, every re-arm is O(1)
//                          and allocation-free on RealTimerHost, and cancel
//                          physically removes the entry (no dead deadlines
//                          lingering in next_deadline(), no stale closures
//                          accumulating until their deadline passes).
//
// Both paths tell the host's deadline listeners when they make the earliest
// deadline earlier, so no caller has to wake a thread parked until the old
// one.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <utility>
#include <vector>

#include "sim/fabric.hpp"
#include "util/assert.hpp"
#include "util/clock.hpp"

namespace mado::core {

class TimerHost;

/// A cancellable, re-armable timer. The owner installs the callback once
/// (set_callback), then arms/cancels through a TimerHost. Arming bumps an
/// internal generation; the callback receives the generation of the arm it
/// belongs to, so a firing that raced a concurrent re-arm or cancel can be
/// detected by the owner (`gen != handle.gen()`) under its own lock — the
/// callback itself runs with NO host or caller locks held.
///
/// Lifetime: the handle's state block is shared_ptr-owned, so a callback in
/// flight (or a superseded simulation-fabric closure) never dangles even if
/// the handle is destroyed. The destructor cancels a still-armed timer; the
/// host passed to arm() must outlive the handle.
///
/// Thread-safety: arm/cancel/fire on the SAME handle must be serialized by
/// the owner (the engine holds the peer lock around them); the accessors
/// are atomic reads and safe from anywhere.
class TimerHandle {
 public:
  /// `gen` is the arm-generation this firing belongs to; compare against
  /// gen() to detect a superseding arm/cancel that raced the firing.
  using Callback = std::function<void(std::uint64_t gen)>;

  TimerHandle() : core_(std::make_shared<Core>()) {}
  ~TimerHandle();
  TimerHandle(const TimerHandle&) = delete;
  TimerHandle& operator=(const TimerHandle&) = delete;

  /// Install the callback. Must not be called while armed.
  void set_callback(Callback fn) { core_->fn = std::move(fn); }
  bool has_callback() const { return static_cast<bool>(core_->fn); }

  bool armed() const {
    return core_->armed.load(std::memory_order_acquire);
  }
  /// Deadline of the current arm (meaningful only while armed()).
  Nanos deadline() const {
    return core_->deadline.load(std::memory_order_acquire);
  }
  /// Current arm generation (bumped by every arm and cancel).
  std::uint64_t gen() const {
    return core_->gen.load(std::memory_order_acquire);
  }

 private:
  friend class TimerHost;
  friend class RealTimerHost;

  /// Shared state block. The wheel links armed Cores intrusively (prev /
  /// next / level / slot, guarded by the wheel mutex); `self` keeps the
  /// block alive while armed or firing so unlink never races destruction.
  struct Core {
    Callback fn;
    std::atomic<std::uint64_t> gen{0};
    std::atomic<bool> armed{false};
    std::atomic<Nanos> deadline{0};
    // Intrusive wheel links (RealTimerHost only; wheel-mutex guarded).
    Core* prev = nullptr;
    Core* next = nullptr;
    std::uint64_t expire_tick = 0;
    std::uint8_t level = 0;
    std::uint8_t slot = 0;
    bool pooled = false;  ///< wheel-owned one-shot (schedule_at path)
    std::shared_ptr<Core> self;  ///< keep-alive while armed (wheel only)
  };

  std::shared_ptr<Core> core_;
  TimerHost* host_ = nullptr;  ///< set by arm(); used by the auto-cancel
};

class TimerHost {
 public:
  virtual ~TimerHost() = default;
  virtual Nanos now() const = 0;
  /// Run `fn` at absolute time `t` (or as soon after as the host pumps).
  /// `fn` is invoked WITHOUT any engine lock held. One-shot, uncancellable.
  virtual void schedule_at(Nanos t, std::function<void()> fn) = 0;

  /// Execute due timers now (no-op for hosts whose timers run elsewhere,
  /// like the simulation fabric). Called from Engine::progress().
  virtual std::size_t run_due() { return 0; }

  /// Sentinel for next_deadline(): no timer is scheduled.
  static constexpr Nanos kNoDeadline = static_cast<Nanos>(-1);

  /// Lower bound on the earliest scheduled deadline, or kNoDeadline.
  /// Parked progress threads bound their sleep by this so a due timer never
  /// waits out a full park interval (RTO deadlines must fire on time even
  /// on an idle engine). May be earlier than the true earliest deadline
  /// (the wheel reports window starts for coarse levels) — never later.
  virtual Nanos next_deadline() const { return kNoDeadline; }

  /// (Re-)arm `h` to fire at absolute time `t`. O(1) and allocation-free on
  /// RealTimerHost once the handle's callback is installed. The default
  /// implementation rides schedule_at: the superseded closure is retired
  /// logically by the generation check (fine in virtual time, where stale
  /// events cost nothing).
  virtual void arm(TimerHandle& h, Nanos t);

  /// Cancel a pending arm. Returns true if the timer was armed (and is now
  /// guaranteed not to fire for that generation); false if it was idle or
  /// its firing already left the host. EITHER WAY the generation is bumped,
  /// so a firing that was already extracted when the cancel landed is
  /// suppressed at the host layer (run_due re-checks the generation before
  /// invoking) — the owner never sees a callback for a cancelled arm.
  /// RealTimerHost additionally physically unlinks the entry, so
  /// has_pending()/next_deadline() forget it immediately.
  virtual bool cancel(TimerHandle& h);

  /// Deadline listeners. `wake` runs, outside the wheel lock, after an
  /// arm() or schedule_at() makes the earliest deadline earlier, so a
  /// thread parked until the previous one (an engine's progress thread)
  /// re-derives its park. Only hosts whose timers run from such threads
  /// (RealTimerHost) call them. Several engines may share one host; each
  /// removes its listener, by `owner`, before it dies.
  void add_deadline_listener(const void* owner, std::function<void()> wake) {
    std::unique_lock<std::shared_mutex> lk(listeners_mu_);
    listeners_.emplace_back(owner, std::move(wake));
  }
  void remove_deadline_listener(const void* owner) {
    std::unique_lock<std::shared_mutex> lk(listeners_mu_);
    std::erase_if(listeners_,
                  [owner](const auto& l) { return l.first == owner; });
  }

 protected:
  /// Runs the listeners under the shared lock, so remove_deadline_listener
  /// returns only once no call into the departing listener is in flight.
  void notify_earlier_deadline() {
    std::shared_lock<std::shared_mutex> lk(listeners_mu_);
    for (const auto& l : listeners_) l.second();
  }

 private:
  std::shared_mutex listeners_mu_;
  std::vector<std::pair<const void*, std::function<void()>>> listeners_;
};

inline void TimerHost::arm(TimerHandle& h, Nanos t) {
  auto core = h.core_;
  h.host_ = this;
  const std::uint64_t gen =
      core->gen.fetch_add(1, std::memory_order_acq_rel) + 1;
  core->deadline.store(t, std::memory_order_release);
  core->armed.store(true, std::memory_order_release);
  schedule_at(t, [core, gen] {
    if (core->gen.load(std::memory_order_acquire) != gen) return;
    core->armed.store(false, std::memory_order_release);
    if (core->fn) core->fn(gen);
  });
}

inline bool TimerHost::cancel(TimerHandle& h) {
  TimerHandle::Core& core = *h.core_;
  // Retire any in-flight closure UNCONDITIONALLY: if the firing already
  // cleared `armed` but has not run its callback yet, only the generation
  // bump stops it. Cancelling an idle handle is harmless (the next arm
  // bumps again).
  core.gen.fetch_add(1, std::memory_order_acq_rel);
  if (!core.armed.load(std::memory_order_acquire)) return false;
  core.armed.store(false, std::memory_order_release);
  return true;
}

inline TimerHandle::~TimerHandle() {
  if (host_ && core_->armed.load(std::memory_order_acquire))
    host_->cancel(*this);
}

/// Virtual-time timers: delegate to the simulation fabric. arm/cancel use
/// the generation-checked default (stale fabric events are free in virtual
/// time and keep the fabric's determinism intact).
class SimTimerHost final : public TimerHost {
 public:
  explicit SimTimerHost(sim::Fabric& fabric) : fabric_(fabric) {}
  Nanos now() const override { return fabric_.now(); }
  void schedule_at(Nanos t, std::function<void()> fn) override {
    fabric_.post_at(t, std::move(fn));
  }

 private:
  sim::Fabric& fabric_;
};

/// Wall-clock timers: a hierarchical timing wheel drained by run_due() from
/// the progress loop.
///
/// Layout: kLevels levels of 64 slots. A tick is 2^kTickShift ns (~1 µs);
/// level k slots span 64^k ticks, so the wheel covers 64^kLevels ticks
/// (~19.5 hours) before the unsorted overflow list takes over. An armed
/// entry lives at the LOWEST level whose 64-slot window around the cursor
/// contains its deadline; when the cursor reaches a coarse slot's window
/// start, its entries cascade down and re-distribute. arm() and cancel()
/// are O(1) list splices plus a bitmap update; run_due() jumps the cursor
/// directly between occupied ticks (per-level occupancy bitmaps), so an
/// idle wheel costs two atomic loads per poll no matter how many timers
/// are parked in it.
///
/// Deadlines are quantized DOWN to the tick, so a timer can fire up to one
/// tick (~1 µs) early — harmless for the engine's timers (nagle holds and
/// RTOs are tens of µs and self-validate under the peer lock), and it keeps
/// the old heap's "schedule inside a callback runs in the same run_due"
/// behavior intact.
class RealTimerHost final : public TimerHost {
 public:
  RealTimerHost() : now_fn_([clock = SteadyClock{}] { return clock.now(); }) {
    init();
  }
  /// Test seam: inject a fake time source (the wheel's cascade logic spans
  /// hours — tests cannot sleep that out on a steady clock).
  explicit RealTimerHost(std::function<Nanos()> now_fn)
      : now_fn_(std::move(now_fn)) {
    init();
  }
  ~RealTimerHost() override {
    // Orphaned armed entries (handles outliving the host are a usage error,
    // but pooled one-shots legitimately remain): break the self keep-alive
    // so their Cores release.
    std::lock_guard<std::mutex> lk(mu_);
    auto release = [](Core* head) {
      for (Core* c = head; c != nullptr;) {
        Core* next = c->next;
        c->armed.store(false, std::memory_order_release);
        c->self.reset();  // may destroy *c — take `next` first
        c = next;
      }
    };
    for (auto& level : slots_)
      for (auto& slot : level) release(slot.head);
    release(overflow_);
  }

  Nanos now() const override { return now_fn_(); }

  void schedule_at(Nanos t, std::function<void()> fn) override {
    // One-shot path: wrap the closure in a pooled Core so the wheel node
    // itself is recycled (the std::function capture may still allocate —
    // persistent-handle arm() is the allocation-free path).
    std::shared_ptr<Core> core;
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (!pool_.empty()) {
        core = std::move(pool_.back());
        pool_.pop_back();
      }
    }
    if (!core) core = std::make_shared<Core>();
    core->pooled = true;
    core->fn = [f = std::move(fn)](std::uint64_t) { f(); };
    bool earlier;
    {
      std::lock_guard<std::mutex> lk(mu_);
      earlier = arm_core_locked(core, t);
    }
    if (earlier) notify_earlier_deadline();
  }

  void arm(TimerHandle& h, Nanos t) override {
    h.host_ = this;
    bool earlier;
    {
      std::lock_guard<std::mutex> lk(mu_);
      earlier = arm_core_locked(h.core_, t);
    }
    if (earlier) notify_earlier_deadline();
  }

  bool cancel(TimerHandle& h) override {
    std::shared_ptr<Core> released;
    {
      std::lock_guard<std::mutex> lk(mu_);
      Core& core = *h.core_;
      // The cancel window: advance_locked may have ALREADY extracted this
      // entry into a caller's `due` batch (armed is false, the callback
      // has not run). Bumping the generation unconditionally is what
      // suppresses that in-flight fire — run_due re-checks the generation
      // under no lock right before invoking. Without this bump a cancel
      // that lost the race returned false and the callback ran anyway,
      // leaving every owner to re-derive staleness semantically.
      core.gen.fetch_add(1, std::memory_order_release);
      if (!core.armed.load(std::memory_order_relaxed)) return false;
      unlink_locked(&core);
      core.armed.store(false, std::memory_order_release);
      armed_count_.fetch_sub(1, std::memory_order_release);
      ++cancelled_;
      released = std::move(core.self);
      refresh_hint_locked();
    }
    // `released` drops outside the lock (it may be the last reference).
    return true;
  }

  /// Execute all timers whose deadline has passed. Returns count run.
  std::size_t run_due() override {
    std::size_t total = 0;
    std::vector<Fired> due;
    for (;;) {
      // Idle fast path: two atomic loads, no lock, regardless of how many
      // timers are parked in the wheel.
      if (armed_count_.load(std::memory_order_acquire) == 0) break;
      const std::uint64_t now_tick = tick_of(now_fn_());
      if (now_tick < next_tick_.load(std::memory_order_acquire)) break;
      due.clear();
      {
        std::lock_guard<std::mutex> lk(mu_);
        advance_locked(now_tick, due);
      }
      if (due.empty()) break;  // the event was a cascade, nothing due yet
      for (Fired& f : due) {
        // Suppress fires whose arm was cancelled (or superseded by a
        // re-arm) after extraction — the generation moved on. Pooled
        // one-shots are uncancellable, so their generation never moves.
        if (f.core->gen.load(std::memory_order_acquire) != f.gen) {
          stale_suppressed_.fetch_add(1, std::memory_order_relaxed);
        } else if (f.core->fn) {
          f.core->fn(f.gen);
        }
        if (f.core->pooled) recycle_pooled(std::move(f.core));
      }
      total += due.size();
      // Callbacks may have armed new, already-due timers: loop re-checks.
    }
    return total;
  }

  bool has_pending() const {
    return armed_count_.load(std::memory_order_acquire) > 0;
  }

  Nanos next_deadline() const override {
    if (armed_count_.load(std::memory_order_acquire) == 0) return kNoDeadline;
    const std::uint64_t t = next_tick_.load(std::memory_order_acquire);
    if (t == kNoTick) return kNoDeadline;
    return t0_ + (t << kTickShift);
  }

  /// Timers physically removed by cancel() before firing (diagnostics).
  std::uint64_t cancelled_count() const {
    std::lock_guard<std::mutex> lk(mu_);
    return cancelled_;
  }

  /// Fires suppressed because cancel() (or a re-arm) bumped the handle's
  /// generation after the entry was extracted for firing but before the
  /// callback ran. This is the cancel window the timer layer now closes
  /// itself; owners no longer need semantic guards against it.
  std::uint64_t stale_suppressed_count() const {
    return stale_suppressed_.load(std::memory_order_relaxed);
  }

 private:
  using Core = TimerHandle::Core;

  static constexpr int kSlotBits = 6;
  static constexpr std::size_t kSlots = 1u << kSlotBits;  // 64
  static constexpr int kLevels = 6;                       // ~19.5 h horizon
  static constexpr int kTickShift = 10;                   // 1024 ns ticks
  static constexpr std::uint64_t kNoTick = ~std::uint64_t{0};
  static constexpr std::uint8_t kOverflowLevel = 0xff;

  struct Slot {
    Core* head = nullptr;
    Core* tail = nullptr;
  };
  struct Fired {
    std::shared_ptr<Core> core;
    std::uint64_t gen = 0;
  };

  void init() {
    t0_ = now_fn_();
    pool_.reserve(64);
  }

  std::uint64_t tick_of(Nanos t) const {
    return t <= t0_ ? 0 : (t - t0_) >> kTickShift;
  }

  /// Lowest level whose window around `cur` contains `expire`: the level-k
  /// placement invariant is "expire and cur share their level-(k+1) digit
  /// prefix", which guarantees every occupied slot sits AHEAD of the
  /// cursor in its window (no wrap ambiguity, exact cascade points).
  static int level_for(std::uint64_t expire, std::uint64_t cur) {
    const std::uint64_t diff = expire ^ cur;
    int k = 0;
    while (k + 1 <= kLevels && (diff >> (kSlotBits * (k + 1))) != 0) ++k;
    return k;  // == kLevels means beyond the horizon (overflow list)
  }

  /// Returns true if the arm moved the next event tick earlier.
  bool arm_core_locked(const std::shared_ptr<Core>& corep, Nanos t) {
    const std::uint64_t before = next_tick_.load(std::memory_order_relaxed);
    Core& core = *corep;
    if (core.armed.load(std::memory_order_relaxed)) {
      unlink_locked(&core);  // re-arm in place: O(1) splice, no alloc
    } else {
      armed_count_.fetch_add(1, std::memory_order_release);
      core.self = corep;
    }
    core.gen.fetch_add(1, std::memory_order_release);
    core.deadline.store(t, std::memory_order_release);
    core.expire_tick = std::max(tick_of(t), cur_tick_);
    core.armed.store(true, std::memory_order_release);
    link_locked(&core);
    refresh_hint_locked();
    return next_tick_.load(std::memory_order_relaxed) < before;
  }

  void link_locked(Core* c) {
    const int lvl = level_for(c->expire_tick, cur_tick_);
    if (lvl >= kLevels) {
      c->level = kOverflowLevel;
      c->prev = nullptr;
      c->next = overflow_;
      if (overflow_) overflow_->prev = c;
      overflow_ = c;
      return;
    }
    const auto slot = static_cast<std::uint8_t>(
        (c->expire_tick >> (kSlotBits * lvl)) & (kSlots - 1));
    c->level = static_cast<std::uint8_t>(lvl);
    c->slot = slot;
    Slot& s = slots_[lvl][slot];
    c->prev = s.tail;
    c->next = nullptr;
    if (s.tail)
      s.tail->next = c;
    else
      s.head = c;
    s.tail = c;
    occ_[lvl] |= std::uint64_t{1} << slot;
  }

  void unlink_locked(Core* c) {
    if (c->level == kOverflowLevel) {
      if (c->prev)
        c->prev->next = c->next;
      else
        overflow_ = c->next;
      if (c->next) c->next->prev = c->prev;
    } else {
      Slot& s = slots_[c->level][c->slot];
      if (c->prev)
        c->prev->next = c->next;
      else
        s.head = c->next;
      if (c->next)
        c->next->prev = c->prev;
      else
        s.tail = c->prev;
      if (s.head == nullptr)
        occ_[c->level] &= ~(std::uint64_t{1} << c->slot);
    }
    c->prev = c->next = nullptr;
  }

  /// Absolute tick of the next event — a level-0 deadline, a coarse-slot
  /// cascade point, or the overflow rescan boundary. kNoTick when empty.
  std::uint64_t next_event_tick_locked() const {
    std::uint64_t best = kNoTick;
    for (int k = 0; k < kLevels; ++k) {
      if (occ_[k] == 0) continue;
      const int shift = kSlotBits * k;
      const auto cslot =
          static_cast<unsigned>((cur_tick_ >> shift) & (kSlots - 1));
      // Placement invariant: occupied slots are at indices >= the cursor's
      // digit at this level, inside the cursor's level-(k+1) window.
      const std::uint64_t ahead =
          occ_[k] & ~((std::uint64_t{1} << cslot) - 1);
      MADO_ASSERT(ahead != 0);
      const auto s = static_cast<unsigned>(std::countr_zero(ahead));
      const std::uint64_t winbase =
          (cur_tick_ >> (shift + kSlotBits)) << (shift + kSlotBits);
      best = std::min(best, winbase + (std::uint64_t{s} << shift));
    }
    if (overflow_ != nullptr) {
      const int top = kSlotBits * kLevels;
      best = std::min(best, ((cur_tick_ >> top) + 1) << top);
    }
    return best;
  }

  void refresh_hint_locked() {
    next_tick_.store(next_event_tick_locked(), std::memory_order_release);
  }

  /// Re-distribute every entry of level `lvl`, slot `slot` relative to the
  /// (just advanced) cursor: entries land at finer levels or, when due this
  /// tick, at level 0 where the caller fires them.
  void cascade_locked(int lvl, unsigned slot) {
    Slot& s = slots_[lvl][slot];
    Core* c = s.head;
    s.head = s.tail = nullptr;
    occ_[lvl] &= ~(std::uint64_t{1} << slot);
    while (c != nullptr) {
      Core* next = c->next;
      c->prev = c->next = nullptr;
      link_locked(c);
      c = next;
    }
  }

  void advance_locked(std::uint64_t now_tick, std::vector<Fired>& due) {
    for (;;) {
      const std::uint64_t e = next_event_tick_locked();
      if (e == kNoTick || e > now_tick) {
        cur_tick_ = std::max(cur_tick_, now_tick);
        break;
      }
      cur_tick_ = std::max(cur_tick_, e);
      // Cascade coarse slots whose window starts exactly here, top-down so
      // a level-k entry can fall through several levels in one step.
      if (overflow_ != nullptr &&
          (e & ((std::uint64_t{1} << (kSlotBits * kLevels)) - 1)) == 0) {
        Core* c = overflow_;
        overflow_ = nullptr;
        while (c != nullptr) {
          Core* next = c->next;
          c->prev = c->next = nullptr;
          link_locked(c);
          c = next;
        }
      }
      for (int k = kLevels - 1; k >= 1; --k) {
        const std::uint64_t span_mask =
            (std::uint64_t{1} << (kSlotBits * k)) - 1;
        if ((e & span_mask) != 0) continue;
        const auto slot =
            static_cast<unsigned>((e >> (kSlotBits * k)) & (kSlots - 1));
        if (occ_[k] & (std::uint64_t{1} << slot)) cascade_locked(k, slot);
      }
      // Fire level 0 at the cursor's slot: all entries there expire now.
      const auto slot0 = static_cast<unsigned>(e & (kSlots - 1));
      if (occ_[0] & (std::uint64_t{1} << slot0)) {
        Slot& s = slots_[0][slot0];
        Core* c = s.head;
        s.head = s.tail = nullptr;
        occ_[0] &= ~(std::uint64_t{1} << slot0);
        std::size_t fired = 0;
        while (c != nullptr) {
          Core* next = c->next;
          c->prev = c->next = nullptr;
          MADO_ASSERT(c->expire_tick == e);
          c->armed.store(false, std::memory_order_release);
          Fired f;
          f.gen = c->gen.load(std::memory_order_relaxed);
          f.core = std::move(c->self);  // transfer keep-alive to the caller
          due.push_back(std::move(f));
          ++fired;
          c = next;
        }
        armed_count_.fetch_sub(fired, std::memory_order_release);
      }
      // Tick `e` is fully processed (cascades relinked strictly-later
      // entries, the level-0 slot fired). Step past it and re-derive.
      if (e >= now_tick) break;
      cur_tick_ = e + 1;
    }
    refresh_hint_locked();
  }

  void recycle_pooled(std::shared_ptr<Core>&& core) {
    core->fn = nullptr;  // release the closure outside the wheel lock
    std::lock_guard<std::mutex> lk(mu_);
    if (pool_.size() < kSlots) pool_.push_back(std::move(core));
  }

  std::function<Nanos()> now_fn_;
  Nanos t0_ = 0;

  mutable std::mutex mu_;
  std::uint64_t cur_tick_ = 0;  ///< all ticks < cur_tick_ are processed
  Slot slots_[kLevels][kSlots];
  std::uint64_t occ_[kLevels] = {};
  Core* overflow_ = nullptr;  ///< beyond-horizon entries, rescanned at top
  std::vector<std::shared_ptr<Core>> pool_;  ///< recycled one-shot nodes
  std::uint64_t cancelled_ = 0;
  std::atomic<std::uint64_t> stale_suppressed_{0};

  /// Lock-free fast-path state: armed entries, and a lower bound on the
  /// next event tick (exact for level-0 deadlines, a window start for
  /// coarse ones — park bounds may wake early, never late).
  std::atomic<std::size_t> armed_count_{0};
  std::atomic<std::uint64_t> next_tick_{kNoTick};
};

}  // namespace mado::core
