// Multi-threaded multi-peer stress suite for the sharded engine lock
// (ISSUE 5): application threads submitting concurrently across peers, the
// lock-free submit ring (including its full-ring fallback), per-peer
// condition-variable waits, lock-free monitoring reads racing the hot path,
// and single-threaded determinism of the ring-enabled submit path.
//
// ISSUE 6 additions: the shard-owning progress threads — post-idle wakeup
// latency (lost-wakeup park regression), waiter self-pump gating, per-shard
// pump exclusivity, work stealing off a wedged owner, ring parity across
// progress_threads, and shutdown under load.
//
// Each channel's receive lock: an arrived message is received while another
// thread holds the peer lock, and 16 channels are received by a blocking
// and a polling thread while progress threads apply arrivals.
//
// All tests here carry the ctest label "concurrency" and are part of the
// TSan matrix: their value is as much what the sanitizer sees as what the
// assertions check.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "core/timer_host.hpp"
#include "core/world.hpp"
#include "drivers/driver.hpp"
#include "drivers/profiles.hpp"
#include "drivers/shm_driver.hpp"
#include "tests/core/engine_test_util.hpp"

namespace mado::core {
namespace {

using testing::pattern;
using testing::recv_bytes;
using testing::send_bytes;

/// Hub topology: engine 0 with one shm rail to each of `npeers` sink
/// engines, progress threads everywhere — the threaded regime the sharded
/// lock targets (same shape as bench_e12).
struct HubWorld {
  std::vector<std::unique_ptr<RealTimerHost>> timers;
  std::unique_ptr<Engine> hub;
  std::vector<std::unique_ptr<Engine>> peers;

  explicit HubWorld(std::size_t npeers, const EngineConfig& cfg) {
    timers.push_back(std::make_unique<RealTimerHost>());
    hub = std::make_unique<Engine>(0, cfg, *timers.back());
    for (std::size_t m = 0; m < npeers; ++m) {
      timers.push_back(std::make_unique<RealTimerHost>());
      auto peer = std::make_unique<Engine>(static_cast<NodeId>(m + 1), cfg,
                                           *timers.back());
      auto pair = drv::ShmEndpoint::make_pair();
      hub->add_rail(static_cast<NodeId>(m + 1), std::move(pair.a));
      peer->add_rail(0, std::move(pair.b));
      peers.push_back(std::move(peer));
    }
    hub->start_progress_thread();
    for (auto& p : peers) p->start_progress_thread();
  }

  ~HubWorld() {
    hub->stop_progress_thread();
    for (auto& p : peers) p->stop_progress_thread();
  }
};

/// T threads × M peers, every thread posts `per_thread` messages
/// round-robin across its own per-peer channels with a bounded window of
/// outstanding handles, then drains the window. Returns total completions.
std::uint64_t submit_storm(Engine& hub, std::size_t threads,
                           std::size_t npeers, std::size_t per_thread,
                           std::size_t msg_bytes = 128,
                           std::size_t window = 32) {
  std::vector<std::vector<Channel>> chans(threads);
  for (std::size_t t = 0; t < threads; ++t)
    for (std::size_t m = 0; m < npeers; ++m)
      chans[t].push_back(hub.open_channel(static_cast<NodeId>(m + 1),
                                          static_cast<ChannelId>(t),
                                          TrafficClass::SmallEager));
  std::atomic<std::uint64_t> completed{0};
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      const Bytes data = pattern(msg_bytes, static_cast<std::uint32_t>(t));
      std::deque<SendHandle> inflight;
      for (std::size_t i = 0; i < per_thread; ++i) {
        Message m;
        m.pack(data.data(), data.size(), SendMode::Safe);
        inflight.push_back(chans[t][i % npeers].post(std::move(m)));
        while (inflight.size() >= window) {
          if (hub.wait_send(inflight.front()))
            completed.fetch_add(1, std::memory_order_relaxed);
          inflight.pop_front();
        }
      }
      while (!inflight.empty()) {
        if (hub.wait_send(inflight.front()))
          completed.fetch_add(1, std::memory_order_relaxed);
        inflight.pop_front();
      }
    });
  }
  for (auto& w : workers) w.join();
  return completed.load();
}

// T application threads × M peers hammering the submit path concurrently:
// every message must complete and the hub must be quiescent afterwards.
// (Whether the submit ring actually carries any of them depends on observed
// contention — on a single-core host the threads serialize and uncontended
// posts combine inline, legitimately never touching the ring. The
// deterministic ring-engagement proof is ContendedPostsParkInRing below.)
TEST(ConcurrencyStress, MultiPeerSubmitStorm) {
  constexpr std::size_t kThreads = 4, kPeers = 4, kPerThread = 400;
  HubWorld w(kPeers, EngineConfig{});
  const std::uint64_t done =
      submit_storm(*w.hub, kThreads, kPeers, kPerThread);
  EXPECT_EQ(done, kThreads * kPerThread);
  EXPECT_TRUE(w.hub->flush());
  auto counters = w.hub->counters_snapshot();
  EXPECT_EQ(counters["tx.msgs"], kThreads * kPerThread);
}

/// Endpoint whose send() parks on a flag: a pump that reaches the driver
/// then holds the peer-shard lock for as long as the test wants, making
/// submit-path contention deterministic instead of scheduler-dependent.
class BlockingEndpoint final : public drv::DriverEndpoint {
 public:
  const drv::Capabilities& caps() const override { return caps_; }
  void set_handler(drv::EndpointHandler* h) override { handler_ = h; }
  void send(drv::TrackId track, const GatherList&,
            std::uint64_t token) override {
    {
      std::lock_guard<std::mutex> lk(mu_);
      pending_.emplace_back(track, token);
    }
    in_send_.store(true, std::memory_order_release);
    while (hold_.load(std::memory_order_acquire)) std::this_thread::yield();
  }
  void progress() override {
    std::vector<std::pair<drv::TrackId, std::uint64_t>> done;
    {
      std::lock_guard<std::mutex> lk(mu_);
      done.swap(pending_);
    }
    for (const auto& [track, token] : done)
      handler_->on_send_complete(track, token);
  }

  bool in_send() const { return in_send_.load(std::memory_order_acquire); }
  void release() { hold_.store(false, std::memory_order_release); }

 private:
  drv::Capabilities caps_;
  drv::EndpointHandler* handler_ = nullptr;
  std::mutex mu_;
  std::vector<std::pair<drv::TrackId, std::uint64_t>> pending_;
  std::atomic<bool> in_send_{false};
  std::atomic<bool> hold_{true};
};

// Deterministic ring engagement: a pump thread is parked inside the driver's
// send() — holding the peer-shard lock — while this thread posts. Every one
// of those posts MUST find the lock busy and park in the submit ring; after
// the pump is released they all drain, complete, and are counted by
// submit.ring_ops exactly.
TEST(ConcurrencyStress, ContendedPostsParkInRing) {
  RealTimerHost timer;
  Engine hub(0, EngineConfig{}, timer);
  auto ep = std::make_unique<BlockingEndpoint>();
  BlockingEndpoint* raw = ep.get();
  hub.add_rail(1, std::move(ep));
  Channel ch = hub.open_channel(1, 1);

  std::thread pumper([&] {
    send_bytes(ch, pattern(64));  // uncontended: combines inline
    hub.progress();               // pump reaches send() and parks there
  });
  while (!raw->in_send()) std::this_thread::yield();

  // The shard lock is held inside the pump: these posts cannot take it.
  constexpr std::uint64_t kParked = 8;
  std::vector<SendHandle> handles;
  for (std::uint64_t i = 0; i < kParked; ++i)
    handles.push_back(send_bytes(ch, pattern(64)));

  raw->release();
  pumper.join();
  for (SendHandle& h : handles) EXPECT_TRUE(hub.wait_send(h));
  EXPECT_TRUE(hub.flush());

  auto counters = hub.counters_snapshot();
  EXPECT_EQ(counters["submit.ring_ops"], kParked)
      << "posts against a held shard must ride the ring";
  EXPECT_EQ(counters["tx.msgs"], kParked + 1);
}

// Receiving an arrived message takes only its channel's lock: begin_recv,
// the Express unpack and finish return while another thread holds the
// receiver's peer lock. B's second rail is a BlockingEndpoint; a helper's
// inline post on a channel pinned to it parks in send() with B's peer lock
// for A held. A watchdog frees it once the receive returned, or after
// ~1 s, so a receive that needs the peer lock fails the test instead of
// hanging it.
TEST(ReceiveFastPath, ArrivedMessageIsReceivedWhileThePeerLockIsHeld) {
  RealTimerHost ta, tb;
  Engine a(0, EngineConfig{}, ta), b(1, EngineConfig{}, tb);
  auto pair = drv::ShmEndpoint::make_pair();
  a.add_rail(1, std::move(pair.a));
  b.add_rail(0, std::move(pair.b));
  auto ep = std::make_unique<BlockingEndpoint>();
  BlockingEndpoint* held = ep.get();
  b.add_rail(0, std::move(ep));  // rail 1
  b.set_class_rail(TrafficClass::Bulk, 1);
  Channel tx = a.open_channel(1, 1);
  Channel rx = b.open_channel(0, 1);
  Channel pinned = b.open_channel(0, 2, TrafficClass::Bulk);
  send_bytes(tx, pattern(64, 3));
  for (int i = 0; i < 100000 && b.stats().counter("rx.packets") == 0; ++i) {
    a.progress();
    b.progress();
  }
  ASSERT_EQ(b.stats().counter("rx.packets"), 1u);

  std::thread helper([&] { send_bytes(pinned, pattern(64, 4)); });
  while (!held->in_send()) std::this_thread::yield();
  std::mutex mu;
  std::condition_variable cv;
  bool received = false;
  std::atomic<bool> freed{false};
  std::thread watchdog([&] {
    {
      std::unique_lock lk(mu);
      cv.wait_for(lk, std::chrono::seconds(1), [&] { return received; });
    }
    freed.store(true, std::memory_order_release);
    held->release();
  });
  const auto t0 = std::chrono::steady_clock::now();
  const Bytes got = recv_bytes(rx, 64);
  const bool before_free = !freed.load(std::memory_order_acquire);
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  {
    std::lock_guard lk(mu);
    received = true;
  }
  cv.notify_one();
  watchdog.join();
  helper.join();
  EXPECT_EQ(got, pattern(64, 3));
  EXPECT_TRUE(before_free) << "the receive returned after " << ms
                           << " ms, once the peer lock was free";
  EXPECT_TRUE(b.flush());
}

// Senders and receivers in separate threads over two channels: data
// integrity end to end while the per-peer cv machinery (wait_frag /
// finish_recv) runs concurrently with submits on the same peer shard.
TEST(ConcurrencyStress, SendRecvThreadsDataIntegrity) {
  constexpr int kMsgs = 300;
  ShmWorld world{EngineConfig{}};
  std::vector<std::thread> ts;
  for (ChannelId c = 1; c <= 2; ++c) {
    ts.emplace_back([&world, c] {
      Channel tx = world.node(0).open_channel(1, c);
      for (int i = 0; i < kMsgs; ++i)
        send_bytes(tx, pattern(96, static_cast<std::uint32_t>(c) * 1000u + static_cast<std::uint32_t>(i)));
      world.node(0).flush();
    });
    ts.emplace_back([&world, c] {
      Channel rx = world.node(1).open_channel(0, c);
      for (int i = 0; i < kMsgs; ++i)
        EXPECT_EQ(recv_bytes(rx, 96),
                  pattern(96, static_cast<std::uint32_t>(c) * 1000u + static_cast<std::uint32_t>(i)))
            << "channel " << c << " message " << i;
    });
  }
  for (auto& t : ts) t.join();
}

// Each channel's receive lock under progress threads: 16 channels carry
// 64 B, multi-fragment and rendezvous-sized messages. One thread receives
// half of the channels oldest-first, blocking, with Express and Cheaper
// unpacks; another takes the other half by polling probe() and ready().
// The last channel is opened only once fragments for it have arrived, so a
// progress thread creates its ChannelState while the other channels'
// cached pointers are in use.
TEST(ConcurrencyStress, ChannelReceiveLocksUnderProgressThreads) {
  constexpr ChannelId kChannels = 16, kLate = kChannels - 1;
  constexpr std::uint32_t kRounds = 40, kLateFirst = kRounds / 2;
  // Fragment sizes of message i on channel c: one 64 B fragment, three
  // eager ones, or a header and a rendezvous one (≥ shm's 64 KiB).
  auto shape = [](ChannelId c, std::uint32_t i) -> std::vector<std::size_t> {
    switch ((c + i) % 3) {
      case 0: return {64};
      case 1: return {16, 3000, 64};
      default: return {16, 70000};
    }
  };
  auto bytes = [](ChannelId c, std::uint32_t i, std::size_t f,
                  std::size_t len) {
    return pattern(len, c * 1000u + i * 10u + static_cast<std::uint32_t>(f));
  };
  ShmWorld w{EngineConfig{}};
  Engine& snd = w.node(0);
  Engine& rcv = w.node(1);
  std::vector<Channel> tx;
  for (ChannelId c = 0; c < kChannels; ++c)
    tx.push_back(snd.open_channel(1, c));
  std::vector<Channel> rx;
  for (ChannelId c = 0; c < kLate; ++c) rx.push_back(rcv.open_channel(0, c));

  // Phase A: the first half of the rounds on every channel but the last,
  // then the last channel's first half. Phase B: the rest, once the last
  // channel is open.
  std::uint64_t phase_a_frags = 0;
  for (std::uint32_t i = 0; i < kLateFirst; ++i)
    for (ChannelId c = 0; c < kChannels; ++c)
      phase_a_frags += shape(c, i).size();
  std::atomic<bool> late_open{false};
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  auto post = [&](ChannelId c, std::uint32_t i) {
    Message m;
    const auto sizes = shape(c, i);
    for (std::size_t f = 0; f < sizes.size(); ++f) {
      const Bytes b = bytes(c, i, f, sizes[f]);
      m.pack(b.data(), b.size(), SendMode::Safe);
    }
    return tx[c].post(std::move(m));
  };
  std::thread sender([&] {
    std::vector<SendHandle> handles;
    for (std::uint32_t i = 0; i < kLateFirst; ++i)
      for (ChannelId c = 0; c < kLate; ++c) handles.push_back(post(c, i));
    for (std::uint32_t i = 0; i < kLateFirst; ++i)
      handles.push_back(post(kLate, i));
    while (!late_open.load(std::memory_order_acquire) &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::yield();
    for (std::uint32_t i = kLateFirst; i < kRounds; ++i)
      for (ChannelId c = 0; c < kChannels; ++c) handles.push_back(post(c, i));
    for (SendHandle& h : handles) EXPECT_TRUE(snd.wait_send(h));
  });

  // Blocking receiver: channels 0..7, round by round.
  std::thread blocking([&] {
    for (std::uint32_t i = 0; i < kRounds; ++i)
      for (ChannelId c = 0; c < kChannels / 2; ++c) {
        const auto sizes = shape(c, i);
        std::vector<Bytes> got;
        for (std::size_t len : sizes) got.emplace_back(len);
        IncomingMessage im = rx[c].begin_recv();
        for (std::size_t f = 0; f < sizes.size(); ++f)
          im.unpack(got[f].data(), got[f].size(),
                    f == 0 ? RecvMode::Express : RecvMode::Cheaper);
        im.finish();
        for (std::size_t f = 0; f < sizes.size(); ++f)
          EXPECT_EQ(got[f], bytes(c, i, f, sizes[f]))
              << "channel " << c << " message " << i << " fragment " << f;
      }
  });

  // Polling receiver: channels 8..14, then the late one once its
  // fragments are here. Each channel has at most one open receive.
  struct Open {
    Open(ChannelId id, Channel channel) : c(id), ch(channel) {}
    ChannelId c;
    Channel ch;
    std::uint32_t next = 0;
    std::optional<IncomingMessage> im;
    std::vector<Bytes> got;
  };
  std::thread poller([&] {
    std::vector<Open> chans;
    for (ChannelId c = kChannels / 2; c < kLate; ++c)
      chans.emplace_back(c, rx[c]);
    std::size_t done = 0;
    while (done < kChannels / 2 &&
           std::chrono::steady_clock::now() < deadline) {
      bool moved = false;
      if (!late_open.load(std::memory_order_relaxed) &&
          rcv.stats().counter("rx.frags") >= phase_a_frags) {
        Channel late = rcv.open_channel(0, kLate);
        EXPECT_TRUE(late.probe()) << "the late channel's first message";
        chans.emplace_back(kLate, late);
        late_open.store(true, std::memory_order_release);
      }
      for (Open& o : chans) {
        if (o.next == kRounds) continue;
        const auto sizes = shape(o.c, o.next);
        if (!o.im) {
          if (!o.ch.probe()) continue;
          o.im.emplace(o.ch.begin_recv());
          o.got.clear();
          for (std::size_t len : sizes) o.got.emplace_back(len);
          for (Bytes& g : o.got)
            o.im->unpack(g.data(), g.size(), RecvMode::Cheaper);
          moved = true;
        }
        if (!o.im->ready()) continue;
        o.im->finish();
        for (std::size_t f = 0; f < sizes.size(); ++f)
          EXPECT_EQ(o.got[f], bytes(o.c, o.next, f, sizes[f]))
              << "channel " << o.c << " message " << o.next << " fragment "
              << f;
        o.im.reset();
        if (++o.next == kRounds) ++done;
        moved = true;
      }
      if (!moved) std::this_thread::yield();
    }
    EXPECT_EQ(done, kChannels / 2u) << "polled channels left unfinished";
  });

  sender.join();
  blocking.join();
  poller.join();
  EXPECT_TRUE(late_open.load());
  EXPECT_TRUE(snd.flush());
  EXPECT_TRUE(rcv.flush());
  for (Engine* e : {&snd, &rcv}) {
    const Engine::Snapshot s = e->snapshot();
    EXPECT_TRUE(s.quiescent()) << s.to_string();
    for (const auto& p : s.peers) EXPECT_EQ(p.rx_pending_msgs, 0u);
  }
}

// A monitoring thread hammers counters_snapshot() + snapshot() +
// stats().to_string() while traffic flows: no locks are shared with the hot
// path, reads must stay consistent (counters monotonic) and never crash.
TEST(ConcurrencyStress, SnapshotsRaceTheHotPath) {
  HubWorld w(2, EngineConfig{});
  std::atomic<bool> stop{false};
  std::uint64_t last_tx = 0;
  bool monotonic = true;
  std::thread monitor([&] {
    while (!stop.load(std::memory_order_acquire)) {
      auto counters = w.hub->counters_snapshot();
      const std::uint64_t tx = counters["tx.packets"];
      if (tx < last_tx) monotonic = false;
      last_tx = tx;
      Engine::Snapshot snap = w.hub->snapshot();
      for (const auto& p : snap.peers)
        if (p.rails.empty()) monotonic = false;  // never observed torn
      (void)w.hub->stats().to_string();
    }
  });
  const std::uint64_t done = submit_storm(*w.hub, 2, 2, 300);
  stop.store(true, std::memory_order_release);
  monitor.join();
  EXPECT_EQ(done, 600u);
  EXPECT_TRUE(monotonic) << "aggregated counters went backwards";
  EXPECT_TRUE(w.hub->flush());
}

// A deliberately tiny submit ring (capacity 2) overflows constantly under
// two submitter threads; the locked fallback path must carry the overflow
// without losing or reordering anything within a channel.
TEST(ConcurrencyStress, TinySubmitRingFallsBackWhenFull) {
  EngineConfig cfg;
  cfg.submit_ring = 2;
  HubWorld w(1, cfg);
  const std::uint64_t done = submit_storm(*w.hub, 2, 1, 500);
  EXPECT_EQ(done, 1000u);
  EXPECT_TRUE(w.hub->flush());
  auto counters = w.hub->counters_snapshot();
  // Ring-carried and fallback submits must add up to every message posted.
  EXPECT_EQ(counters["tx.msgs"], 1000u);
}

// With the ring disabled entirely every submit takes the locked path; the
// engine must behave identically from the application's point of view.
TEST(ConcurrencyStress, RingDisabledLockedPathOnly) {
  EngineConfig cfg;
  cfg.submit_ring = 0;
  HubWorld w(1, cfg);
  const std::uint64_t done = submit_storm(*w.hub, 2, 1, 300);
  EXPECT_EQ(done, 600u);
  EXPECT_TRUE(w.hub->flush());
  auto counters = w.hub->counters_snapshot();
  EXPECT_EQ(counters["submit.ring_ops"], 0u);
}

// Many threads blocked in wait_send() on the SAME peer: per-peer cv
// notify-with-token must wake all of them exactly as completions land.
TEST(ConcurrencyStress, WaitSendManyThreadsOnePeer) {
  HubWorld w(1, EngineConfig{});
  constexpr std::size_t kThreads = 8;
  std::vector<Channel> chans;
  for (std::size_t t = 0; t < kThreads; ++t)
    chans.push_back(w.hub->open_channel(1, static_cast<ChannelId>(t)));
  std::atomic<std::uint64_t> ok{0};
  std::vector<std::thread> ts;
  for (std::size_t t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      for (int i = 0; i < 50; ++i) {
        SendHandle h = send_bytes(chans[t], pattern(64));
        if (w.hub->wait_send(h)) ok.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(ok.load(), kThreads * 50);
}

// Concurrent one-sided traffic: rma_put and rma_get threads against the
// same exposed window exercise the receive-side RMA tables (pending_gets /
// rma_acks — now peer-shard state) under contention.
TEST(ConcurrencyStress, RmaPutGetConcurrent) {
  ShmWorld world{EngineConfig{}};
  Bytes window(64 * 1024, Byte{0});
  world.node(1).expose_window(3, window.data(), window.size());
  constexpr int kOps = 100;
  std::atomic<std::uint64_t> ok{0};
  std::thread putter([&] {
    const Bytes data = pattern(1024, 7);
    for (int i = 0; i < kOps; ++i) {
      SendHandle h = world.node(0).rma_put(1, 3, 0, data.data(), data.size());
      if (world.node(0).wait_send(h)) ok.fetch_add(1);
    }
  });
  std::thread getter([&] {
    Bytes out(1024);
    for (int i = 0; i < kOps; ++i) {
      SendHandle h =
          world.node(0).rma_get(1, 3, 32 * 1024, out.data(), out.size());
      if (world.node(0).wait_send(h)) ok.fetch_add(1);
    }
  });
  putter.join();
  getter.join();
  EXPECT_EQ(ok.load(), 2u * kOps);
}

// Single-threaded determinism: with one application thread the flat-combining
// try_lock always succeeds, so the ring-enabled engine bypasses the ring and
// must produce the EXACT same packetization as the ring-disabled one in the
// deterministic simulation world — and must never have touched the ring
// (submit.ring_ops stays 0; the ring only carries under contention).
TEST(ConcurrencyStress, SingleThreadSimDeterminismRingOnVsOff) {
  auto run = [](std::size_t ring) {
    EngineConfig cfg;
    cfg.submit_ring = ring;
    SimWorld world(2, cfg);
    world.connect(0, 1, drv::test_profile());
    Channel tx = world.node(0).open_channel(1, 4);
    Channel rx = world.node(1).open_channel(0, 4);
    for (int i = 0; i < 64; ++i)
      send_bytes(tx, pattern(100, static_cast<std::uint32_t>(i)));
    for (int i = 0; i < 64; ++i)
      EXPECT_EQ(recv_bytes(rx, 100),
                pattern(100, static_cast<std::uint32_t>(i)));
    world.node(0).flush();
    return world.node(0).counters_snapshot();
  };
  auto with_ring = run(256);
  auto no_ring = run(0);
  for (const char* key : {"tx.packets", "tx.msgs", "tx.frags", "tx.bytes"})
    EXPECT_EQ(with_ring[key], no_ring[key])
        << key << " diverged between ring-on and ring-off";
  // Uncontended posts combine inline; the ring is a contention escape
  // hatch, so a single-threaded run never pays its round-trip.
  EXPECT_EQ(with_ring["submit.ring_ops"], 0u);
  EXPECT_EQ(no_ring["submit.ring_ops"], 0u);
}

// ---------------------------------------------------------------------------
// ISSUE 6: shard-owning progress threads.
// ---------------------------------------------------------------------------

// Regression for the lost-wakeup park race: a submit landing in the gap
// between the progress thread's idle check and its cv wait used to sleep out
// the whole park before being noticed. A park with no timer armed has no
// bound at all, so an un-woken one hangs the wait; assert post-idle
// submit-to-complete latency stays far below anything a park would cost.
TEST(ProgressWakeup, PostIdleSubmitLatencyBounded) {
  RealTimerHost hub_timer, peer_timer;
  Engine hub(0, EngineConfig{}, hub_timer);
  Engine peer(1, EngineConfig{}, peer_timer);
  auto pair = drv::ShmEndpoint::make_pair();
  hub.add_rail(1, std::move(pair.a));
  peer.add_rail(0, std::move(pair.b));
  hub.start_progress_thread();
  peer.start_progress_thread();
  Channel ch = hub.open_channel(1, 1);
  for (int i = 0; i < 8; ++i) {
    // Let the hub's progress thread run dry and park.
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    const auto t0 = std::chrono::steady_clock::now();
    SendHandle h = send_bytes(ch, pattern(64));
    ASSERT_TRUE(hub.wait_send(h));
    const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    EXPECT_LT(ms, 100)
        << "post-idle submit slept out the park (lost wakeup), iter " << i;
  }
  hub.stop_progress_thread();
  peer.stop_progress_thread();
}

// Driver contract clause 5 end to end: an arrival must wake the receiver's
// parked progress thread. Nothing else would: the receiver has no timer
// armed, and its waiting application thread naps on its own cv.
TEST(ProgressWakeup, ArrivalWakesParkedReceiver) {
  RealTimerHost hub_timer, peer_timer;
  Engine hub(0, EngineConfig{}, hub_timer);
  Engine peer(1, EngineConfig{}, peer_timer);
  auto pair = drv::ShmEndpoint::make_pair();
  hub.add_rail(1, std::move(pair.a));
  peer.add_rail(0, std::move(pair.b));
  hub.start_progress_thread();
  peer.start_progress_thread();
  Channel tx = hub.open_channel(1, 1);
  Channel rx = peer.open_channel(0, 1);
  for (std::uint32_t i = 0; i < 8; ++i) {
    // Let the receiver's progress thread run dry and park.
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    const auto t0 = std::chrono::steady_clock::now();
    send_bytes(tx, pattern(64, i));
    EXPECT_EQ(recv_bytes(rx, 64), pattern(64, i));
    const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    EXPECT_LT(ms, 100)
        << "the arrival did not wake the parked receiver, iter " << i;
  }
  hub.stop_progress_thread();
  peer.stop_progress_thread();
}

// With every driver ringing and no timer armed, nothing can wake an idle
// engine's progress threads: they park until rung. (The old 100 µs park
// bound woke an idle engine about 6,000 times a second on a 4-vCPU VM.)
TEST(ProgressWakeup, IdleEngineStaysParked) {
  const auto idle_wakeups = [](Engine& a, Engine& b) {
    Channel tx = a.open_channel(1, 1), rx = b.open_channel(0, 1);
    Channel back_tx = b.open_channel(0, 2), back_rx = a.open_channel(1, 2);
    for (std::uint32_t i = 0; i < 16; ++i) {
      send_bytes(tx, pattern(64, i));
      EXPECT_EQ(recv_bytes(rx, 64), pattern(64, i));
      send_bytes(back_tx, pattern(64, i));
      EXPECT_EQ(recv_bytes(back_rx, 64), pattern(64, i));
    }
    EXPECT_TRUE(a.flush());
    EXPECT_TRUE(b.flush());
    // Settle: the last completions and acks land, the threads park.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const std::uint64_t before = a.counters_snapshot()["prog.wakeups"];
    std::this_thread::sleep_for(std::chrono::seconds(1));
    return a.counters_snapshot()["prog.wakeups"] - before;
  };
  {
    ShmWorld w(EngineConfig{});
    EXPECT_EQ(idle_wakeups(w.node(0), w.node(1)), 0u) << "shm";
  }
  {
    UdpWorld w(EngineConfig{});
    EXPECT_EQ(idle_wakeups(w.node(0), w.node(1)), 0u) << "udp";
  }
}

/// Decorator that registers itself as the wrapped endpoint's handler and
/// forwards the four data callbacks by hand, but not on_ready(): the shape
/// of an instrumentation wrapper written before clause 5 existed.
class InterposedEndpoint final : public drv::DriverEndpoint,
                                 private drv::EndpointHandler {
 public:
  explicit InterposedEndpoint(std::unique_ptr<drv::DriverEndpoint> inner)
      : inner_(std::move(inner)) {}
  const drv::Capabilities& caps() const override { return inner_->caps(); }
  void set_handler(drv::EndpointHandler* h) override {
    outer_ = h;
    inner_->set_handler(this);
  }
  void send(drv::TrackId track, const GatherList& gl,
            std::uint64_t token) override {
    inner_->send(track, gl, token);
  }
  void progress() override { inner_->progress(); }
  void close() override { inner_->close(); }

 private:
  void on_send_complete(drv::TrackId track, std::uint64_t token) override {
    outer_->on_send_complete(track, token);
  }
  void on_packet(drv::TrackId track, Bytes payload) override {
    outer_->on_packet(track, std::move(payload));
  }

  std::unique_ptr<drv::DriverEndpoint> inner_;
  drv::EndpointHandler* outer_ = nullptr;
};

// The inner driver rings the decorator; its inherited on_ready() must pass
// the ring on to the engine (drv::ReadyRelay), or the parked receiver never
// sees the arrival.
TEST(ProgressWakeup, DecoratorRelaysRings) {
  RealTimerHost hub_timer, peer_timer;
  Engine hub(0, EngineConfig{}, hub_timer);
  Engine peer(1, EngineConfig{}, peer_timer);
  auto pair = drv::ShmEndpoint::make_pair();
  hub.add_rail(1, std::make_unique<InterposedEndpoint>(std::move(pair.a)));
  peer.add_rail(0, std::make_unique<InterposedEndpoint>(std::move(pair.b)));
  hub.start_progress_thread();
  peer.start_progress_thread();
  Channel tx = hub.open_channel(1, 1);
  Channel rx = peer.open_channel(0, 1);
  for (std::uint32_t i = 0; i < 4; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    SendHandle h = send_bytes(tx, pattern(64, i));
    EXPECT_EQ(recv_bytes(rx, 64), pattern(64, i));
    EXPECT_TRUE(hub.wait_send(h, 5 * kNanosPerSec)) << "iter " << i;
  }
  hub.stop_progress_thread();
  peer.stop_progress_thread();
}

// With a progress thread attached, blocked waiters must park on their cv
// instead of pumping the engine themselves; self-pumping resumes (and is
// counted) only once the threads are stopped.
TEST(ProgressWakeup, WaitersParkWithProgressThreadAttached) {
  HubWorld w(1, EngineConfig{});
  const std::uint64_t before = w.hub->counters_snapshot()["prog.self_pumps"];
  std::atomic<bool> flag{false};
  std::thread setter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    flag.store(true, std::memory_order_release);
  });
  EXPECT_TRUE(
      w.hub->wait_until([&] { return flag.load(std::memory_order_acquire); }));
  setter.join();
  EXPECT_EQ(w.hub->counters_snapshot()["prog.self_pumps"], before)
      << "waiters must not pump while progress threads run";
  w.hub->stop_progress_thread();
  EXPECT_TRUE(w.hub->wait_until([] { return true; }));
  EXPECT_GT(w.hub->counters_snapshot()["prog.self_pumps"], before)
      << "with no progress thread the waiter must pump for itself";
}

// A wake that lands while the waiter is evaluating its predicate (after the
// predicate read the state, before the waiter parks) must not be lost: the
// waiter re-checks its activity epoch under the wait mutex and skips the
// park, so the next predicate call follows at once instead of after the
// waiter's bounded 200 µs nap.
TEST(ProgressWakeup, WakeDuringPredicateIsNotLost) {
  HubWorld w(1, EngineConfig{});
  Channel tx = w.peers[0]->open_channel(0, 3);
  Channel rx = w.hub->open_channel(1, 3);
  using Clock = std::chrono::steady_clock;
  auto best = Clock::duration::max();
  for (std::uint32_t trial = 0; trial < 5; ++trial) {
    int calls = 0;
    Clock::time_point first_done;
    Clock::duration gap{};
    ASSERT_TRUE(w.hub->wait_until([&] {
      if (++calls == 1) {
        const std::uint64_t before = w.hub->stats().counter("rx.packets");
        send_bytes(tx, pattern(64, trial));
        while (w.hub->stats().counter("rx.packets") == before)
          std::this_thread::yield();
        // The hub's progress thread counts the packet under the peer lock
        // and wakes waiters right after releasing it: give the wake time
        // to run before reporting "not yet".
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        first_done = Clock::now();
        return false;
      }
      gap = Clock::now() - first_done;
      return true;
    }));
    best = std::min(best, gap);
    EXPECT_EQ(recv_bytes(rx, 64), pattern(64, trial));
  }
  EXPECT_LT(std::chrono::duration_cast<std::chrono::microseconds>(best)
                .count(),
            100)
      << "a wake during the predicate was lost: the waiter slept its nap";
}

/// Decorator that detects two threads inside the wrapped endpoint's
/// progress() at once. The shard pump claim promises this never happens, no
/// matter how owners, stealers and manual progress() calls interleave.
class ExclusivePumpEndpoint final : public drv::DriverEndpoint {
 public:
  ExclusivePumpEndpoint(std::unique_ptr<drv::DriverEndpoint> inner,
                        std::atomic<std::uint64_t>* violations)
      : inner_(std::move(inner)), violations_(violations) {}
  const drv::Capabilities& caps() const override { return inner_->caps(); }
  void set_handler(drv::EndpointHandler* h) override {
    inner_->set_handler(h);
  }
  void send(drv::TrackId track, const GatherList& gl,
            std::uint64_t token) override {
    inner_->send(track, gl, token);
  }
  void progress() override {
    if (entered_.exchange(true, std::memory_order_acq_rel))
      violations_->fetch_add(1, std::memory_order_relaxed);
    inner_->progress();
    entered_.store(false, std::memory_order_release);
  }
  void close() override { inner_->close(); }
  bool link_up() const override { return inner_->link_up(); }

 private:
  std::unique_ptr<drv::DriverEndpoint> inner_;
  std::atomic<std::uint64_t>* violations_;
  std::atomic<bool> entered_{false};
};

// Shard-ownership determinism: under four progress threads and a full
// submit storm, every peer's endpoints are pumped by exactly one thread at
// a time (the claim holder) — the decorator sees zero concurrent entries.
TEST(ShardOwnership, ExclusivePumpPerShard) {
  EngineConfig cfg;
  cfg.progress_threads = 4;
  std::atomic<std::uint64_t> violations{0};
  std::vector<std::unique_ptr<RealTimerHost>> timers;
  timers.push_back(std::make_unique<RealTimerHost>());
  Engine hub(0, cfg, *timers.back());
  std::vector<std::unique_ptr<Engine>> peers;
  constexpr std::size_t kPeers = 8;
  for (std::size_t m = 0; m < kPeers; ++m) {
    timers.push_back(std::make_unique<RealTimerHost>());
    auto peer = std::make_unique<Engine>(static_cast<NodeId>(m + 1),
                                         EngineConfig{}, *timers.back());
    auto pair = drv::ShmEndpoint::make_pair();
    hub.add_rail(static_cast<NodeId>(m + 1),
                 std::make_unique<ExclusivePumpEndpoint>(std::move(pair.a),
                                                         &violations));
    peer->add_rail(0, std::move(pair.b));
    peer->start_progress_thread();
    peers.push_back(std::move(peer));
  }
  hub.start_progress_thread();
  const std::uint64_t done = submit_storm(hub, 4, kPeers, 200);
  EXPECT_EQ(done, 800u);
  EXPECT_TRUE(hub.flush());
  hub.stop_progress_thread();
  for (auto& p : peers) p->stop_progress_thread();
  EXPECT_EQ(violations.load(), 0u)
      << "a shard's endpoints were pumped by two threads at once";
  auto counters = hub.counters_snapshot();
  EXPECT_GT(counters["prog.shard_laps"], 0u);
}

/// Endpoint whose progress() wedges its pumping thread until released.
/// Sleeps rather than spins: a single-core CI host must keep scheduling the
/// healthy threads while this owner stays stuck.
class StallEndpoint final : public drv::DriverEndpoint {
 public:
  const drv::Capabilities& caps() const override { return caps_; }
  void set_handler(drv::EndpointHandler*) override {}
  void send(drv::TrackId, const GatherList&, std::uint64_t) override {}
  void progress() override {
    if (!stall_.load(std::memory_order_acquire)) return;
    stalled_.store(true, std::memory_order_release);
    while (stall_.load(std::memory_order_acquire))
      std::this_thread::sleep_for(std::chrono::microseconds(100));
  }

  bool stalled() const { return stalled_.load(std::memory_order_acquire); }
  void release() { stall_.store(false, std::memory_order_release); }

 private:
  drv::Capabilities caps_;
  std::atomic<bool> stall_{true};
  std::atomic<bool> stalled_{false};
};

// Work stealing: owners are assigned in peer-insertion order modulo
// progress_threads, so with two threads peers 1 and 3 land on thread 0 and
// peer 2 on thread 1. Peer 1's driver pump wedges whichever thread enters it
// first: its owner, thread 0, or thread 1 when it steals the idle shard
// before thread 0's first lap. Traffic to the wedged thread's live shard
// (peer 3 for thread 0, peer 2 for thread 1) can then only complete if the
// other thread steals that orphaned shard.
TEST(ShardOwnership, StalledOwnerShardIsStolen) {
  EngineConfig cfg;
  cfg.progress_threads = 2;
  RealTimerHost t0, t2, t3;
  Engine hub(0, cfg, t0);
  auto stall = std::make_unique<StallEndpoint>();
  StallEndpoint* wedge = stall.get();
  // A failed ASSERT must not leave the hub's destructor joining a thread
  // that is still wedged.
  struct Unwedge {
    StallEndpoint* ep;
    ~Unwedge() { ep->release(); }
  } unwedge{wedge};
  hub.add_rail(1, std::move(stall));
  Engine peer2(2, EngineConfig{}, t2);
  auto p2 = drv::ShmEndpoint::make_pair();
  hub.add_rail(2, std::move(p2.a));
  peer2.add_rail(0, std::move(p2.b));
  Engine peer3(3, EngineConfig{}, t3);
  auto p3 = drv::ShmEndpoint::make_pair();
  hub.add_rail(3, std::move(p3.a));
  peer3.add_rail(0, std::move(p3.b));
  peer2.start_progress_thread();
  peer3.start_progress_thread();
  hub.start_progress_thread();
  while (!wedge->stalled()) std::this_thread::yield();

  // The wedged thread never finishes its lap, so its lap counter is frozen.
  // An idle healthy one parks until rung, so keep traffic flowing to peer
  // 2: it rings peer 2's owner, or, if that owner is the wedged thread, the
  // healthy one (an owner that is not parked hands its rings to an idle
  // thread). Either way the healthy thread laps.
  Channel probe = hub.open_channel(2, 2);
  std::size_t wedged = 2;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (wedged == 2 && std::chrono::steady_clock::now() < deadline) {
    auto before = hub.counters_snapshot();
    send_bytes(probe, pattern(64));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    auto after = hub.counters_snapshot();
    const bool t0_moved =
        after["prog.t0.shard_laps"] != before["prog.t0.shard_laps"];
    const bool t1_moved =
        after["prog.t1.shard_laps"] != before["prog.t1.shard_laps"];
    if (t0_moved != t1_moved) wedged = t0_moved ? 1 : 0;
  }
  ASSERT_NE(wedged, 2u) << "could not tell which progress thread is wedged";
  const std::size_t healthy = 1 - wedged;

  Channel ch = hub.open_channel(wedged == 0 ? 3 : 2, 1);
  for (int i = 0; i < 50; ++i) {
    SendHandle h = send_bytes(ch, pattern(64));
    ASSERT_TRUE(hub.wait_send(h, 5 * kNanosPerSec))
        << "message " << i << " wedged behind the stalled owner: steal failed";
  }
  auto counters = hub.counters_snapshot();
  EXPECT_GE(counters["prog.steals"], 1u);
  EXPECT_GE(counters["prog.t" + std::to_string(healthy) + ".steals"], 1u)
      << "the healthy thread must be the one stealing";
  wedge->release();
  hub.stop_progress_thread();
  peer2.stop_progress_thread();
  peer3.stop_progress_thread();
}

// Ring-on vs ring-off parity must hold at every progress-thread count: the
// submit ring and the shard pump are independent axes, and neither may lose
// or double-count messages as threads scale.
TEST(ShardOwnership, RingParityAcrossProgressThreads) {
  for (const std::size_t pt : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    auto run = [pt](std::size_t ring) {
      EngineConfig cfg;
      cfg.submit_ring = ring;
      cfg.progress_threads = pt;
      HubWorld w(2, cfg);
      const std::uint64_t done = submit_storm(*w.hub, 2, 2, 200);
      EXPECT_EQ(done, 400u);
      EXPECT_TRUE(w.hub->flush());
      return w.hub->counters_snapshot();
    };
    auto with_ring = run(256);
    auto no_ring = run(0);
    // Wire-level counters (tx.bytes/tx.packets) legitimately vary with
    // real-time coalescing; the message-level accounting may not. Exact
    // packetization parity is SingleThreadSimDeterminismRingOnVsOff's job.
    for (const char* key : {"tx.msgs", "tx.frags_submitted", "tx.msgs_completed"})
      EXPECT_EQ(with_ring[key], no_ring[key])
          << key << " diverged at progress_threads=" << pt;
    EXPECT_EQ(no_ring["submit.ring_ops"], 0u);
  }
}

// Teardown under load: stop_progress_thread() races live posters, yet every
// staged RxEvent and parked submit-ring op must still drain — first by the
// stopping thread's final sweep, then by the waiters' own self-pumping — and
// the engine must restart cleanly afterwards. ASan/TSan runs of this test
// are the real assertion.
TEST(ConcurrencyTeardown, ShutdownUnderLoadDrainsStagedWork) {
  for (int round = 0; round < 3; ++round) {
    HubWorld w(2, EngineConfig{});
    std::vector<Channel> chans;
    chans.push_back(w.hub->open_channel(1, 1));
    chans.push_back(w.hub->open_channel(2, 1));
    std::mutex handles_mu;
    std::vector<SendHandle> handles;
    std::vector<std::thread> posters;
    for (int t = 0; t < 2; ++t) {
      posters.emplace_back([&, t] {
        for (int i = 0; i < 300; ++i) {
          SendHandle h = send_bytes(chans[static_cast<std::size_t>(t)],
                                    pattern(128));
          std::lock_guard<std::mutex> lk(handles_mu);
          handles.push_back(std::move(h));
        }
      });
    }
    // Stop the progress threads mid-burst, racing the posters.
    w.hub->stop_progress_thread();
    for (auto& th : posters) th.join();
    // No progress threads left: the waits below self-pump the drain.
    for (SendHandle& h : handles) EXPECT_TRUE(w.hub->wait_send(h));
    EXPECT_TRUE(w.hub->flush());
    auto counters = w.hub->counters_snapshot();
    EXPECT_EQ(counters["tx.msgs"], 600u) << "round " << round;
    Engine::Snapshot snap = w.hub->snapshot();
    EXPECT_TRUE(snap.quiescent()) << snap.to_string();
    // And the engine must come back up after a stop.
    w.hub->start_progress_thread();
    SendHandle h = send_bytes(chans[0], pattern(128));
    EXPECT_TRUE(w.hub->wait_send(h)) << "restart after stop failed";
  }
}

// The hand-off: while progress threads run, every post parks in the
// submit ring and the shard owner's lap submits it, even from a lone
// application thread on an idle shard. Once the threads stop, posts
// combine inline again and the ring carries nothing.
TEST(ProgressHandoff, PostsRideTheRingWhileThreadsRun) {
  constexpr std::uint32_t kPosts = 64;  // below the default ring's 256
  ShmWorld world{EngineConfig{}};
  Engine& a = world.node(0);
  Channel tx = a.open_channel(1, 1);
  Channel rx = world.node(1).open_channel(0, 1);
  std::vector<SendHandle> handles;
  for (std::uint32_t i = 0; i < kPosts; ++i)
    handles.push_back(send_bytes(tx, pattern(64, i)));
  for (SendHandle& h : handles) EXPECT_TRUE(a.wait_send(h));
  EXPECT_EQ(a.counters_snapshot()["submit.ring_ops"], kPosts)
      << "with progress threads running every post rides the ring";

  a.stop_progress_thread();
  for (std::uint32_t i = kPosts; i < 2 * kPosts; ++i)
    EXPECT_TRUE(a.wait_send(send_bytes(tx, pattern(64, i))));
  EXPECT_EQ(a.counters_snapshot()["submit.ring_ops"], kPosts)
      << "without progress threads an uncontended post combines inline";
  for (std::uint32_t i = 0; i < 2 * kPosts; ++i)
    EXPECT_EQ(recv_bytes(rx, 64), pattern(64, i));
}

// A thread posting while another stops the progress threads. A post that
// saw the threads running may push after their final laps and after
// stop_progress_thread()'s own last pass; its poster then drains it. Every
// handle completes by flush(), and the engine ends quiescent.
TEST(ProgressHandoff, PostsRacingStopAllCompleteByFlush) {
  for (int round = 0; round < 20; ++round) {
    HubWorld w(1, EngineConfig{});
    Channel ch = w.hub->open_channel(1, 1);
    std::vector<SendHandle> handles;
    std::atomic<bool> posting{false};
    std::thread poster([&] {
      for (int i = 0; i < 200; ++i) {
        handles.push_back(send_bytes(ch, pattern(64)));
        posting.store(true, std::memory_order_release);
      }
    });
    while (!posting.load(std::memory_order_acquire))
      std::this_thread::yield();
    w.hub->stop_progress_thread();
    poster.join();
    EXPECT_TRUE(w.hub->flush()) << "round " << round;
    for (const SendHandle& h : handles)
      EXPECT_TRUE(w.hub->send_done(h)) << "round " << round;
    Engine::Snapshot snap = w.hub->snapshot();
    EXPECT_TRUE(snap.quiescent()) << "round " << round << "\n"
                                  << snap.to_string();
  }
}

// ---------------------------------------------------------------------------
// ISSUE 7: timer wheel integration — idle engines hold no timers, and a
// parked owner honors a deadline armed after it went to sleep.
// ---------------------------------------------------------------------------

// Regression for the stale-timer family: superseded nagle/RTO entries used
// to linger in the heap until their deadline passed, so a logically idle
// engine still reported pending timers (and parks woke for nothing). With
// true cancellation the timer host must drain to empty once traffic stops:
// acks cancel RTO timers, an empty backlog cancels the rail's nagle timer.
TEST(TimerIntegration, IdleEngineHasNoPendingTimers) {
  EngineConfig hub_cfg;
  hub_cfg.reliability = true;
  hub_cfg.strategy = "nagle";
  hub_cfg.nagle_delay = 50 * kNanosPerMicro;
  EngineConfig peer_cfg;
  peer_cfg.reliability = true;
  RealTimerHost hub_timer, peer_timer;
  Engine hub(0, hub_cfg, hub_timer);
  Engine peer(1, peer_cfg, peer_timer);
  auto pair = drv::ShmEndpoint::make_pair();
  hub.add_rail(1, std::move(pair.a));
  peer.add_rail(0, std::move(pair.b));
  hub.start_progress_thread();
  peer.start_progress_thread();
  Channel ch = hub.open_channel(1, 1);
  for (int i = 0; i < 32; ++i) {
    SendHandle h = send_bytes(ch, pattern(64, static_cast<std::uint32_t>(i)));
    ASSERT_TRUE(hub.wait_send(h));
  }
  ASSERT_TRUE(hub.flush());
  // Everything is sent and acked; RTO/nagle cancellation races the last ack
  // by at most one progress lap — poll briefly, then the host must be empty.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5);
  while (hub_timer.has_pending() &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_FALSE(hub_timer.has_pending())
      << "idle engine left timers armed (stale nagle/RTO entries)";
  EXPECT_EQ(hub_timer.next_deadline(), TimerHost::kNoDeadline);
  auto counters = hub.counters_snapshot();
  EXPECT_GT(counters["timer.arms"], 0u);
  EXPECT_GT(counters["timer.cancelled"], 0u)
      << "acks/empty-backlog must cancel timers, not abandon them";
  hub.stop_progress_thread();
  peer.stop_progress_thread();
}

// Regression alongside PostIdleSubmitLatencyBounded: a progress thread
// parked with no timer armed (an unbounded park) must re-derive its bound
// when a nagle hold arms a deadline after the park began. If the arm path
// fails to wake a parked thread, the lone fragment is never flushed.
TEST(TimerIntegration, ParkedOwnerHonorsTimerArmedAfterPark) {
  EngineConfig hub_cfg;
  hub_cfg.strategy = "nagle";
  hub_cfg.nagle_delay = 2 * kNanosPerMilli;
  RealTimerHost hub_timer, peer_timer;
  Engine hub(0, hub_cfg, hub_timer);
  Engine peer(1, EngineConfig{}, peer_timer);
  auto pair = drv::ShmEndpoint::make_pair();
  hub.add_rail(1, std::move(pair.a));
  peer.add_rail(0, std::move(pair.b));
  hub.start_progress_thread();
  peer.start_progress_thread();
  Channel ch = hub.open_channel(1, 1);
  for (int i = 0; i < 8; ++i) {
    // Let the hub's progress thread run dry and park.
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    const auto t0 = std::chrono::steady_clock::now();
    // A lone small fragment: the nagle strategy holds it and arms a 2ms
    // timer — the only thing that can flush it on an otherwise idle engine.
    SendHandle h = send_bytes(ch, pattern(16));
    ASSERT_TRUE(hub.wait_send(h));
    const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    EXPECT_LT(ms, 100)
        << "the parked thread missed the nagle deadline, iter " << i;
  }
  hub.stop_progress_thread();
  peer.stop_progress_thread();
}

}  // namespace
}  // namespace mado::core
