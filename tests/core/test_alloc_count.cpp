// Heap allocations per steady-state message on the shm path. A counting
// global operator new sees every allocation in the process: the
// application thread's post and receive, both engines' progress threads and
// the shm driver. The test pins today's count as a ceiling, so a new
// allocation on the message path fails it, and names what remains.
//
// This binary replaces the global operator new, so it holds no other test.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "core/engine.hpp"
#include "core/timer_host.hpp"
#include "drivers/shm_driver.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (n == 0) n = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(n)
                : std::aligned_alloc(align, (n + align - 1) / align * align);
  if (!p) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) {
  return counted_alloc(n, alignof(std::max_align_t));
}
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_alloc(n, static_cast<std::size_t>(al));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace mado::core {
namespace {

// Allocations per message today: 4.2000-4.2003 in 16 runs (4.2007 at most
// in 10 more beside the rest of the suite). Each message makes
//   2    Message::pack in Safe mode: the fragment's copy and the fragment
//        vector (the application's own message build);
//   1    Engine::new_send_state: make_shared<SendState>;
//   1    ShmEndpoint::send: GatherList::flatten copies the frame;
//   0.2  the rail backlog's std::deque<TxFrag> block, one per 5 pushes;
//   0-0.001 the early copy of a fragment that arrived before its unpack
//        (RxChannel::Slot::early). The post hands the message to the
//        progress threads and the application thread goes on to its
//        receive, so it already waits in the unpack when the fragment
//        lands, unless it is descheduled in between.
// The submit ring and the shm driver's rings hold their items in place,
// and parsing a packet (inline storage), the receive entry (a slot in the
// channel's ring, kept across messages) and the receive waits (template
// predicates) allocate nothing. The ceiling is the largest count at the
// printed precision, rounded up: a new allocation on more than one
// message in a hundred fails it.
constexpr double kCeiling = 4.21;

// A 64 B ping-pong on one ShmEndpoint pair, one progress thread per engine,
// one application thread doing both sides (as bench/ledger's pingpong_shm
// does). The count is taken over kRounds round trips after a warm-up, so
// containers that keep their capacity (driver queues, the progress
// threads' event scratch) have reached it.
TEST(AllocCount, ShmPingPongSteadyState) {
  constexpr int kWarmup = 2000;
  constexpr int kRounds = 10000;
  RealTimerHost ta, tb;
  EngineConfig cfg;
  cfg.progress_threads = 1;
  Engine a(0, cfg, ta);
  Engine b(1, cfg, tb);
  auto pair = drv::ShmEndpoint::make_pair();
  a.add_rail(1, std::move(pair.a));
  b.add_rail(0, std::move(pair.b));
  a.start_progress_thread();
  b.start_progress_thread();
  Channel req_tx = a.open_channel(1, 1), req_rx = b.open_channel(0, 1);
  Channel rep_tx = b.open_channel(0, 2), rep_rx = a.open_channel(1, 2);
  std::array<Byte, 64> out{}, in{};
  std::uint32_t bad = 0;
  auto one = [&](Channel& tx, Channel& rx, Byte tag) {
    out.fill(tag);
    Message m;
    m.pack(out.data(), out.size(), SendMode::Safe);
    tx.post(std::move(m));
    IncomingMessage im = rx.begin_recv();
    im.unpack(in.data(), in.size(), RecvMode::Express);
    im.finish();
    if (in != out) ++bad;
  };
  auto round = [&](int i) {
    one(req_tx, req_rx, static_cast<Byte>(i));
    one(rep_tx, rep_rx, static_cast<Byte>(~i));
  };
  for (int i = 0; i < kWarmup; ++i) round(i);
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < kRounds; ++i) round(i);
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
  a.stop_progress_thread();
  b.stop_progress_thread();
  EXPECT_EQ(bad, 0u) << "messages arrived with the wrong bytes";

  const double per_msg = static_cast<double>(after - before) / (2 * kRounds);
  RecordProperty("allocs_per_msg", std::to_string(per_msg));
  std::printf("heap allocations per message: %.2f\n", per_msg);
  EXPECT_LE(per_msg, kCeiling) << "a new allocation on the shm message path";
}

}  // namespace
}  // namespace mado::core
