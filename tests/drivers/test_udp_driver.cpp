// UDP driver unit tests: real datagrams over 127.0.0.1 inside one process.
// Covers what the conformance kit cannot: one datagram per frame up to
// max_frame, flow-control under bulk pressure, injected receive-side loss
// (the driver must keep flowing and report honest counters — recovery is
// the engine reliability layer's job, exercised in test_engine_udp.cpp),
// the failure paths (inject_failure, peer close) and forged datagrams.
#include "drivers/udp_driver.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <thread>
#include <vector>

#include "drivers/profiles.hpp"
#include "tests/drivers/test_helpers.hpp"
#include "util/rng.hpp"
#include "util/wire.hpp"

namespace mado::drv {
namespace {

using testing::RecordingHandler;
using testing::make_payload;
using namespace std::chrono_literals;

class UdpDriverTest : public ::testing::Test {
 protected:
  void build() {
    auto pair = UdpEndpoint::make_pair(test_profile());
    a_ = std::move(pair.a);
    b_ = std::move(pair.b);
    a_->set_handler(&ha_);
    b_->set_handler(&hb_);
  }

  void TearDown() override {
    if (a_) a_->close();
    if (b_) b_->close();
  }

  void send(UdpEndpoint& ep, TrackId track, const Bytes& payload,
            std::uint64_t token) {
    GatherList gl;
    gl.add(payload.data(), payload.size());
    ep.send(track, gl, token);
  }

  bool pump_until(const std::function<bool()>& pred,
                  std::chrono::milliseconds timeout = 10000ms) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (!pred()) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      a_->progress();
      b_->progress();
      std::this_thread::sleep_for(100us);
    }
    return true;
  }

  std::unique_ptr<UdpEndpoint> a_, b_;
  RecordingHandler ha_, hb_;
};

TEST_F(UdpDriverTest, RoundTripSingleDatagram) {
  build();
  const Bytes p = make_payload(512);
  send(*a_, kTrackEager, p, 7);
  ASSERT_TRUE(pump_until([&] {
    return ha_.completions.size() == 1 && hb_.packets.size() == 1;
  }));
  EXPECT_EQ(ha_.completions[0].token, 7u);
  EXPECT_EQ(hb_.packets[0].payload, p);
  EXPECT_GE(a_->counters().datagrams_tx.load(), 1u);
  EXPECT_GE(b_->counters().datagrams_rx.load(), 1u);
}

TEST_F(UdpDriverTest, MaxFrameArrivesAsOneDatagramAndOneByteMoreIsRefused) {
  build();
  const std::size_t max_frame = a_->caps().max_frame;
  const Bytes p = make_payload(max_frame, 5);
  send(*a_, kTrackBulk, p, 1);
  ASSERT_TRUE(pump_until([&] { return hb_.packets.size() == 1; }));
  EXPECT_EQ(hb_.packets[0].payload, p);
  EXPECT_EQ(a_->counters().frames_tx.load(), 1u);
  EXPECT_EQ(b_->counters().frames_rx.load(), 1u);
  const Bytes over = make_payload(max_frame + 1, 6);
  EXPECT_THROW(send(*a_, kTrackBulk, over, 2), CheckError);
}

TEST_F(UdpDriverTest, BulkStreamEngagesFlowControlWithoutLoss) {
  // Far more data than the loopback receive buffer: without the ack-driven
  // window this drops silently at the kernel and the test times out.
  build();
  const std::size_t kSize = a_->caps().max_frame;
  const std::uint64_t kN = ((16u << 20) + kSize - 1) / kSize;  // 16 MiB
  // Built first, so the sends queue frames faster than the loop drains
  // them even in a slow (sanitizer) build: the window must fill.
  std::vector<Bytes> frames;
  for (std::uint64_t i = 0; i < kN; ++i)
    frames.push_back(make_payload(kSize, static_cast<std::uint8_t>(i)));
  for (std::uint64_t i = 0; i < kN; ++i) send(*a_, kTrackBulk, frames[i], i);
  ASSERT_TRUE(pump_until([&] {
    return hb_.packets.size() == kN && ha_.completions.size() == kN;
  }, 30000ms));
  for (std::uint64_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hb_.packets[i].payload, frames[i]) << i;
    EXPECT_EQ(ha_.completions[i].token, i);
  }
  // 16 MiB against a ≤1 MiB window must have stalled the sender at least
  // once — proof the window was actually exercised, not bypassed.
  EXPECT_GT(a_->counters().window_stalls.load(), 0u);
  EXPECT_GT(b_->counters().acks_tx.load(), 0u);
}

TEST_F(UdpDriverTest, InjectedRxLossDoesNotStallDelivery) {
  // 5% of DATA datagrams vanish after flow-control accounting. The driver
  // must (a) keep delivering the frames that do arrive, in send order on
  // this FIFO wire, (b) never wait on a lost frame, and (c) count what it
  // dropped. No retransmission here — that layer sits above the driver.
  build();
  b_->set_rx_loss(0.05, 42);
  constexpr std::uint64_t kN = 400;
  for (std::uint64_t i = 0; i < kN; ++i)
    send(*a_, kTrackEager, make_payload(64, static_cast<std::uint8_t>(i)), i);
  // All sends complete (completion = handed to the wire, not delivery).
  ASSERT_TRUE(pump_until([&] { return ha_.completions.size() == kN; }));
  // Wait for the receive side to settle: everything not lost gets through.
  ASSERT_TRUE(pump_until([&] {
    return hb_.packets.size() + b_->counters().rx_loss_injected.load() >= kN;
  }));
  EXPECT_GT(b_->counters().rx_loss_injected.load(), 0u);
  EXPECT_LT(hb_.packets.size(), kN);
  // Delivered subsequence preserves submission order (payload seeds ascend).
  std::uint8_t last = 0;
  bool first = true;
  for (const auto& pkt : hb_.packets) {
    ASSERT_FALSE(pkt.payload.empty());
    const std::uint8_t seed = static_cast<std::uint8_t>(pkt.payload[0]);
    if (!first) {
      EXPECT_NE(seed, last) << "duplicate delivery";
    }
    first = false;
    last = seed;
  }
}

TEST_F(UdpDriverTest, FrameBehindLostFrameIsNotHeld) {
  // A lost frame leaves a gap the driver does not wait on: the next frame
  // goes to the handler as soon as its datagram lands. Ordering and
  // recovery belong to the engine's reliability layer.
  build();
  send(*a_, kTrackEager, make_payload(64, 0), 0);
  ASSERT_TRUE(pump_until([&] { return hb_.packets.size() == 1; }));
  b_->set_rx_loss(1.0, 1);
  send(*a_, kTrackEager, make_payload(64, 1), 1);
  ASSERT_TRUE(pump_until(
      [&] { return b_->counters().rx_loss_injected.load() == 1; }));
  b_->set_rx_loss(0.0, 1);
  const std::uint64_t before = b_->counters().datagrams_rx.load();
  send(*a_, kTrackEager, make_payload(64, 2), 2);
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (b_->counters().datagrams_rx.load() == before)
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
  const auto landed = std::chrono::steady_clock::now();
  while (hb_.packets.size() < 2) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    b_->progress();
  }
  const auto held = std::chrono::steady_clock::now() - landed;
  EXPECT_LT(held, 1ms) << "frame 2 was held "
                       << std::chrono::duration_cast<std::chrono::microseconds>(
                              held)
                              .count()
                       << " us behind the lost frame 1";
  EXPECT_EQ(hb_.packets[1].payload, make_payload(64, 2));
  EXPECT_EQ(b_->counters().frames_rx.load(), 2u);
}

TEST_F(UdpDriverTest, InjectFailureFailsQueuedAndFutureSendsThenLinkDown) {
  build();
  a_->inject_failure();
  constexpr std::uint64_t kN = 8;
  for (std::uint64_t i = 0; i < kN; ++i)
    send(*a_, kTrackEager, make_payload(64), i);
  ASSERT_TRUE(pump_until([&] {
    return ha_.failures.size() == kN && ha_.link_downs == 1;
  }));
  EXPECT_TRUE(ha_.completions.empty());
  // Contract: every doomed token failed BEFORE on_link_down, exactly once.
  EXPECT_EQ(ha_.failures_at_link_down, kN);
  EXPECT_TRUE(a_->broken());
  EXPECT_FALSE(a_->link_up());
}

TEST_F(UdpDriverTest, PeerCloseSurfacesAsConnRefused) {
  // Closing b_'s socket makes the kernel answer a_'s datagrams with ICMP
  // port-unreachable → ECONNREFUSED on the connected socket. This is the
  // same fast-path that detects a SIGKILLed peer process.
  build();
  b_->close();
  send(*a_, kTrackEager, make_payload(64), 1);
  ASSERT_TRUE(pump_until(
      [&] {
        // Keep nudging the wire: the refusal arrives on a subsequent
        // send/recv, and a keepalive ping also picks it up.
        return a_->broken();
      },
      5000ms));
  ASSERT_TRUE(pump_until([&] { return ha_.link_downs == 1; }));
  EXPECT_EQ(ha_.completions.size() + ha_.failures.size(), 1u);
}

TEST_F(UdpDriverTest, CloseIsIdempotentAndSendAfterCloseThrows) {
  build();
  a_->close();
  EXPECT_NO_THROW(a_->close());
  GatherList gl;
  const Bytes p = make_payload(4);
  gl.add(p.data(), p.size());
  EXPECT_THROW(a_->send(kTrackEager, gl, 1), CheckError);
}

TEST_F(UdpDriverTest, ManyEndpointsShareOneLoop) {
  // Four pairs multiplexed on one epoll loop each carry traffic without
  // cross-talk — the "N peers, one event loop" scaling claim in miniature.
  constexpr std::size_t kPairs = 4;
  std::vector<std::unique_ptr<UdpEndpoint>> eps;
  std::vector<RecordingHandler> handlers(2 * kPairs);
  for (std::size_t i = 0; i < kPairs; ++i) {
    auto pair = UdpEndpoint::make_pair(test_profile());
    pair.a->set_handler(&handlers[2 * i]);
    pair.b->set_handler(&handlers[2 * i + 1]);
    eps.push_back(std::move(pair.a));
    eps.push_back(std::move(pair.b));
  }
  for (std::size_t i = 0; i < kPairs; ++i) {
    GatherList gl;
    const Bytes p = make_payload(1024, static_cast<std::uint8_t>(i));
    gl.add(p.data(), p.size());
    eps[2 * i]->send(kTrackEager, gl, i);
  }
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  auto all_done = [&] {
    for (std::size_t i = 0; i < kPairs; ++i)
      if (handlers[2 * i + 1].packets.empty()) return false;
    return true;
  };
  while (!all_done() && std::chrono::steady_clock::now() < deadline) {
    for (auto& ep : eps) ep->progress();
    std::this_thread::sleep_for(100us);
  }
  ASSERT_TRUE(all_done());
  for (std::size_t i = 0; i < kPairs; ++i) {
    EXPECT_EQ(handlers[2 * i + 1].packets[0].payload,
              make_payload(1024, static_cast<std::uint8_t>(i)))
        << i;
    EXPECT_TRUE(handlers[2 * i].packets.empty()) << i;  // no cross-talk
  }
  for (auto& ep : eps) ep->close();
}

// Seeded fuzz of the 2-byte datagram header: any local process can send
// datagrams to the port, so no mutation may crash the receiver or grow its
// state, and a valid frame sent afterwards must still round-trip
// byte-exact. Each Data datagram is at most one frame, judged by the
// engine's decoder (test_packet_fuzz.cpp), so the driver has only its
// header to get wrong.
class UdpFuzzTest : public ::testing::Test {
 protected:
  static constexpr std::uint8_t kData = 1, kAck = 2;

  void SetUp() override {
    loop_ = UdpLoop::create();
    ep_ = UdpEndpoint::bind(loop_, test_profile());
    ep_->set_handler(&h_);
    connect_raw(*ep_, fd_);
  }

  /// Bind a plain UDP socket on loopback and connect it and `ep` to each
  /// other: the test speaks for `ep`'s peer through `fd`.
  static void connect_raw(UdpEndpoint& ep, int& fd) {
    fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof addr), 0);
    socklen_t alen = sizeof addr;
    ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &alen),
              0);
    const timeval wait{10, 0};  // bounds the recv() at the end of a test
    ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &wait, sizeof wait),
              0);
    ep.connect("127.0.0.1", ntohs(addr.sin_port));
    addr.sin_port = htons(ep.local_port());
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof addr), 0);
  }

  void TearDown() override {
    if (ep_) ep_->close();
    if (fd_ >= 0) ::close(fd_);
  }

  static Bytes datagram(std::uint8_t type, std::uint8_t track,
                        const Bytes& body = {}) {
    Bytes d(2 + body.size());
    d[0] = type;
    d[1] = track;
    std::copy(body.begin(), body.end(), d.begin() + 2);
    return d;
  }

  /// Send one datagram and wait until the endpoint has started on it.
  void inject(const Bytes& d) {
    if (HasFatalFailure()) return;  // fail fast, not one timeout per datagram
    const std::uint64_t before = ep_->counters().datagrams_rx.load();
    ASSERT_EQ(::send(fd_, d.data(), d.size(), 0),
              static_cast<ssize_t>(d.size()));
    if (d.size() < 2) return;  // runts are not counted
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (ep_->counters().datagrams_rx.load() == before) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline);
      ep_->progress();
      std::this_thread::sleep_for(20us);
    }
  }

  /// Wait until the endpoint has handed up `frame`, sent on the bulk track,
  /// as one packet of its own. A datagram injected before it may be handed
  /// up first: the loop counts a datagram before it queues the packet.
  void expect_frame_arrives(const Bytes& frame) {
    const std::size_t got = h_.packets.size();
    inject(datagram(kData, 1, frame));
    const auto arrived = [&] {
      for (std::size_t i = got; i < h_.packets.size(); ++i)
        if (h_.packets[i].track == 1 && h_.packets[i].payload == frame)
          return true;
      return false;
    };
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (!arrived()) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "frame of " << frame.size() << " B never arrived on track 1";
      ep_->progress();
      std::this_thread::sleep_for(20us);
    }
  }

  std::shared_ptr<UdpLoop> loop_;
  std::unique_ptr<UdpEndpoint> ep_;
  RecordingHandler h_;
  int fd_ = -1;
};

TEST_F(UdpFuzzTest, MutatedDatagramsAreContained) {
  Rng rng(20261017);
  const Bytes frame = make_payload(3000, 9);
  const Bytes valid = datagram(kData, 0, frame);
  for (int round = 0; round < 400; ++round) {
    Bytes d;
    switch (round % 5) {
      case 0:  // bit flips in a valid datagram
        d = valid;
        for (std::uint64_t n = rng.range(1, 8); n > 0; --n)
          d[rng.below(d.size())] ^= static_cast<Byte>(1u << rng.below(8));
        break;
      case 1:  // truncation around the header and an ack's body
        d = Bytes(valid.begin(),
                  valid.begin() + static_cast<std::ptrdiff_t>(rng.range(0, 12)));
        if (rng.below(2) == 0 && d.size() >= 1) d[0] = kAck;
        break;
      case 2:  // random bytes
        d.resize(rng.range(2, 200));
        for (Byte& b : d) b = static_cast<Byte>(rng.next());
        break;
      case 3:  // a type the driver does not know
        d = datagram(static_cast<std::uint8_t>(rng.range(5, 255)),
                     static_cast<std::uint8_t>(rng.below(2)), make_payload(16));
        break;
      case 4:  // a track the endpoint does not have
        d = datagram(kData, static_cast<std::uint8_t>(rng.range(2, 255)),
                     make_payload(4));
        break;
    }
    inject(d);
  }
  // A valid frame still arrives byte-exact.
  expect_frame_arrives(frame);
  EXPECT_FALSE(ep_->broken());
  // Only whole Data datagrams on real tracks reached the handler, each as
  // one frame of its own bytes, late ones from the last rounds included.
  for (const auto& pkt : h_.packets) EXPECT_LT(pkt.track, 2u);

  // And the endpoint still sends: its frame reaches the test socket intact.
  GatherList gl;
  const Bytes out = make_payload(500, 3);
  gl.add(out.data(), out.size());
  ep_->send(kTrackEager, gl, 1);
  Bytes in(600);
  for (;;) {  // skip acks and pongs the fuzz solicited
    const ssize_t n = ::recv(fd_, in.data(), in.size(), 0);
    ASSERT_GE(n, 2);
    if (in[0] != kData) continue;
    ASSERT_EQ(static_cast<std::size_t>(n), 2 + out.size());
    EXPECT_EQ(in[1], kTrackEager);
    EXPECT_EQ(Bytes(in.begin() + 2, in.begin() + n), out);
    break;
  }
}

// An Ack opens the window no further than the bytes this side sent. One
// claiming 2^62 bytes before anything was sent, from the connected peer's
// own socket, must not open it: a bulk sender toward a socket that never
// reads still stalls once the window is full, instead of overrunning the
// receiver's buffer.
TEST_F(UdpFuzzTest, AckPastWhatWasSentLeavesTheWindowShut) {
  Bytes body;
  WireWriter(body).u64(std::uint64_t{1} << 62);
  inject(datagram(kAck, 0, body));
  ASSERT_EQ(ep_->counters().acks_rx.load(), 1u);
  const Bytes frame = make_payload(60000, 4);
  GatherList gl;
  gl.add(frame.data(), frame.size());
  constexpr std::uint64_t kFrames = 64;
  for (std::uint64_t i = 0; i < kFrames; ++i) ep_->send(kTrackBulk, gl, i);
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (ep_->counters().window_stalls.load() == 0 &&
         h_.completions.size() < kFrames) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    ep_->progress();
    std::this_thread::sleep_for(100us);
  }
  EXPECT_GT(ep_->counters().window_stalls.load(), 0u)
      << "the forged Ack opened the window: all " << h_.completions.size()
      << " frames left without a stall";
}

// The network may deliver a datagram twice, and the peer counts the copy
// too, so its Acks then run past what this side sent. They must still open
// the window up to what was sent: a sender that dropped them would sit out
// a window reset (udp.window_resets) on every fill for the rest of the
// connection. This thread relays between ep_ and a second endpoint and
// sends the first Data datagram twice.
TEST_F(UdpFuzzTest, DuplicatedDataDatagramKeepsTheWindowMoving) {
  auto peer = UdpEndpoint::bind(loop_, test_profile());
  RecordingHandler hp;
  peer->set_handler(&hp);
  int fd2 = -1;
  connect_raw(*peer, fd2);
  // Relay buffers as large as the driver asks for its own sockets, so the
  // relay holds a full window and drops nothing.
  const int rcvbuf = 1 << 20;
  for (int fd : {fd_, fd2})
    ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf),
              0);
  const Bytes frame = make_payload(60000, 5);
  GatherList gl;
  gl.add(frame.data(), frame.size());
  constexpr std::uint64_t kFrames = 64;
  std::vector<std::uint8_t> buf(1 << 16);
  bool duplicated = false;
  auto relay = [&](int from, int to) {
    for (;;) {
      const ssize_t n = ::recv(from, buf.data(), buf.size(), MSG_DONTWAIT);
      if (n <= 0) return;
      const int copies = !duplicated && from == fd_ && buf[0] == kData ? 2 : 1;
      for (int c = 0; c < copies; ++c)
        ASSERT_EQ(::send(to, buf.data(), static_cast<std::size_t>(n), 0), n);
      if (copies == 2) duplicated = true;
    }
  };
  std::uint64_t queued = 0;
  const auto deadline = std::chrono::steady_clock::now() + 30s;
  while (hp.packets.size() < kFrames + 1 || h_.completions.size() < kFrames) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    // A few frames per relay round: more than a window's worth, so the
    // window fills, while the relay still answers within the 20 ms after
    // which a blocked sender resets its window on its own.
    for (int k = 0; k < 8 && queued < kFrames; ++k)
      ep_->send(kTrackBulk, gl, queued++);
    pollfd fds[2] = {{fd_, POLLIN, 0}, {fd2, POLLIN, 0}};
    if (::poll(fds, 2, 1) > 0) {
      relay(fd_, fd2);
      relay(fd2, fd_);
    }
    ep_->progress();
    peer->progress();
  }
  peer->close();
  ::close(fd2);
  EXPECT_TRUE(duplicated);
  EXPECT_GT(ep_->counters().window_stalls.load(), 0u)
      << "the stream never filled the window";
  EXPECT_EQ(ep_->counters().window_resets.load(), 0u)
      << "Acks past what was sent were dropped, so the window waited for a "
         "reset";
}

TEST_F(UdpDriverTest, CapabilitiesAreHonest) {
  build();
  EXPECT_FALSE(a_->caps().lossless);
  // One datagram per frame: the IPv4 UDP payload ceiling less the 2-byte
  // header.
  EXPECT_EQ(a_->caps().max_frame, 65507u - 2u);
  const Capabilities prof = udp_loopback_profile();
  EXPECT_EQ(prof.max_frame, a_->caps().max_frame);
  EXPECT_FALSE(prof.lossless);
  EXPECT_FALSE(prof.gather_scatter);
}

}  // namespace
}  // namespace mado::drv
