// Multi-process UDP tests: the driver serving REAL traffic between separate
// OS processes over 127.0.0.1 — the configuration the single-process suites
// can only approximate. The harness forks echo children BEFORE the parent
// creates any UdpLoop (so no thread exists at fork time — fork+threads is
// undefined enough that TSan refuses it), exchanges ephemeral ports over
// pipes, and runs the bind()/connect() handshake exactly the way two
// unrelated processes would.
//
// The SIGKILL test is the acceptance scenario from the transport roadmap:
// kill -9 one peer, watch its rail die honestly (every in-flight token gets
// exactly one outcome, then one on_link_down), then drain the remaining
// workload to a surviving peer.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "drivers/profiles.hpp"
#include "drivers/udp_driver.hpp"
#include "tests/drivers/test_helpers.hpp"

namespace mado::drv {
namespace {

using testing::RecordingHandler;
using testing::make_payload;
using namespace std::chrono_literals;

bool write_exact(int fd, const void* buf, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(buf);
  while (len > 0) {
    const ssize_t n = ::write(fd, p, len);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

bool read_exact(int fd, void* buf, std::size_t len) {
  auto* p = static_cast<std::uint8_t*>(buf);
  while (len > 0) {
    const ssize_t n = ::read(fd, p, len);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

/// Echoes every arriving frame back on the same track.
struct EchoHandler final : EndpointHandler {
  UdpEndpoint* ep = nullptr;
  int link_downs = 0;
  std::uint64_t echoed = 0;

  void on_send_complete(TrackId, std::uint64_t) override {}
  void on_send_failed(TrackId, std::uint64_t) override {}
  void on_link_down() override { ++link_downs; }
  void on_packet(TrackId track, Bytes payload) override {
    GatherList gl;
    gl.add(payload.data(), payload.size());
    ep->send(track, gl, ++echoed);
  }
};

/// Child body: bind, swap ports over the pipe, connect, echo until the
/// parent's endpoint disappears (deliberate close or our own death by
/// SIGKILL). Never returns; exits 0 on clean link-down, 2 on timeout,
/// 3 on handshake failure. No gtest in here — assertion macros don't
/// propagate across processes; the parent checks the exit status.
[[noreturn]] void run_echo_child(int rfd, int wfd) {
  auto loop = UdpLoop::create();
  auto ep = UdpEndpoint::bind(loop, test_profile());
  EchoHandler h;
  h.ep = ep.get();
  ep->set_handler(&h);
  const std::uint16_t my_port = ep->local_port();
  if (!write_exact(wfd, &my_port, sizeof my_port)) ::_exit(3);
  std::uint16_t peer_port = 0;
  if (!read_exact(rfd, &peer_port, sizeof peer_port)) ::_exit(3);
  ep->connect("127.0.0.1", peer_port);
  const auto deadline = std::chrono::steady_clock::now() + 60s;
  while (h.link_downs == 0) {
    if (std::chrono::steady_clock::now() > deadline) ::_exit(2);
    ep->progress();
    std::this_thread::sleep_for(100us);
  }
  ep->close();
  ::_exit(0);
}

struct ChildProc {
  pid_t pid = -1;
  int rfd = -1;  ///< read child's port from here
  int wfd = -1;  ///< write our port here
};

/// Fork an echo child. MUST be called before the parent owns any UdpLoop
/// (i.e. before any thread exists).
ChildProc spawn_echo_child() {
  int p2c[2], c2p[2];
  if (::pipe(p2c) != 0 || ::pipe(c2p) != 0) return {};
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::close(p2c[1]);
    ::close(c2p[0]);
    run_echo_child(p2c[0], c2p[1]);
  }
  ::close(p2c[0]);
  ::close(c2p[1]);
  ChildProc c;
  c.pid = pid;
  c.rfd = c2p[0];
  c.wfd = p2c[1];
  return c;
}

/// Parent-side handshake against a spawned child.
std::unique_ptr<UdpEndpoint> connect_to_child(std::shared_ptr<UdpLoop> loop,
                                              ChildProc& c,
                                              RecordingHandler& h) {
  auto ep = UdpEndpoint::bind(std::move(loop), test_profile());
  ep->set_handler(&h);
  std::uint16_t child_port = 0;
  EXPECT_TRUE(read_exact(c.rfd, &child_port, sizeof child_port));
  const std::uint16_t my_port = ep->local_port();
  EXPECT_TRUE(write_exact(c.wfd, &my_port, sizeof my_port));
  ep->connect("127.0.0.1", child_port);
  return ep;
}

bool pump_until(UdpEndpoint& ep, const std::function<bool()>& pred,
                std::chrono::milliseconds timeout = 20000ms) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    ep.progress();
    std::this_thread::sleep_for(100us);
  }
  return true;
}

int wait_for_exit(pid_t pid) {
  int status = 0;
  ::waitpid(pid, &status, 0);
  return status;
}

TEST(UdpMultiProcess, BindConnectHandshakeAndEchoAcrossProcesses) {
  ChildProc child = spawn_echo_child();
  ASSERT_GT(child.pid, 0);
  // Only now may the parent grow threads.
  RecordingHandler h;
  auto ep = connect_to_child(UdpLoop::create(), child, h);

  // Small frames and four bulk frames of max_frame, echoed byte-exact.
  constexpr std::uint64_t kSmall = 16, kBig = 4;
  for (std::uint64_t i = 0; i < kSmall; ++i) {
    GatherList gl;
    const Bytes p = make_payload(512, static_cast<std::uint8_t>(i));
    gl.add(p.data(), p.size());
    ep->send(kTrackEager, gl, i);
  }
  std::vector<Bytes> big;
  for (std::uint64_t i = 0; i < kBig; ++i) {
    big.push_back(make_payload(ep->caps().max_frame,
                               static_cast<std::uint8_t>(0xA0 + i)));
    GatherList gl;
    gl.add(big.back().data(), big.back().size());
    ep->send(kTrackBulk, gl, 1000 + i);
  }
  ASSERT_TRUE(
      pump_until(*ep, [&] { return h.packets.size() == kSmall + kBig; }));
  std::size_t small_seen = 0, big_seen = 0;
  for (const auto& pkt : h.packets) {
    if (pkt.track == kTrackBulk) {
      ASSERT_LT(big_seen, kBig);
      EXPECT_EQ(pkt.payload, big[big_seen]) << "bulk #" << big_seen;
      ++big_seen;
    } else {
      EXPECT_EQ(pkt.payload,
                make_payload(512, static_cast<std::uint8_t>(small_seen)))
          << small_seen;
      ++small_seen;
    }
  }
  EXPECT_EQ(small_seen, kSmall);
  EXPECT_EQ(big_seen, kBig);
  EXPECT_EQ(h.link_downs, 0);

  // Deliberate close tears the child down cleanly (its pings get refused).
  ep->close();
  const int status = wait_for_exit(child.pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "child status " << status;
  ::close(child.rfd);
  ::close(child.wfd);
}

TEST(UdpMultiProcess, LossyEchoAcrossProcesses) {
  // Receive-side loss on the parent's endpoint: echoes vanish at 3%, but
  // the link must stay up (acks keep flowing) and the surviving echoes
  // arrive in order. Recovery-to-completeness belongs to the engine's
  // reliability layer; here the wire's honesty is the contract under test.
  ChildProc child = spawn_echo_child();
  ASSERT_GT(child.pid, 0);
  RecordingHandler h;
  auto ep = connect_to_child(UdpLoop::create(), child, h);
  ep->set_rx_loss(0.03, 77);

  constexpr std::uint64_t kN = 300;
  for (std::uint64_t i = 0; i < kN; ++i) {
    GatherList gl;
    const Bytes p = make_payload(64, static_cast<std::uint8_t>(i));
    gl.add(p.data(), p.size());
    ep->send(kTrackEager, gl, i);
  }
  // Every send completes; the echo stream settles at kN minus the losses.
  ASSERT_TRUE(pump_until(*ep, [&] { return h.completions.size() == kN; }));
  ASSERT_TRUE(pump_until(*ep, [&] {
    return h.packets.size() + ep->counters().rx_loss_injected.load() >= kN;
  }));
  EXPECT_GT(ep->counters().rx_loss_injected.load(), 0u);
  EXPECT_FALSE(ep->broken());
  EXPECT_EQ(h.link_downs, 0);

  ep->close();
  const int status = wait_for_exit(child.pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  ::close(child.rfd);
  ::close(child.wfd);
}

TEST(UdpMultiProcess, SigkillPeerFailsOverToSurvivor) {
  // Two echo children; SIGKILL the first mid-workload. Its rail must die
  // honestly — every token one outcome, exactly one on_link_down — and the
  // unacknowledged workload then drains to the survivor.
  ChildProc victim = spawn_echo_child();
  ChildProc survivor = spawn_echo_child();
  ASSERT_GT(victim.pid, 0);
  ASSERT_GT(survivor.pid, 0);
  auto loop = UdpLoop::create();
  RecordingHandler hv, hs;
  auto ep_v = connect_to_child(loop, victim, hv);
  auto ep_s = connect_to_child(loop, survivor, hs);

  auto send_to = [](UdpEndpoint& ep, std::uint64_t token, std::uint8_t seed) {
    GatherList gl;
    const Bytes p = make_payload(1024, seed);
    gl.add(p.data(), p.size());
    ep.send(kTrackEager, gl, token);
  };

  // Warm traffic through the victim.
  constexpr std::uint64_t kWarm = 8;
  for (std::uint64_t i = 0; i < kWarm; ++i)
    send_to(*ep_v, i, static_cast<std::uint8_t>(i));
  ASSERT_TRUE(pump_until(*ep_v, [&] { return hv.packets.size() == kWarm; }));

  // kill -9: the kernel closes the victim's socket; our datagrams now draw
  // ICMP port-unreachable → ECONNREFUSED on the connected fd.
  ASSERT_EQ(::kill(victim.pid, SIGKILL), 0);
  wait_for_exit(victim.pid);

  // Push the second batch at the corpse.
  constexpr std::uint64_t kBatch = 16;
  for (std::uint64_t i = 0; i < kBatch; ++i)
    send_to(*ep_v, 100 + i, static_cast<std::uint8_t>(i));
  ASSERT_TRUE(pump_until(*ep_v, [&] {
    return hv.completions.size() + hv.failures.size() == kWarm + kBatch &&
           hv.link_downs == 1;
  }));
  EXPECT_TRUE(ep_v->broken());
  EXPECT_EQ(hv.link_downs, 1);
  // Link-down came only after every failed token was reported.
  EXPECT_EQ(hv.failures_at_link_down, hv.failures.size());

  // Fail over: drain the same workload to the survivor.
  for (std::uint64_t i = 0; i < kBatch; ++i)
    send_to(*ep_s, 100 + i, static_cast<std::uint8_t>(i));
  ASSERT_TRUE(pump_until(*ep_s, [&] { return hs.packets.size() == kBatch; }));
  for (std::uint64_t i = 0; i < kBatch; ++i)
    EXPECT_EQ(hs.packets[i].payload,
              make_payload(1024, static_cast<std::uint8_t>(i)))
        << i;
  EXPECT_FALSE(ep_s->broken());
  EXPECT_EQ(hs.link_downs, 0);

  ep_v->close();
  ep_s->close();
  const int status = wait_for_exit(survivor.pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  for (int fd : {victim.rfd, victim.wfd, survivor.rfd, survivor.wfd})
    ::close(fd);
}

}  // namespace
}  // namespace mado::drv
