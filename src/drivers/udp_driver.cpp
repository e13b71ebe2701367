#include "drivers/udp_driver.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <system_error>

#include "util/assert.hpp"
#include "util/log.hpp"

namespace mado::drv {

namespace {

/// [u8 type][u8 track]
constexpr std::size_t kHdrLen = 2;
/// An Ack's body: the u64 cumulative received-byte count.
constexpr std::size_t kAckLen = kHdrLen + 8;
/// Datagrams per sendmmsg/recvmmsg call.
constexpr std::size_t kBatch = 32;
/// IPv4 UDP payload ceiling (65535 - 20 IP - 8 UDP).
constexpr std::size_t kMaxDatagram = 65507;
/// max_frame: one datagram carries one frame, whole.
constexpr std::size_t kFrameLimit = kMaxDatagram - kHdrLen;
/// Receive scratch slot; any legal datagram fits.
constexpr std::size_t kRxSlot = 65536;
/// Per-datagram flow-control surcharge: the kernel charges the receive
/// buffer by skb truesize, not payload bytes, so a window accounted in pure
/// wire bytes overruns rcvbuf for small datagrams. Both sides use the same
/// formula, so sender charges and receiver acks always agree.
constexpr std::uint64_t kChargeOverhead = 256;
/// Flow-control window in charged bytes (wire bytes + kChargeOverhead per
/// datagram). Clamped at connect() time to half the socket's actual
/// receive buffer, so the window can never overrun a default-sized rcvbuf.
constexpr std::size_t kWindowBytes = 256 * 1024;
/// Requested SO_RCVBUF/SO_SNDBUF (the kernel caps by rmem_max/wmem_max).
constexpr int kSockbufBytes = 1 * 1024 * 1024;

constexpr std::uint8_t kTypeData = 1;
constexpr std::uint8_t kTypeAck = 2;
constexpr std::uint8_t kTypePing = 3;
constexpr std::uint8_t kTypePong = 4;

/// Shortest spacing of ack-soliciting pings from a window-blocked sender.
constexpr Nanos kPingSpacing = 1 * kNanosPerMilli;
constexpr Nanos kSlowTick = 50 * kNanosPerMilli;
/// Window-blocked this long → solicit an ack with a ping before escalating
/// to a full window reset.
constexpr Nanos kAckSolicitAfter = 2 * kNanosPerMilli;
/// Window-blocked with no ack progress for this long → assume the acks (or
/// the data) died on the wire and reset the window so the engine's
/// retransmission can flow (udp.window_resets).
constexpr Nanos kWindowResetAfter = 20 * kNanosPerMilli;
/// Send a keepalive ping after this much rx silence.
constexpr Nanos kPingInterval = 200 * kNanosPerMilli;
/// Declare the peer dead after this much rx silence (backstop for the
/// ECONNREFUSED fast path, which needs the peer's port to be closed).
constexpr Nanos kPeerTimeout = 2 * kNanosPerSec;

std::uint64_t charge(std::size_t wire_len) {
  return static_cast<std::uint64_t>(wire_len) + kChargeOverhead;
}

Nanos now_ns() { return SteadyClock{}.now(); }

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

}  // namespace

Capabilities udp_loopback_profile() {
  Capabilities c;
  c.name = "udp";
  c.max_eager = 8 * 1024;
  c.rdv_threshold = 64 * 1024;
  c.gather_scatter = false;  // datagram build flattens multi-segment packets
  c.max_gather_segments = 1;
  c.track_count = 2;
  c.lossless = false;  // Engine::add_rail demands cfg.reliability
  c.max_frame = kFrameLimit;
  // Loopback through two event loops: syscall-dominated overheads, a few
  // GB/s of stream bandwidth, ~15 µs one-way through epoll + recvmmsg.
  c.cost.pio_overhead = 2000;
  c.cost.dma_overhead = 3000;
  c.cost.per_segment = 0;
  c.cost.pio_threshold = 0;  // every send takes the kernel path
  c.cost.pio_bytes_per_us = 3000.0;
  c.cost.link_bytes_per_us = 3000.0;
  c.cost.gap = 500;
  c.cost.latency = 15000;
  c.cost.copy_bytes_per_us = 3000.0;
  return c;
}

// ---------------------------------------------------------------------------
// UdpLoop
// ---------------------------------------------------------------------------

std::shared_ptr<UdpLoop> UdpLoop::create() {
  return std::shared_ptr<UdpLoop>(new UdpLoop());
}

UdpLoop::UdpLoop() {
  epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epfd_ < 0) throw_errno("epoll_create1");
  wakefd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wakefd_ < 0) {
    ::close(epfd_);
    throw_errno("eventfd");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = nullptr;  // nullptr marks the wake fd
  if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, wakefd_, &ev) != 0) {
    ::close(wakefd_);
    ::close(epfd_);
    throw_errno("epoll_ctl wakefd");
  }
  rx_buf_.resize(kBatch * kRxSlot);
  thread_ = std::thread([this] { run(); });
}

UdpLoop::~UdpLoop() {
  stop_.store(true, std::memory_order_release);
  wake();
  if (thread_.joinable()) thread_.join();
  ::close(wakefd_);
  ::close(epfd_);
}

void UdpLoop::wake() {
  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wakefd_, &one, sizeof one);
}

void UdpLoop::notify_tx(UdpEndpoint* ep) {
  tx_dirty_.push(ep);
  wake();
}

void UdpLoop::register_endpoint(UdpEndpoint* ep) {
  bool done = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    ctrl_.push_back(CtrlOp{false, ep, &done});
  }
  wake();
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [&] { return done; });
}

void UdpLoop::deregister_endpoint(UdpEndpoint* ep) {
  bool done = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    ctrl_.push_back(CtrlOp{true, ep, &done});
  }
  wake();
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [&] { return done; });
}

void UdpLoop::process_ctrl() {
  std::vector<CtrlOp> ops;
  {
    std::lock_guard<std::mutex> lk(mu_);
    ops.swap(ctrl_);
  }
  if (ops.empty()) return;
  for (CtrlOp& op : ops) {
    UdpEndpoint* ep = op.ep;
    if (!op.deregister) {
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.ptr = ep;
      if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, ep->fd_, &ev) != 0)
        MADO_ERROR("udp: epoll ADD failed: " << std::strerror(errno));
      ep->io_.last_rx = now_ns();
      eps_.push_back(ep);
    } else {
      ::epoll_ctl(epfd_, EPOLL_CTL_DEL, ep->fd_, nullptr);
      eps_.erase(std::remove(eps_.begin(), eps_.end(), ep), eps_.end());
      active_tx_.erase(std::remove(active_tx_.begin(), active_tx_.end(), ep),
                       active_tx_.end());
      // Purge queued dirty notifications so the loop never dereferences the
      // endpoint after this handshake completes.
      std::vector<UdpEndpoint*> dirty;
      tx_dirty_.drain(dirty);
      for (UdpEndpoint* d : dirty)
        if (d != ep) tx_dirty_.push(d);
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      *op.done = true;
    }
    cv_.notify_all();
  }
}

void UdpLoop::set_active(UdpEndpoint* ep, bool active) {
  if (active) {
    if (!ep->io_.in_active) {
      ep->io_.in_active = true;
      active_tx_.push_back(ep);
    }
  } else {
    ep->io_.in_active = false;
    active_tx_.erase(std::remove(active_tx_.begin(), active_tx_.end(), ep),
                     active_tx_.end());
  }
}

void UdpLoop::set_want_writable(UdpEndpoint* ep, bool want) {
  if (ep->io_.want_writable == want) return;
  epoll_event ev{};
  ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
  ev.data.ptr = ep;
  if (::epoll_ctl(epfd_, EPOLL_CTL_MOD, ep->fd_, &ev) != 0)
    MADO_ERROR("udp: epoll MOD failed: " << std::strerror(errno));
  ep->io_.want_writable = want;
}

void UdpLoop::run() {
  std::vector<epoll_event> evs(64);
  for (;;) {
    if (stop_.load(std::memory_order_acquire)) break;
    // Idle loops sleep on epoll alone (forever with no endpoints, the slow
    // keepalive tick otherwise); a loop with backlogged senders polls at
    // the ping spacing so window-blocked endpoints re-check promptly.
    const Nanos timeout = active_tx_.empty() ? kSlowTick : kPingSpacing;
    const int timeout_ms =
        eps_.empty() ? -1 : static_cast<int>(timeout / kNanosPerMilli);
    const int n =
        ::epoll_wait(epfd_, evs.data(), static_cast<int>(evs.size()),
                     timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      MADO_ERROR("udp: epoll_wait failed: " << std::strerror(errno));
      break;
    }
    for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i) {
      if (evs[i].data.ptr == nullptr) {
        std::uint64_t drain = 0;
        while (::read(wakefd_, &drain, sizeof drain) > 0) {
        }
        continue;
      }
      auto* ep = static_cast<UdpEndpoint*>(evs[i].data.ptr);
      if (evs[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP))
        handle_readable(ep);
      if (evs[i].events & EPOLLOUT) {
        set_want_writable(ep, false);
        set_active(ep, true);
      }
    }
    // Pick up endpoints whose submit queue gained items. The flag clears
    // BEFORE the pump drains, so a send() racing this point either lands in
    // the drain below or re-signals for the next iteration.
    {
      std::vector<UdpEndpoint*> dirty;
      tx_dirty_.drain(dirty);
      for (UdpEndpoint* ep : dirty) {
        ep->tx_signaled_.store(false, std::memory_order_release);
        set_active(ep, true);
      }
    }
    const Nanos now = now_ns();
    // Pump every active endpoint; keep only the ones with remaining
    // backlog (window- or EPOLLOUT-blocked).
    std::size_t w = 0;
    for (std::size_t i = 0; i < active_tx_.size(); ++i) {
      UdpEndpoint* ep = active_tx_[i];
      pump_tx(ep, now);
      const bool keep = !ep->io_.q.empty() && !ep->io_.broken;
      ep->io_.in_active = keep;
      if (keep) active_tx_[w++] = ep;
    }
    active_tx_.resize(w);
    if (now - last_slow_tick_ >= kSlowTick) {
      last_slow_tick_ = now;
      slow_tick(now);
    }
    // Before process_ctrl: once a deregister handshake completes, the
    // endpoint (and its handler) may be gone.
    ring_owed();
    process_ctrl();
  }
  // Drain any ctrl handshakes issued around shutdown so no caller blocks.
  process_ctrl();
}

void UdpLoop::handle_readable(UdpEndpoint* ep) {
  auto& io = ep->io_;
  mmsghdr msgs[kBatch];
  iovec iovs[kBatch];
  for (;;) {
    std::memset(msgs, 0, sizeof msgs);
    for (std::size_t i = 0; i < kBatch; ++i) {
      iovs[i].iov_base = rx_buf_.data() + i * kRxSlot;
      iovs[i].iov_len = kRxSlot;
      msgs[i].msg_hdr.msg_iov = &iovs[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
    }
    const int n =
        ::recvmmsg(ep->fd_, msgs, static_cast<unsigned>(kBatch), 0, nullptr);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      // A connected UDP socket surfaces the peer's death (ICMP port
      // unreachable after a SIGKILL) as ECONNREFUSED right here.
      break_link(ep, std::strerror(errno));
      return;
    }
    if (n == 0) break;
    const Nanos now = now_ns();
    for (int i = 0; i < n; ++i) {
      if (io.broken) break;
      handle_datagram(ep, rx_buf_.data() + std::size_t(i) * kRxSlot,
                      msgs[i].msg_len, now);
    }
    if (io.broken) return;
    flush_ack(ep, false);
    if (static_cast<std::size_t>(n) < kBatch) break;
  }
}

void UdpLoop::handle_datagram(UdpEndpoint* ep, const std::uint8_t* data,
                              std::size_t len, Nanos now) {
  auto& io = ep->io_;
  if (len < kHdrLen) return;  // runt: not ours, drop
  const std::uint8_t type = data[0];
  const std::uint8_t track = data[1];
  io.last_rx = now;
  ep->counters_.datagrams_rx.fetch_add(1, std::memory_order_relaxed);
  ep->counters_.bytes_rx.fetch_add(len, std::memory_order_relaxed);
  switch (type) {
    case kTypeAck: {
      if (len != kAckLen) return;  // malformed: drop
      ep->counters_.acks_rx.fetch_add(1, std::memory_order_relaxed);
      const std::uint64_t acked =
          WireReader(as_bytes(data + kHdrLen, len - kHdrLen)).u64();
      // The peer's count sums charge() over the datagrams it got, so it
      // passes tx_charged only when the network duplicated one, or when the
      // Ack is forged. Taken whole, a forged one would open the window past
      // anything the peer can have drained, so it is capped at tx_charged.
      const std::uint64_t upto = std::min(acked, io.tx_charged);
      if (upto > io.peer_acked) {
        io.peer_acked = upto;
        io.blocked_since = 0;
        if (!io.q.empty()) set_active(ep, true);
      }
      return;
    }
    case kTypePing:
      // A ping solicits an immediate ack (the sender is window-blocked)
      // and a pong for liveness.
      flush_ack(ep, true);
      send_ctrl_datagram(ep, kTypePong);
      return;
    case kTypePong:
      return;  // last_rx update above is the whole point
    case kTypeData:
      break;
    default:
      return;  // unknown type: drop
  }
  // Flow-control accounting covers every DATA datagram that reached the
  // socket — including ones the rx-loss hook then discards, so injected
  // loss starves the reliability layer, not the window.
  io.rx_charged += charge(len);
  const std::uint32_t loss_ppm =
      ep->rx_loss_ppm_.load(std::memory_order_relaxed);
  if (loss_ppm != 0) {
    std::uint64_t x = ep->loss_rng_.load(std::memory_order_relaxed);
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    ep->loss_rng_.store(x, std::memory_order_relaxed);
    if (x % 1000000u < loss_ppm) {
      ep->counters_.rx_loss_injected.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  if (track >= ep->caps_.track_count) return;  // malformed: drop
  // One datagram is one frame: hand it up at once. Ordering, dedup and
  // recovery belong to the reliability layer, and the engine's decoder
  // judges the bytes.
  ep->events_.push(
      UdpEndpoint::EvPacket{track, Bytes(data + kHdrLen, data + len)});
  owe_ring(ep);
  ep->counters_.frames_rx.fetch_add(1, std::memory_order_relaxed);
}

void UdpLoop::pump_tx(UdpEndpoint* ep, Nanos now) {
  auto& io = ep->io_;
  {
    std::vector<UdpEndpoint::TxItem> fresh;
    ep->tx_.drain(fresh);
    for (auto& item : fresh) io.q.push_back(std::move(item));
  }
  if (ep->fail_requested_.exchange(false, std::memory_order_acq_rel)) {
    break_link(ep, "injected failure");
    return;
  }
  if (io.broken) {
    for (auto& item : io.q)
      ep->events_.push(UdpEndpoint::EvSendFailed{item.track, item.token});
    if (!io.q.empty()) owe_ring(ep);
    io.q.clear();
    return;
  }
  if (io.want_writable) return;  // waiting for EPOLLOUT
  while (!io.q.empty()) {
    // One datagram per queued frame, as many as the window admits.
    mmsghdr msgs[kBatch];
    iovec iovs[kBatch][2];
    std::uint8_t hdrs[kBatch][kHdrLen];
    std::memset(msgs, 0, sizeof msgs);
    unsigned built = 0;
    std::uint64_t pending_charge = 0;
    for (; built < kBatch && built < io.q.size(); ++built) {
      auto& item = io.q[built];
      const std::uint64_t ch = charge(kHdrLen + item.payload.size());
      if (io.tx_charged + pending_charge + ch >
          io.peer_acked + ep->window_)
        break;  // window full
      hdrs[built][0] = kTypeData;
      hdrs[built][1] = item.track;
      iovs[built][0].iov_base = hdrs[built];
      iovs[built][0].iov_len = kHdrLen;
      iovs[built][1].iov_base = item.payload.data();
      iovs[built][1].iov_len = item.payload.size();
      msgs[built].msg_hdr.msg_iov = iovs[built];
      msgs[built].msg_hdr.msg_iovlen = 2;
      pending_charge += ch;
    }
    if (built == 0) {
      // Window-blocked. Solicit an ack first; if the peer stays silent the
      // acks (or our data) died on the wire — reset the window and let the
      // reliability layer's retransmissions flow rather than deadlock.
      if (io.blocked_since == 0) {
        io.blocked_since = now;
        ep->counters_.window_stalls.fetch_add(1, std::memory_order_relaxed);
      } else if (now - io.blocked_since >= kWindowResetAfter) {
        io.peer_acked = io.tx_charged;
        io.blocked_since = 0;
        ep->counters_.window_resets.fetch_add(1, std::memory_order_relaxed);
        continue;  // retry immediately with the fresh window
      } else if (now - io.blocked_since >= kAckSolicitAfter &&
                 now - io.last_ping >= kPingSpacing) {
        io.last_ping = now;
        send_ctrl_datagram(ep, kTypePing);
      }
      return;
    }
    int n;
    do {
      n = ::sendmmsg(ep->fd_, msgs, built, 0);
    } while (n < 0 && errno == EINTR);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        ep->counters_.eagain_tx.fetch_add(1, std::memory_order_relaxed);
        set_want_writable(ep, true);
        return;
      }
      if (errno == ENOBUFS) {
        // Transient kernel memory pressure; EPOLLOUT won't signal relief,
        // so stay active and retry on the next loop iteration.
        ep->counters_.eagain_tx.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      break_link(ep, std::strerror(errno));
      return;
    }
    for (int i = 0; i < n; ++i) {
      auto& item = io.q.front();
      const std::size_t wire = kHdrLen + item.payload.size();
      io.tx_charged += charge(wire);
      ep->counters_.datagrams_tx.fetch_add(1, std::memory_order_relaxed);
      ep->counters_.bytes_tx.fetch_add(wire, std::memory_order_relaxed);
      ep->counters_.frames_tx.fetch_add(1, std::memory_order_relaxed);
      ep->events_.push(UdpEndpoint::EvSendComplete{item.track, item.token});
      io.q.pop_front();
    }
    if (n > 0) owe_ring(ep);
    io.blocked_since = 0;
    if (static_cast<unsigned>(n) < built) {
      ep->counters_.eagain_tx.fetch_add(1, std::memory_order_relaxed);
      set_want_writable(ep, true);
      return;
    }
  }
}

bool UdpLoop::send_ctrl_datagram(UdpEndpoint* ep, std::uint8_t type,
                                 std::uint64_t acked) {
  ctrl_buf_.clear();
  WireWriter w(ctrl_buf_);
  w.u8(type);
  w.u8(0);
  if (type == kTypeAck) w.u64(acked);
  ssize_t n;
  do {
    n = ::send(ep->fd_, ctrl_buf_.data(), ctrl_buf_.size(), 0);
  } while (n < 0 && errno == EINTR);
  if (n < 0) {
    if (errno == ECONNREFUSED) break_link(ep, "econnrefused");
    return false;  // EAGAIN etc: best-effort, the next tick retries
  }
  ep->counters_.datagrams_tx.fetch_add(1, std::memory_order_relaxed);
  ep->counters_.bytes_tx.fetch_add(ctrl_buf_.size(),
                                   std::memory_order_relaxed);
  if (type == kTypePing)
    ep->counters_.pings_tx.fetch_add(1, std::memory_order_relaxed);
  if (type == kTypeAck)
    ep->counters_.acks_tx.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void UdpLoop::flush_ack(UdpEndpoint* ep, bool force) {
  auto& io = ep->io_;
  const std::uint64_t delta = io.rx_charged - io.acked_sent;
  if (delta == 0) {
    io.ack_pending = false;
    return;
  }
  // Below the threshold the ack rides the next slow tick (or a ping): a
  // trickle flow never starves the sender's window, and a bulk flow crosses
  // the threshold every few datagrams anyway.
  if (!force && delta < ep->window_ / 8) {
    io.ack_pending = true;
    return;
  }
  if (!send_ctrl_datagram(ep, kTypeAck, io.rx_charged)) {
    io.ack_pending = true;  // retried from the slow tick
    return;
  }
  io.acked_sent = io.rx_charged;
  io.ack_pending = false;
}

void UdpLoop::break_link(UdpEndpoint* ep, const char* why) {
  auto& io = ep->io_;
  if (io.broken) return;
  io.broken = true;
  ep->gate_.mark_broken();
  owe_ring(ep);  // progress() reports the link down, failures or not
  MADO_DEBUG("udp: link down (" << why << ") on port " << ep->local_port_);
  // Fail everything queued and everything still sitting in the submit
  // queue — exactly one failure per token, all delivered by progress()
  // before on_link_down.
  {
    std::vector<UdpEndpoint::TxItem> fresh;
    ep->tx_.drain(fresh);
    for (auto& item : fresh) io.q.push_back(std::move(item));
  }
  for (auto& item : io.q)
    ep->events_.push(UdpEndpoint::EvSendFailed{item.track, item.token});
  io.q.clear();
}

void UdpLoop::owe_ring(UdpEndpoint* ep) {
  if (ep->io_.ring_owed) return;
  ep->io_.ring_owed = true;
  owed_.push_back(ep);
}

void UdpLoop::ring_owed() {
  for (UdpEndpoint* ep : owed_) {
    ep->io_.ring_owed = false;
    if (EndpointHandler* h = ep->handler_.load(std::memory_order_acquire))
      h->on_ready();
  }
  owed_.clear();
}

void UdpLoop::slow_tick(Nanos now) {
  for (UdpEndpoint* ep : eps_) {
    auto& io = ep->io_;
    if (io.broken) continue;
    if (ep->fail_requested_.exchange(false, std::memory_order_acq_rel)) {
      break_link(ep, "injected failure");
      continue;
    }
    if (io.ack_pending) flush_ack(ep, true);
    const Nanos silence = now - io.last_rx;
    if (silence >= kPeerTimeout) {
      break_link(ep, "peer timeout");
      continue;
    }
    if (silence >= kPingInterval && now - io.last_ping >= kPingInterval) {
      io.last_ping = now;
      send_ctrl_datagram(ep, kTypePing);
    }
  }
}

// ---------------------------------------------------------------------------
// UdpEndpoint
// ---------------------------------------------------------------------------

UdpEndpoint::UdpEndpoint(std::shared_ptr<UdpLoop> loop, Capabilities caps)
    : loop_(std::move(loop)), caps_(std::move(caps)) {
  // Honest advertisement: the wire drops, and a frame is one datagram.
  caps_.lossless = false;
  caps_.max_frame = kFrameLimit;
}

UdpEndpoint::~UdpEndpoint() { close(); }

std::unique_ptr<UdpEndpoint> UdpEndpoint::bind(std::shared_ptr<UdpLoop> loop,
                                               const Capabilities& caps,
                                               std::uint16_t port) {
  MADO_CHECK_MSG(loop, "udp endpoint needs a loop");
  std::unique_ptr<UdpEndpoint> ep(new UdpEndpoint(std::move(loop), caps));
  ep->open_and_bind(port);
  return ep;
}

void UdpEndpoint::open_and_bind(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd_ < 0) throw_errno("socket");
  const int buf = kSockbufBytes;
  // Best effort: the kernel clamps at rmem_max/wmem_max; the flow-control
  // window adapts to whatever was actually granted below.
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &buf, sizeof buf);
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDBUF, &buf, sizeof buf);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr) != 1)
    throw_errno("inet_pton");
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0)
    throw_errno("bind");
  sockaddr_in bound{};
  socklen_t blen = sizeof bound;
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &blen) != 0)
    throw_errno("getsockname");
  local_port_ = ntohs(bound.sin_port);
}

void UdpEndpoint::connect(const std::string& ip, std::uint16_t port) {
  MADO_CHECK_MSG(!connected_.load(std::memory_order_acquire),
                 "udp endpoint already connected");
  sockaddr_in peer{};
  peer.sin_family = AF_INET;
  peer.sin_port = htons(port);
  if (::inet_pton(AF_INET, ip.c_str(), &peer.sin_addr) != 1)
    throw_errno("inet_pton");
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&peer),
                sizeof peer) != 0)
    throw_errno("connect");
  // The window may never exceed what the peer's receive buffer can hold;
  // with symmetric configs our own granted rcvbuf is the honest proxy.
  // Floor at one full datagram so a tiny buffer still makes progress.
  int rcv = 0;
  socklen_t rlen = sizeof rcv;
  ::getsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcv, &rlen);
  window_ = kWindowBytes;
  if (rcv > 0)
    window_ = std::min(window_, static_cast<std::size_t>(rcv) / 2);
  window_ = std::max(window_,
                     static_cast<std::size_t>(charge(kMaxDatagram)));
  connected_.store(true, std::memory_order_release);
  loop_->register_endpoint(this);
  registered_.store(true, std::memory_order_release);
}

UdpEndpoint::PairResult UdpEndpoint::make_pair(const Capabilities& caps_a,
                                               const Capabilities& caps_b) {
  auto loop = UdpLoop::create();
  PairResult r;
  r.a = bind(loop, caps_a);
  r.b = bind(loop, caps_b);
  r.a->connect("127.0.0.1", r.b->local_port());
  r.b->connect("127.0.0.1", r.a->local_port());
  return r;
}

void UdpEndpoint::send(TrackId track, const GatherList& gl,
                       std::uint64_t token) {
  MADO_CHECK(track < caps_.track_count);
  check_frame(caps_, gl);
  MADO_CHECK_MSG(!gate_.closed(), "send on closed endpoint");
  MADO_CHECK_MSG(connected_.load(std::memory_order_acquire),
                 "send before connect");
  TxItem item;
  item.track = track;
  item.token = token;
  item.payload = gl.flatten();  // segments only live until completion
  gate_.accept();
  tx_.push(std::move(item));
  // One wake per burst: the loop clears the flag before draining, so the
  // first send after a drain re-arms the notification.
  if (!tx_signaled_.exchange(true, std::memory_order_acq_rel))
    loop_->notify_tx(this);
}

void UdpEndpoint::progress() {
  EndpointHandler* handler = handler_.load(std::memory_order_acquire);
  if (!handler) return;
  std::vector<Event> drained;
  events_.drain(drained);
  for (auto& ev : drained) {
    if (auto* done = std::get_if<EvSendComplete>(&ev)) {
      gate_.resolve();
      handler->on_send_complete(done->track, done->token);
    } else if (auto* failed = std::get_if<EvSendFailed>(&ev)) {
      gate_.resolve();
      handler->on_send_failed(failed->track, failed->token);
    } else {
      auto& pkt = std::get<EvPacket>(ev);
      handler->on_packet(pkt.track, std::move(pkt.payload));
    }
  }
  if (gate_.should_report_link_down()) handler->on_link_down();
}

void UdpEndpoint::close() {
  if (!gate_.mark_closed_once()) return;
  // Synchronous handshake: after this returns the loop thread holds no
  // reference to this endpoint, so the fd and Io state are ours to tear
  // down.
  if (registered_.load(std::memory_order_acquire))
    loop_->deregister_endpoint(this);
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void UdpEndpoint::inject_failure() {
  fail_requested_.store(true, std::memory_order_release);
  // Ride the tx-dirty path so the loop notices promptly even when idle.
  if (registered_.load(std::memory_order_acquire)) {
    if (!tx_signaled_.exchange(true, std::memory_order_acq_rel))
      loop_->notify_tx(this);
  }
}

void UdpEndpoint::set_rx_loss(double probability, std::uint64_t seed) {
  loss_rng_.store(seed | 1, std::memory_order_relaxed);
  const double p = std::min(1.0, std::max(0.0, probability));
  rx_loss_ppm_.store(static_cast<std::uint32_t>(p * 1000000.0),
                     std::memory_order_release);
}

std::string UdpEndpoint::describe() const {
  return "udp:127.0.0.1:" + std::to_string(local_port_);
}

}  // namespace mado::drv
